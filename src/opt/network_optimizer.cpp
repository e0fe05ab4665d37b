#include "opt/network_optimizer.h"

#include <algorithm>
#include <stdexcept>

namespace meshopt {

bool NetworkOptimizer::bind(const OptimizerInput& input) {
  const int links = input.routing.rows();
  const int flows = input.routing.cols();
  const int points = input.extreme_points.rows();
  if (flows == 0 || points == 0 || links == 0) return false;
  if (input.extreme_points.cols() != links)
    throw std::invalid_argument("extreme point arity != link count");
  double max_cap = 0.0;
  const double* p = input.extreme_points.data();
  const std::size_t total = static_cast<std::size_t>(points) *
                            static_cast<std::size_t>(links);
  for (std::size_t i = 0; i < total; ++i) max_cap = std::max(max_cap, p[i]);
  scale_ = region_scale(max_cap, input.scale_override);
  flows_ = flows;
  in_ = &input;
  return true;
}

LpProblem& NetworkOptimizer::fresh_lp(int extra_vars) {
  const OptimizerInput& in = *in_;
  const int points = in.extreme_points.rows();
  build_region(in.routing, points, extra_vars);
  const double inv_scale = 1.0 / scale_;
  for (int l = 0; l < in.routing.rows(); ++l) {
    double* row = problem_.coeffs.row(l);
    // Column l of the K x L extreme-point matrix, negated and normalized.
    for (int k = 0; k < points; ++k)
      row[flows_ + k] = -in.extreme_points(k, l) * inv_scale;
  }
  return problem_;
}

LpSolution NetworkOptimizer::solve_lp(LpStart start) {
  return start == LpStart::kResolve ? solver_.resolve_objective(problem_)
                                    : solver_.solve(problem_);
}

OptimizerResult NetworkOptimizer::solve(const OptimizerInput& input) {
  if (!bind(input)) return OptimizerResult{};
  return optimize(*this, cfg_);
}

OptimizerResult optimize_rates(const OptimizerInput& input,
                               const OptimizerConfig& config) {
  NetworkOptimizer optimizer(config);
  return optimizer.solve(input);
}

double tcp_ack_airtime_factor(int payload_bytes, int header_bytes,
                              int ack_bytes) {
  const double a = static_cast<double>(ack_bytes);
  const double h = static_cast<double>(header_bytes);
  const double d = static_cast<double>(payload_bytes);
  return 1.0 - (a + h) / (a + h + d);
}

}  // namespace meshopt
