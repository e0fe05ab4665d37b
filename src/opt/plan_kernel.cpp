#include "opt/plan_kernel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "opt/utility.h"

namespace meshopt {

namespace {

/// sum_f U(z_f) over the first `flows` entries.
double utility_sum(const AlphaFairUtility& util, const std::vector<double>& z,
                   int flows) {
  double acc = 0.0;
  for (int f = 0; f < flows; ++f)
    acc += util.value(z[static_cast<std::size_t>(f)]);
  return acc;
}

/// Golden-section search for the step gamma in [0, 1] that maximizes the
/// utility of the blend (1 - gamma) z + gamma v over the first `flows`
/// entries; 40 steps.
double line_search(const AlphaFairUtility& util, const std::vector<double>& z,
                   const std::vector<double>& v, int flows) {
  const auto blend_obj = [&](double gamma) {
    double acc = 0.0;
    for (int f = 0; f < flows; ++f) {
      const double y = (1.0 - gamma) * z[static_cast<std::size_t>(f)] +
                       gamma * v[static_cast<std::size_t>(f)];
      acc += util.value(y);
    }
    return acc;
  };
  double lo = 0.0, hi = 1.0;
  constexpr double kGolden = 0.3819660112501051;
  double m1 = lo + kGolden * (hi - lo), m2 = hi - kGolden * (hi - lo);
  double f1 = blend_obj(m1), f2 = blend_obj(m2);
  for (int it = 0; it < 40; ++it) {
    if (f1 < f2) {
      lo = m1;
      m1 = m2;
      f1 = f2;
      m2 = hi - kGolden * (hi - lo);
      f2 = blend_obj(m2);
    } else {
      hi = m2;
      m2 = m1;
      f2 = f1;
      m1 = lo + kGolden * (hi - lo);
      f1 = blend_obj(m1);
    }
  }
  return 0.5 * (lo + hi);
}

/// Water-filling fixes a flow at the current level without a push test
/// when its t-LP row's dual is below minus this: well clear of simplex
/// round-off, and far below the >= 1/flows that the largest one reaches.
constexpr double kBottleneckDual = 1e-9;

/// A water-filling result: y is the scaled `level`s in bits/s, carried by
/// the schedule `weights`; the objective is the smallest level.
OptimizerResult levels_result(const std::vector<double>& level, double scale,
                              std::vector<double> weights) {
  OptimizerResult r;
  r.ok = true;
  r.y.resize(level.size());
  for (std::size_t f = 0; f < level.size(); ++f) r.y[f] = level[f] * scale;
  r.alpha_weights = std::move(weights);
  r.objective_value = *std::min_element(r.y.begin(), r.y.end());
  return r;
}

/// Maximize aggregate throughput: the vertex at gradient 1.
OptimizerResult max_throughput(RegionLp& region) {
  const int flows = region.flows();
  const std::vector<double> ones(static_cast<std::size_t>(flows), 1.0);
  std::vector<double> v;
  const bool ok = region.vertex(ones, /*first=*/true, v);
  region.finish();
  OptimizerResult r;
  if (!ok) return r;
  r.ok = true;
  r.y.resize(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f)
    r.y[static_cast<std::size_t>(f)] =
        v[static_cast<std::size_t>(f)] * region.scale();
  r.alpha_weights.assign(v.begin() + flows, v.end());
  for (double y : r.y) r.objective_value += y;
  return r;
}

}  // namespace

void RegionLp::build_region(const DenseMatrix& routing, int columns,
                            int extra_vars) {
  const int links = routing.rows();
  problem_ = LpProblem();
  problem_.num_vars = flows_ + columns + extra_vars;
  problem_.objective.assign(static_cast<std::size_t>(problem_.num_vars), 0.0);
  for (int l = 0; l < links; ++l) {
    double* row = problem_.add_row(Relation::kLe, 0.0);
    const double* r = routing.row(l);
    for (int f = 0; f < flows_; ++f) row[f] = r[f];
  }
  // Convex weights sum to one.
  double* simplex_row = problem_.add_row(Relation::kEq, 1.0);
  for (int k = 0; k < columns; ++k) simplex_row[flows_ + k] = 1.0;

  // Safety cap: a flow crossing no modeled link would be unbounded.
  for (int f = 0; f < flows_; ++f) {
    bool routed = false;
    for (int l = 0; l < links; ++l)
      if (routing(l, f) > 0.0) routed = true;
    if (!routed) {
      double* row = problem_.add_row(Relation::kLe, 1.0);
      row[f] = 1.0;
    }
  }
}

bool RegionLp::vertex(const std::vector<double>& grad, bool first,
                      std::vector<double>& v) {
  if (first) fresh_lp(/*extra_vars=*/0);
  problem_.objective.assign(static_cast<std::size_t>(problem_.num_vars), 0.0);
  for (int f = 0; f < flows_; ++f)
    problem_.objective[static_cast<std::size_t>(f)] =
        grad[static_cast<std::size_t>(f)];
  LpSolution sol = solve_lp(first ? LpStart::kFirst : LpStart::kResolve);
  vertex_ok_ = sol.status == LpStatus::kOptimal;
  if (vertex_ok_) v = std::move(sol.x);
  return vertex_ok_;
}

double region_scale(double max_capacity, double scale_override) {
  if (scale_override > 0.0) return scale_override;
  return max_capacity > 0.0 ? max_capacity : 1.0;
}

OptimizerResult water_fill(RegionLp& region) {
  const int flows = region.flows();
  std::vector<bool> fixed(static_cast<std::size_t>(flows), false);
  std::vector<double> level(static_cast<std::size_t>(flows), 0.0);
  std::vector<double> duals;

  for (int round = 0; round < flows; ++round) {
    // Maximize t with y_f >= t for unfixed flows, y_f == level for fixed.
    LpProblem& lp = region.fresh_lp(/*extra_vars=*/1);
    const int t_var = lp.num_vars - 1;
    const int first_flow_row = lp.num_constraints();
    lp.objective[static_cast<std::size_t>(t_var)] = 1.0;
    for (int f = 0; f < flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) {
        double* row =
            lp.add_row(Relation::kEq, level[static_cast<std::size_t>(f)]);
        row[f] = 1.0;
      } else {
        double* row = lp.add_row(Relation::kGe, 0.0);
        row[f] = 1.0;
        row[t_var] = -1.0;
      }
    }
    const LpSolution sol = region.solve_lp(LpStart::kCold);
    if (sol.status != LpStatus::kOptimal) break;
    // Columns a pricing oracle admits mid-solve append after t_var, so its
    // index from build time stays valid against the grown solution.
    const double t = sol.x[static_cast<std::size_t>(t_var)];

    // Fix the flows the t-LP's duals prove capped at t. With lambda_f =
    // -dual of row y_f - t >= 0 (tightening the row lowers t, so the dual
    // is <= 0), sum_f lambda_f y_f <= t over the region with the fixed
    // levels held, and sum_f lambda_f >= 1 (t's reduced cost), so no flow
    // with lambda_f > 0 can rise above t while the others stay >= t — and
    // at least one such flow exists. The bound holds only for duals that
    // certify the whole region.
    bool progressed = false;
    if (region.region_duals(duals)) {
      for (int f = 0; f < flows; ++f) {
        if (fixed[static_cast<std::size_t>(f)]) continue;
        if (duals[static_cast<std::size_t>(first_flow_row + f)] <
            -kBottleneckDual) {
          fixed[static_cast<std::size_t>(f)] = true;
          level[static_cast<std::size_t>(f)] = t;
          progressed = true;
        }
      }
    }

    // Test the rest by pushing each one above t while the others stay >= t.
    // Consecutive push problems are identical until a flow gets fixed, so
    // the problem is built once per segment, only the objective entry
    // moves between flows, and every solve after the segment's first
    // warm-starts from the previous optimum.
    bool push_stale = true;
    int prev_obj_flow = -1;
    LpProblem* push = nullptr;
    for (int f = 0; f < flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) continue;
      if (push_stale) {
        push = &region.fresh_lp(/*extra_vars=*/0);
        for (int g = 0; g < flows; ++g) {
          if (fixed[static_cast<std::size_t>(g)]) {
            double* row = push->add_row(Relation::kEq,
                                        level[static_cast<std::size_t>(g)]);
            row[g] = 1.0;
          } else {
            double* row = push->add_row(Relation::kGe, t);
            row[g] = 1.0;
          }
        }
        prev_obj_flow = -1;
      }
      if (prev_obj_flow >= 0)
        push->objective[static_cast<std::size_t>(prev_obj_flow)] = 0.0;
      push->objective[static_cast<std::size_t>(f)] = 1.0;
      prev_obj_flow = f;
      const LpSolution up = region.solve_lp(push_stale ? LpStart::kCold
                                                       : LpStart::kResolve);
      push_stale = false;
      const double reach = up.status == LpStatus::kOptimal ? up.objective : t;
      if (reach <= t + 1e-7) {
        fixed[static_cast<std::size_t>(f)] = true;
        level[static_cast<std::size_t>(f)] = t;
        progressed = true;
        push_stale = true;  // the next push sees a new Eq row
      }
    }
    if (!progressed) {
      // Numerical corner: freeze everything at t.
      for (int f = 0; f < flows; ++f) {
        if (!fixed[static_cast<std::size_t>(f)]) {
          fixed[static_cast<std::size_t>(f)] = true;
          level[static_cast<std::size_t>(f)] = t;
        }
      }
    }
    if (std::all_of(fixed.begin(), fixed.end(), [](bool b) { return b; })) {
      // This t-LP's point has every flow >= its level, so its schedule
      // weights carry the levels. Columns a pricing oracle admitted
      // mid-solve sit after t_var.
      std::vector<double> weights(sol.x.begin() + flows, sol.x.end());
      weights.erase(weights.begin() + (t_var - flows));
      return levels_result(level, region.scale(), std::move(weights));
    }
  }

  // A t-LP failed: solve with every level reached so far pinned to recover
  // the schedule weights.
  LpProblem& lp = region.fresh_lp(/*extra_vars=*/0);
  for (int f = 0; f < flows; ++f) {
    double* row = lp.add_row(Relation::kGe,
                             level[static_cast<std::size_t>(f)] * (1.0 - 1e-9));
    row[f] = 1.0;
  }
  const LpSolution sol = region.solve_lp(LpStart::kCold);
  if (sol.status != LpStatus::kOptimal) return OptimizerResult{};
  return levels_result(level, region.scale(),
                       {sol.x.begin() + flows, sol.x.end()});
}

OptimizerResult frank_wolfe(LinearOracle& oracle, const OptimizerResult& start,
                            double scale, const OptimizerConfig& cfg) {
  const AlphaFairUtility util(
      cfg.objective == Objective::kProportionalFair ? 1.0 : cfg.alpha, 1e-6);
  const int flows = static_cast<int>(start.y.size());

  // The iterate: scaled flow rates, then the start's schedule weights. It
  // grows when the oracle's vertex does (an admitted column enters at
  // weight 0, which changes nothing retroactively).
  std::vector<double> z(start.y.size() + start.alpha_weights.size(), 0.0);
  for (int f = 0; f < flows; ++f)
    z[static_cast<std::size_t>(f)] =
        std::max(start.y[static_cast<std::size_t>(f)] / scale, 1e-6);
  std::copy(start.alpha_weights.begin(), start.alpha_weights.end(),
            z.begin() + flows);

  std::vector<double> grad(static_cast<std::size_t>(flows), 0.0);
  std::vector<double> v;  // the oracle's vertex
  int iter = 0;
  for (; iter < cfg.fw_iterations; ++iter) {
    for (int f = 0; f < flows; ++f)
      grad[static_cast<std::size_t>(f)] =
          util.gradient(z[static_cast<std::size_t>(f)]);
    if (!oracle.vertex(grad, /*first=*/iter == 0, v)) break;
    if (z.size() < v.size()) z.resize(v.size(), 0.0);

    // FW gap (scaled): grad . (v - z).
    double gap = 0.0;
    for (int f = 0; f < flows; ++f)
      gap += grad[static_cast<std::size_t>(f)] *
             (v[static_cast<std::size_t>(f)] - z[static_cast<std::size_t>(f)]);
    if (gap <= cfg.tolerance * (std::abs(utility_sum(util, z, flows)) + 1.0))
      break;

    const double gamma = line_search(util, z, v, flows);
    for (std::size_t j = 0; j < z.size(); ++j)
      z[j] = (1.0 - gamma) * z[j] + gamma * v[j];
  }
  oracle.finish();

  OptimizerResult result;
  result.ok = true;
  result.iterations = iter;
  result.y.resize(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f)
    result.y[static_cast<std::size_t>(f)] =
        z[static_cast<std::size_t>(f)] * scale;
  result.alpha_weights.assign(z.begin() + flows, z.end());
  result.objective_value = utility_sum(util, z, flows);
  return result;
}

OptimizerResult optimize(RegionLp& region, const OptimizerConfig& cfg) {
  switch (cfg.objective) {
    case Objective::kMaxThroughput:
      return max_throughput(region);
    case Objective::kMaxMin:
      return water_fill(region);
    case Objective::kProportionalFair:
    case Objective::kAlphaFair:
      break;
  }
  // Interior-ish start: the max-min point keeps every flow positive.
  const OptimizerResult start = water_fill(region);
  if (!start.ok) return start;
  return frank_wolfe(region, start, region.scale(), cfg);
}

}  // namespace meshopt
