#pragma once
// The concave-planning kernel. Every plan tier maximizes a utility over the
// rate region spanned by independent-set schedules (paper Section 6.1):
//
//   maximize   sum_s U(y_s)
//   subject to sum_s R_ls y_s <= sum_k alpha_k c_kl    for every link l
//              sum_k alpha_k = 1,  alpha >= 0,  y >= 0
//
// and each algorithm for it is written here once, against a linear oracle
// over the region:
//   * max throughput — alpha = 0, one linear maximization;
//   * water_fill — lexicographic max-min (alpha -> infinity) by iterated
//     water-filling LPs;
//   * frank_wolfe — the strictly concave alpha-fair objectives: max-min
//     start, gradient oracle, duality-gap stop, golden-section line search.
//
// Three oracles plug in: the exact tier's full-K extreme-point LP
// (NetworkOptimizer), the fast tier's priced MIS columns with their warm
// columns and basis (ColumnGenOptimizer), and the decomposed tier's product
// of per-component oracles (opt/decompose.cpp). Leith et al. (PAPERS.md)
// treat max-min and proportional fairness as objectives over one 802.11
// rate region in the same way.
//
// Units: the kernel works in scaled units — capacities and rates divided by
// the region's scale, so the LPs stay well conditioned — and reports y in
// bits/s (scaled y times the scale).

#include <cstdint>
#include <vector>

#include "opt/simplex.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Which point of the alpha-fair utility family to optimize.
enum class Objective : std::uint8_t {
  kMaxThroughput,      ///< alpha = 0: maximize sum of flow rates
  kProportionalFair,   ///< alpha = 1: maximize sum of log(y_s)
  kAlphaFair,          ///< arbitrary alpha (OptimizerConfig::alpha)
  kMaxMin,             ///< alpha -> infinity: lexicographic max-min
};

/// Tuning knobs for NetworkOptimizer / optimize_rates.
struct OptimizerConfig {
  Objective objective = Objective::kProportionalFair;
  double alpha = 1.0;       ///< exponent used when objective == kAlphaFair
  int fw_iterations = 300;  ///< Frank–Wolfe iteration cap
  double tolerance = 1e-4;  ///< relative FW duality-gap stop criterion
};

/// One optimization round's output.
struct OptimizerResult {
  bool ok = false;                    ///< false: empty/degenerate input or
                                      ///< infeasible LP
  std::vector<double> y;              ///< per-flow rates (bits/s), length S
  std::vector<double> alpha_weights;  ///< convex weights over extreme
                                      ///< points, length K, sum to 1
  double objective_value = 0.0;       ///< attained utility (objective units)
  int iterations = 0;                 ///< Frank–Wolfe iterations used
  int columns_used = 0;    ///< column generation only: working-set size the
                           ///< restricted master finished with (0 for the
                           ///< exact full-K solver)
  int pricing_rounds = 0;  ///< column generation only: pricing-oracle
                           ///< invocations across the solve
};

/// How a region LP solve starts.
enum class LpStart : std::uint8_t {
  kCold,     ///< two-phase solve from scratch
  kFirst,    ///< the first linear maximization of a solve: cold on the
             ///< exact tier, from the previous round's carried basis on the
             ///< fast tier
  kResolve,  ///< new objective over the previous solve's constraints
};

/// Linear maximization over a rate region, in scaled units.
class LinearOracle {
 public:
  /// Write the region vertex v maximizing grad . v, with `grad` one entry
  /// per flow: the flow rates first, then any schedule weights the oracle
  /// keeps (their count may grow from call to call). Returns false when
  /// the LP fails. `first` marks the first call of a solve.
  [[nodiscard]] virtual bool vertex(const std::vector<double>& grad,
                                    bool first, std::vector<double>& v) = 0;

  /// The solve is over and the last vertex() call was its final oracle.
  virtual void finish() {}

 protected:
  ~LinearOracle() = default;  ///< never owned through the interface
};

/// A rate region given as one LP over (y, schedule weights[, extras]):
/// per-link capacity rows, the convexity row, and unit caps on flows that
/// cross no modeled link — the exact tier's full-K matrix or the fast
/// tier's working column set. Its row duals certify bounds over the whole
/// region when the LP covers it (exact) or its pricing proved that no
/// left-out column improves it (fast); water-filling fixes bottleneck
/// flows from them.
class RegionLp : public LinearOracle {
 public:
  [[nodiscard]] int flows() const { return flows_; }
  /// Capacities are divided by this.
  [[nodiscard]] double scale() const { return scale_; }

  /// Reset the LP to the bare region plus `extra_vars` trailing zero-cost
  /// variables; the caller adds rows and the objective.
  virtual LpProblem& fresh_lp(int extra_vars) = 0;
  /// Solve the current LP.
  [[nodiscard]] virtual LpSolution solve_lp(LpStart start) = 0;
  /// Write the row duals of the last optimal solve_lp() into `out`
  /// (LpSolver::duals order and signs) and return whether they certify the
  /// whole region: false when that LP ran over part of the region and
  /// stopped without proof that no left-out schedule improves it.
  [[nodiscard]] virtual bool region_duals(std::vector<double>& out) const = 0;

  /// Maximizes over fresh_lp(0), built on the `first` call.
  [[nodiscard]] bool vertex(const std::vector<double>& grad, bool first,
                            std::vector<double>& v) override;

 protected:
  /// Reset problem_ to the region over `routing` (links x flows_) with
  /// `columns` schedule weights and `extra_vars` trailing variables: one Le
  /// row per link in link order holding its routing entries (the caller
  /// writes the link's column coefficients), the convexity row (index
  /// links), then unit caps on flows that cross no link.
  void build_region(const DenseMatrix& routing, int columns, int extra_vars);

  int flows_ = 0;
  double scale_ = 1.0;
  LpProblem problem_;       ///< the LP fresh_lp() builds and solve_lp() solves
  bool vertex_ok_ = false;  ///< the last vertex() solved to optimality
};

/// The capacity normalization of a region whose largest capacity is
/// `max_capacity`: `scale_override` when positive (the decomposition tier
/// passes the global scale into each component), else the max, else 1.
[[nodiscard]] double region_scale(double max_capacity, double scale_override);

/// Lexicographic max-min by water-filling: raise a common level t over the
/// unfixed flows, fix those that cannot rise above it, repeat. The t-LP's
/// certified duals name most of the flows capped at t; only flows with a
/// zero dual (or every unfixed flow, when the duals do not certify) get a
/// push LP that tries to raise them above t. The schedule weights are the
/// last t-LP's; only when a t-LP fails does one more LP, with the levels
/// reached so far pinned, recover them.
[[nodiscard]] OptimizerResult water_fill(RegionLp& region);

/// Frank–Wolfe for the strictly concave alpha-fair objectives (alpha from
/// cfg: 1 for kProportionalFair), started at `start` (y in bits/s, optional
/// schedule weights). Iteration 0 asks the oracle with first = true; the
/// loop stops at cfg.fw_iterations, at a relative duality gap of
/// cfg.tolerance, or when the oracle fails, and calls oracle.finish().
[[nodiscard]] OptimizerResult frank_wolfe(LinearOracle& oracle,
                                          const OptimizerResult& start,
                                          double scale,
                                          const OptimizerConfig& cfg);

/// Solve cfg.objective over `region`: max throughput (the vertex at
/// gradient 1), water_fill, or frank_wolfe from the water-filled start.
[[nodiscard]] OptimizerResult optimize(RegionLp& region,
                                       const OptimizerConfig& cfg);

}  // namespace meshopt
