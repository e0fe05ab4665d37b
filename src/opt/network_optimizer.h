#pragma once
// The exact plan tier: the paper's optimization problem (Section 6.1) over
// the full-K extreme-point rate region, solved by the planning kernel
// (opt/plan_kernel.h) — simplex for max throughput, water-filling LPs for
// max-min fairness (the alpha -> infinity end of the family; an extension
// beyond the paper's evaluated objectives), and Frank–Wolfe for the
// strictly concave alpha-fair objectives.
//
// All matrices are flat row-major DenseMatrix: the routing matrix is
// L x S, the extreme-point matrix K x L, and both flow into the LP
// constraint matrix without per-row heap allocations.

#include <vector>

#include "opt/plan_kernel.h"
#include "opt/simplex.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Inputs to one optimization round.
///
/// Unit convention: extreme-point entries are link rates in bits/s (the
/// controller feeds MAC-layer capacity estimates, Eq. 6 of the paper);
/// routing entries are dimensionless path-incidence indicators (R[l][s] = 1
/// iff flow s crosses link l). Outputs come back in the same bits/s scale.
struct OptimizerInput {
  /// L x S routing matrix: routing(l, s) = 1 if flow s crosses link l.
  DenseMatrix routing;
  /// K x L extreme points of the feasible rate region, in bits/s. Build
  /// with build_extreme_point_matrix() to stream ConflictGraph bitset
  /// rows straight into this matrix.
  DenseMatrix extreme_points;
  /// When > 0, normalize capacities by this instead of the input's own
  /// max extreme-point entry. The decomposition tier (opt/decompose.h)
  /// passes the GLOBAL scale into each per-component solve so scaled
  /// iterates, tolerances, and stop thresholds have exactly the
  /// semantics of the monolithic solve. 0 (default) keeps the
  /// self-scaling behavior.
  double scale_override = 0.0;
};

/// Reusable solver for the paper's utility maximization over a full-K
/// extreme-point region.
///
/// Owns the LP workspace (constraint matrix + simplex tableau), so a
/// controller calling solve() every probe round — or Frank–Wolfe issuing
/// hundreds of LP-oracle calls per solve — re-uses one set of buffers
/// instead of reallocating per solve. Not thread-safe: use one instance
/// per thread (SweepRunner jobs each construct their own).
class NetworkOptimizer final : public RegionLp {
 public:
  explicit NetworkOptimizer(OptimizerConfig config = {}) : cfg_(config) {}

  [[nodiscard]] const OptimizerConfig& config() const { return cfg_; }
  OptimizerConfig& config() { return cfg_; }

  /// Solve one round over the given rate region and routing: bind(input)
  /// then optimize(*this, config()).
  ///
  /// @pre  input.routing is L x S with L, S >= 1 and entries >= 0;
  ///       input.extreme_points is K x L with K >= 1 and entries >= 0
  ///       (bits/s). A shape mismatch between the two matrices throws
  ///       std::invalid_argument; an empty dimension returns ok == false.
  /// @post on ok: result.y.size() == S with y >= 0 (bits/s);
  ///       result.alpha_weights.size() == K, weights >= 0 and summing to
  ///       1; the induced link load R.y is feasible:
  ///       (R.y)_l <= sum_k alpha_k c_kl + eps for every link l.
  /// @post solve() does not retain references into `input`; the instance
  ///       may be reused with different shapes.
  [[nodiscard]] OptimizerResult solve(const OptimizerInput& input);

  /// Make `input`'s region the one the kernel functions solve over. Same
  /// preconditions as solve(); returns false on an empty dimension.
  /// `input` must outlive every kernel call on this region.
  [[nodiscard]] bool bind(const OptimizerInput& input);

  LpProblem& fresh_lp(int extra_vars) override;
  [[nodiscard]] LpSolution solve_lp(LpStart start) override;
  /// The LP holds every extreme point, so its duals always certify.
  [[nodiscard]] bool region_duals(std::vector<double>& out) const override {
    solver_.duals(out);
    return true;
  }

 private:
  OptimizerConfig cfg_;
  LpSolver solver_;  ///< shared simplex workspace across all internal solves
  const OptimizerInput* in_ = nullptr;  ///< the bound input
};

/// One-shot convenience wrapper: NetworkOptimizer(config).solve(input).
[[nodiscard]] OptimizerResult optimize_rates(const OptimizerInput& input,
                                             const OptimizerConfig& config);

/// Scale factor the controller applies to TCP flows so the reverse-path
/// ACKs get air time (paper Section 6.2, following [21]):
/// (1 - (A+H)/(A+H+D)) with A=TCP ACK, H=IP/TCP headers, D=payload, all
/// in bytes. Dimensionless, in (0, 1).
[[nodiscard]] double tcp_ack_airtime_factor(int payload_bytes = 1460,
                                            int header_bytes = 40,
                                            int ack_bytes = 40);

}  // namespace meshopt
