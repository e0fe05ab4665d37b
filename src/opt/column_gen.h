#pragma once
// Column-generation plan tier: the PlanTier::kFast path.
//
// The exact tier materializes every maximal independent set of the
// conflict graph as an extreme-point column before solving (K columns; at
// MIS/80-class topologies K ~ 5.5k and the LP/Frank–Wolfe plan stage
// dominates a replayed round by 2-3 orders of magnitude over the cached
// model stage). Column generation solves the SAME master problem over a
// small working set of MIS columns and prices new columns in on demand:
// the pricing oracle is an exact max-weight independent set search over
// the conflict graph, weighted by the master's dual prices. Because the
// oracle is exact, termination (no column with positive reduced cost)
// certifies optimality over the FULL rate region without ever enumerating
// K columns — the structure Leith et al. ("Max-min Fairness in 802.11
// Mesh Networks", PAPERS.md) exploit to sidestep extreme-point
// enumeration.
//
// Determinism contract (ARCHITECTURE.md, "Plan tiers"):
//   * kExact — today's path, bit-identical across thread counts, replay
//     vs live, cached vs cold. Unchanged by this module.
//   * kFast — this module. Pivot order differs from the exact tier, so
//     results are NOT bit-identical to kExact; instead the objective is
//     gap-bounded: relative gap <= 1e-6 vs the exact tier, CI-pinned by
//     tests/test_plan_tiers.cpp. The fast tier is still a deterministic
//     function of its inputs plus its carried warm state (the working
//     column set and basis reused across rounds), so repeated runs and
//     different fleet thread counts produce bit-identical plans for a
//     fixed replay configuration.

#include <cstdint>
#include <functional>
#include <vector>

#include "model/conflict_graph.h"
#include "opt/plan_kernel.h"
#include "opt/simplex.h"
#include "util/dense_matrix.h"

namespace meshopt {

class TraceRecorder;

/// Which planning path computes a RatePlan (see ARCHITECTURE.md, "Plan
/// tiers"). Selected via PlanConfig::tier; surfaced in RatePlan::tier.
enum class PlanTier : std::uint8_t {
  kExact,  ///< full-K extreme-point LP/FW path; bit-identical reference
  kFast,   ///< column generation; objective gap-bounded vs kExact
};

/// Tuning knobs for the column-generation loop. The defaults are the
/// CI-pinned configuration; the differential harness asserts the <= 1e-6
/// relative objective gap under exactly these values.
struct ColumnGenConfig {
  /// A column is admitted only when its reduced cost exceeds this (in the
  /// master's normalized capacity units). Must stay well above the
  /// simplex's internal 1e-9 epsilon-cutoff semantics would admit noise
  /// columns and stall termination.
  double pricing_tol = 1e-7;
  /// Safety valve on pricing rounds per master solve; the loop normally
  /// terminates by proof of optimality long before this.
  int max_pricing_rounds = 256;
  /// Branch-and-bound node budget per pricing-oracle call. Exceeding it
  /// truncates the search (stats().oracle_truncated) and the admitted
  /// column may be suboptimal — the gap guarantee then degrades to
  /// best-effort. Testbed-scale graphs stay orders of magnitude below.
  std::uint64_t mwis_node_cap = std::uint64_t{1} << 22;
};

/// Cumulative counters across a ColumnGenOptimizer's lifetime (warm state
/// spans solves, so the interesting ratios — columns admitted per solve,
/// pricing rounds per solve — are cross-round).
struct ColumnGenStats {
  std::uint64_t solves = 0;             ///< solve() calls
  std::uint64_t master_solves = 0;      ///< restricted-master LP solves
  std::uint64_t pricing_rounds = 0;     ///< pricing-oracle invocations
  std::uint64_t columns_seeded = 0;     ///< greedy seed columns
  std::uint64_t columns_admitted = 0;   ///< columns priced in by the oracle
  std::uint64_t warm_starts = 0;        ///< masters started from a carried basis
  std::uint64_t oracle_nodes = 0;       ///< MWIS branch-and-bound nodes
  std::uint64_t oracle_truncated = 0;   ///< oracle calls that hit mwis_node_cap
};

/// One pricing-oracle admission, reported through the on_admit test hook.
struct ColumnAdmission {
  int pricing_round = 0;     ///< 1-based pricing round within the solve() call
  double reduced_cost = 0.0; ///< normalized units; > pricing_tol at admission
  std::vector<int> links;    ///< member links of the admitted column, ascending
};

/// Inputs to one fast-tier optimization round. The conflict graph replaces
/// the exact tier's K x L extreme-point matrix: columns are generated from
/// it on demand instead of being materialized up front.
struct ColumnGenInput {
  /// L x S routing matrix: routing(l, s) = 1 if flow s crosses link l.
  DenseMatrix routing;
  /// Conflict graph over the L links; NOT owned, must outlive the solve.
  const ConflictGraph* conflicts = nullptr;
  /// Per-link capacities in bits/s, length L, aligned with the graph.
  std::vector<double> capacities;
  /// When > 0, normalize capacities by this instead of the input's own
  /// max capacity — the decomposition tier passes the global scale so
  /// per-component masters share the monolithic solve's scaled units
  /// (see OptimizerInput::scale_override). 0 (default) self-scales.
  double scale_override = 0.0;
};

/// Exact max-weight independent set over a conflict graph: branch and
/// bound on the packed bitset adjacency with a greedy weight-sum bound.
/// Vertices with weight <= 0 never help and are excluded up front; the
/// returned set (packed into `bits`, row_words() words) is therefore not
/// necessarily maximal — extend_to_maximal_independent_set() for that.
/// Deterministic: identical inputs give identical bits. Returns the set's
/// weight. `node_cap` bounds the search; on truncation `*truncated` is set
/// and the best set found so far is returned.
double max_weight_independent_set(const ConflictGraph& graph,
                                  const std::vector<double>& weights,
                                  std::vector<std::uint64_t>& bits,
                                  std::uint64_t node_cap = std::uint64_t{1}
                                                           << 22,
                                  std::uint64_t* nodes_visited = nullptr,
                                  bool* truncated = nullptr);

/// Grow `bits` to a maximal independent set by admitting every compatible
/// vertex in ascending index order (deterministic; mirrors the canonical
/// orientation of the exact tier's enumeration). @pre bits is independent.
void extend_to_maximal_independent_set(const ConflictGraph& graph,
                                       std::vector<std::uint64_t>& bits);

/// Reusable column-generation solver for the paper's utility maximization
/// — the fast-tier twin of NetworkOptimizer, same objectives, same result
/// semantics, and the fast tier's rate region for the planning kernel
/// (opt/plan_kernel.h): every LP it solves is a restricted master over
/// the working column set, priced to optimality over the full region.
/// Persistent warm state carries across solve() calls: the working column
/// set survives verbatim and the final optimal basis is re-used when the
/// next solve's first master has the same shape, so a planner replaying a
/// drifting-capacity trace pays the pricing oracle mostly in round one.
/// reset() drops all warm state (a topology change must: columns are only
/// meaningful against their conflict graph — the planner keys instances
/// by topology entry, see core/planner.h).
///
/// Not thread-safe: one instance per thread.
class ColumnGenOptimizer final : public RegionLp {
 public:
  explicit ColumnGenOptimizer(OptimizerConfig config = {},
                              ColumnGenConfig cg = {})
      : cfg_(config), cg_(cg) {}

  [[nodiscard]] const OptimizerConfig& config() const { return cfg_; }
  OptimizerConfig& config() { return cfg_; }

  /// Solve one round: bind(input) then optimize(*this, config()). Same
  /// contract as NetworkOptimizer::solve, with the rate region given
  /// implicitly by (conflicts, capacities): result.alpha_weights has one
  /// entry per WORKING-SET column (admission order; result.columns_used of
  /// them), not per extreme point.
  /// @pre input.conflicts != nullptr, conflicts->size() == routing.rows()
  ///      == capacities.size(); mismatches throw std::invalid_argument.
  ///      An empty dimension returns ok == false.
  [[nodiscard]] OptimizerResult solve(const ColumnGenInput& input);

  /// Start a round over `input`'s region for the kernel functions: seeds
  /// or keeps the working set and counts a solve. The decomposition tier
  /// runs its joint Frank–Wolfe (opt/decompose.h) over bound component
  /// regions. Same preconditions as solve(); returns false on an empty
  /// dimension. `input` must outlive every kernel call on this region.
  [[nodiscard]] bool bind(const ColumnGenInput& input);

  /// Drop all warm state: working columns, carried basis, stats keep
  /// accumulating. Required whenever the conflict graph changes identity
  /// (a different topology, not just drifted capacities).
  void reset();

  LpProblem& fresh_lp(int extra_vars) override;
  /// Solves the restricted master, then prices columns in until none has
  /// positive reduced cost. kFirst starts from the carried basis when its
  /// shape still fits.
  [[nodiscard]] LpSolution solve_lp(LpStart start) override;
  /// Certified only when the last solve_lp()'s pricing stopped because an
  /// untruncated oracle search found no column with positive reduced cost
  /// — not at max_pricing_rounds, nor on a re-derived column.
  [[nodiscard]] bool region_duals(std::vector<double>& out) const override;
  /// Carries the final vertex's basis into the next round.
  void finish() override;

  [[nodiscard]] const MisRowSet& columns() const { return columns_; }
  [[nodiscard]] const ColumnGenStats& stats() const { return stats_; }

  /// Test hook: observes every oracle admission (property/fuzz tests
  /// assert independence, maximality, positive reduced cost, and
  /// no-duplicate-per-solve through this). Leave empty in production.
  std::function<void(const ColumnAdmission&)> on_admit;

  /// Attach a trace recorder (borrowed; nullptr detaches). Each solve()
  /// then emits one kPricing span under the caller's ambient context:
  /// warm/cold basis as the code, pricing rounds and columns admitted as
  /// the payload. The planner forwards its recorder to the warm state it
  /// owns (core/planner.h), so fast-tier rounds report automatically.
  void set_observer(TraceRecorder* obs) { obs_ = obs; }

 private:
  void seed_columns();
  [[nodiscard]] bool has_column(const std::vector<std::uint64_t>& bits) const;
  void append_column(const std::vector<std::uint64_t>& bits);
  [[nodiscard]] bool price_one();

  OptimizerConfig cfg_;
  ColumnGenConfig cg_;
  LpSolver lp_;  ///< shared simplex workspace across all solves
  const ColumnGenInput* in_ = nullptr;  ///< the bound input
  int links_ = 0;                       ///< of the bound input

  MisRowSet columns_;       ///< working set, admission order (warm state)
  std::vector<int> warm_basis_;  ///< optimal basis of the last final master
  int warm_vars_ = -1;           ///< shape guard for warm_basis_
  int warm_rows_ = -1;

  ColumnGenStats stats_;
  TraceRecorder* obs_ = nullptr;  ///< borrowed; see set_observer()
  int solve_pricing_rounds_ = 0;  ///< pricing rounds since bind()
  bool certified_ = false;  ///< the last solve_lp() priced to a proof

  // Per-solve scratch, reused across calls.
  std::vector<double> duals_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> cand_bits_;
};

}  // namespace meshopt
