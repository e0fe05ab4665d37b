#pragma once
// DecomposedPlanner — city-scale planning via conflict-graph decomposition
// (see ARCHITECTURE.md, "Decomposition").
//
// MIS enumeration and the extreme-point/column spaces are exponential in
// the largest CONNECTED interference neighborhood, not in the network: the
// maximal independent sets of a disconnected conflict graph are the
// Cartesian products of the components' sets (K_global = prod_c K_c), and
// conv(A x B) = conv(A) x conv(B), so the feasible rate region factors
// exactly across components. A city mesh of gateway clusters bridged by a
// few weak links is therefore mostly wasted global work — the monolithic
// planner enumerates (or prices against) a product space whose factors
// never interact.
//
// This planner splits the round along that structure:
//   1. partition the snapshot's links into interference components
//      (ConflictGraph::connected_components), cached with per-component
//      Planner instances keyed by component sub-fingerprints
//      (MeasurementSnapshot::component_fingerprint) — churn in one gateway
//      cluster never invalidates another cluster's warm model or
//      column-generation state;
//   2. plan each component against its own sub-snapshot, with every
//      per-component solve normalized by the GLOBAL capacity scale
//      (OptimizerInput/ColumnGenInput::scale_override) so scaled iterates
//      and stop thresholds keep the monolithic solve's semantics;
//   3. stitch the per-component results into one RatePlan with the
//      monolithic objective formulas and loss-compensation tail.
//
// Objective separability (the "Decomposition" table in ARCHITECTURE.md):
//   * kMaxThroughput — separable sum; fully independent component solves.
//   * kMaxMin — lexicographic max-min over a product region with disjoint
//     flow sets equals per-component max-min; the components couple only
//     through the reported objective (the global min of the stitched y).
//   * kProportionalFair / kAlphaFair — the OBJECTIVE is separable but the
//     monolithic Frank–Wolfe trajectory is not: its line search couples
//     all flows through one step size. The decomposed solve therefore
//     runs the planning kernel's one frank_wolfe (opt/plan_kernel.h) over
//     the global iterate, against the product of the components' regions
//     as its linear oracle: each component binds its region — the full
//     extreme-point LP (exact tier) or its entry-owned column-generation
//     master (fast tier) — and answers for its own flows.
//
// Determinism contract: a decomposed plan is a deterministic function of
// (snapshot, flows, config, partition state), bit-identical across pool
// thread counts and repeated runs (phase jobs touch disjoint per-component
// slots; all cross-component arithmetic runs on the calling thread in
// component order). Versus the monolithic solve on separable instances the
// stitched plan matches in objective to <= 1e-9 relative and in active-flow
// support (LP pivot order differs per component, so y agrees to LP
// precision, not bit-for-bit) — pinned by tests/test_decompose.cpp.
//
// Fallbacks (counted in DecomposeStats): rounds whose conflict graph is
// connected (fewer components than DecomposeConfig::min_components), whose
// flows span components or cross no modeled link, or with degenerate
// inputs plan through an ordinary monolithic Planner instead.
//
// Thread-safety: single-owner, like Planner. The optional SweepRunner is
// used for per-component phase jobs; pass nullptr when plan() itself runs
// inside a pool job (SweepRunner is not re-entrant) — ControllerFleet and
// PlanService embed exactly that configuration.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "model/conflict_graph.h"
#include "opt/column_gen.h"
#include "opt/network_optimizer.h"
#include "sweep/sweep_runner.h"

namespace meshopt {

/// Tuning knobs of the decomposition tier.
struct DecomposeConfig {
  /// Fall back to the monolithic planner when the conflict graph yields
  /// fewer components than this (a connected graph gains nothing from the
  /// decomposition machinery).
  int min_components = 2;
  /// Planner LRU entries per component slot.
  std::size_t component_cache = 4;
  /// Planner LRU entries of the monolithic fallback planner.
  std::size_t fallback_cache = 8;

  friend bool operator==(const DecomposeConfig&,
                         const DecomposeConfig&) = default;
};

/// Cumulative counters across a DecomposedPlanner's lifetime.
struct DecomposeStats {
  std::uint64_t rounds = 0;             ///< plan() calls
  std::uint64_t decomposed_rounds = 0;  ///< rounds planned per component
  std::uint64_t fallback_rounds = 0;    ///< rounds planned monolithically
  std::uint64_t fallback_connected = 0;  ///< fallbacks: too few components
  std::uint64_t fallback_cross_component = 0;  ///< fallbacks: flow spans
                                               ///< components / no links
  std::uint64_t fallback_degenerate = 0;  ///< fallbacks: empty flows/links
  std::uint64_t components_planned = 0;   ///< active components, summed
                                          ///< over decomposed rounds
  std::uint64_t partition_rebuilds = 0;   ///< component slots torn down by
                                          ///< a changed partition
};

/// Per-component planning front end; plug-compatible with Planner::plan.
class DecomposedPlanner {
 public:
  /// `pool`, when non-null, runs per-component model/solve phases as pool
  /// jobs (NOT owned; must outlive the planner). Pass nullptr from inside
  /// pool jobs — SweepRunner is not re-entrant.
  explicit DecomposedPlanner(DecomposeConfig cfg = {},
                             SweepRunner* pool = nullptr)
      : cfg_(cfg), pool_(pool), fallback_(cfg.fallback_cache) {}

  /// Plan one round, decomposing when the interference graph separates
  /// and every flow stays inside one component; otherwise fall back to a
  /// monolithic solve (same signature and semantics as Planner::plan, so
  /// replay/serving layers can swap the two). `cacheable = false`
  /// propagates to every component planner (repaired snapshots never
  /// become resident cache entries, as in Planner).
  [[nodiscard]] RatePlan plan(const MeasurementSnapshot& snap,
                              InterferenceModelKind kind,
                              const std::vector<FlowSpec>& flows,
                              const PlanConfig& cfg,
                              std::size_t mis_cap = kMisCap,
                              bool cacheable = true);

  [[nodiscard]] const DecomposeStats& stats() const { return stats_; }
  /// Value copy of the counters (the serving layer diffs two snapshots).
  [[nodiscard]] DecomposeStats stats_snapshot() const { return stats_; }

  /// Aggregated Planner counters: the fallback planner plus every
  /// component slot, summed — the drop-in replacement for
  /// Planner::stats_snapshot() in serving metrics.
  [[nodiscard]] PlannerStats planner_stats_snapshot() const;

  /// The most recent decomposed round's partition (empty before one).
  [[nodiscard]] const ComponentPartition& partition() const {
    return partition_;
  }
  /// Number of component slots currently held.
  [[nodiscard]] int components() const {
    return static_cast<int>(slots_.size());
  }
  /// Cache counters of one component's private planner.
  /// @throws std::out_of_range on an invalid component index.
  [[nodiscard]] const PlannerStats& component_planner_stats(int c) const;

  /// Drop all partition state, component slots, and counters.
  void clear();

  /// Attach a trace recorder (borrowed; nullptr detaches). Fallback rounds
  /// emit a kComponent event naming the reason (degenerate / connected /
  /// cross-component) and plan through the observed monolithic planner;
  /// decomposed rounds emit one kComponentSolve span per active component
  /// (a = component id, b = (links << 32) | flows) in component order on
  /// the calling thread, and concave fast-tier rounds add one kPricing
  /// event per active component the same way (warm/cold code, a = pricing
  /// rounds, b = columns admitted). Component-slot planners (cache/model/
  /// pricing records) are observed only when phase A runs serially — pool
  /// jobs must not share the single-owner recorder, so a pooled round
  /// keeps the caller-side records but drops the slot-level detail.
  void set_observer(TraceRecorder* obs) {
    obs_ = obs;
    fallback_.set_observer(obs);
  }
  [[nodiscard]] TraceRecorder* observer() const { return obs_; }

 private:
  /// One interference component's private planning state. Slots live as
  /// long as the partition's membership is unchanged, so their Planner
  /// caches and fast-tier warm state persist across rounds — including
  /// rounds where OTHER components churned.
  struct Slot {
    std::vector<int> members;  ///< global link ids, ascending
    Planner planner;
    NetworkOptimizer exact;  ///< exact-tier solver and region

    Slot(std::vector<int> m, std::size_t cache)
        : members(std::move(m)), planner(cache) {}
  };

  RatePlan fallback_plan(const MeasurementSnapshot& snap,
                         InterferenceModelKind kind,
                         const std::vector<FlowSpec>& flows,
                         const PlanConfig& cfg, std::size_t mis_cap,
                         bool cacheable, std::uint64_t DecomposeStats::*why);

  DecomposeConfig cfg_;
  SweepRunner* pool_ = nullptr;  ///< not owned; may be null
  Planner fallback_;
  ComponentPartition partition_;
  std::vector<std::unique_ptr<Slot>> slots_;
  DecomposeStats stats_;
  TraceRecorder* obs_ = nullptr;  ///< borrowed; see set_observer()
};

}  // namespace meshopt
