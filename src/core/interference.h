#pragma once
// InterferenceModel — stage 2 of the control plane's
// snapshot → model → plan pipeline (see ARCHITECTURE.md, "Control plane").
//
// Built from a MeasurementSnapshot alone, the model owns the conflict
// graph over the snapshot's links and the K×L extreme-point matrix of the
// feasible rate region (Eq. 4). It is a plain value: buildable off-line
// from a deserialized snapshot, copyable, and usable by any number of
// plan_rates() calls without a live Network.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/snapshot.h"
#include "model/conflict_graph.h"
#include "model/feasibility.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Which binary interference model stage 2 builds from a snapshot.
enum class InterferenceModelKind : std::uint8_t {
  kTwoHop,    ///< links conflict within two hops (paper Section 5.5)
  kLirTable,  ///< thresholded measured LIR table (paper Section 4.2)
};

/// The topology-dependent prefix of a model build: the conflict graph and
/// its enumerated MIS rows. Everything here is a pure function of the
/// snapshot's link identities, neighbor relation and LIR table — never of
/// the capacity estimates — so it stays valid (and cacheable, see
/// core/planner.h) for as long as the topology fingerprint is unchanged.
struct InterferenceTopology {
  InterferenceModelKind kind = InterferenceModelKind::kTwoHop;
  ConflictGraph conflicts{0};
  MisRowSet mis_rows;
};

/// Conflict graph + extreme points derived from one snapshot.
class InterferenceModel {
 public:
  /// Build the model of `kind` from `snap`.
  ///
  /// kTwoHop uses the snapshot's recorded neighbor relation; kLirTable
  /// thresholds the snapshot's LIR matrix at snap.lir_threshold. When
  /// kLirTable is requested but the snapshot carries no LIR table, the
  /// build falls back to kTwoHop (mirrors the controller's historical
  /// behavior); kind() reports the model actually built. `mis_cap` bounds
  /// the independent-set enumeration (safety valve, as elsewhere).
  ///
  /// Equivalent to from_topology(build_topology(snap, kind, mis_cap),
  /// snap.capacities()) — build() is literally that composition, so the
  /// cached two-stage path is bit-identical by construction.
  [[nodiscard]] static InterferenceModel build(const MeasurementSnapshot& snap,
                                               InterferenceModelKind kind,
                                               std::size_t mis_cap = kMisCap);

  /// Topology stage on its own: conflict graph + MIS row enumeration.
  /// This is the expensive half (Bron–Kerbosch, ~1 ms at MIS/80 scale —
  /// see BM_ReplayCachedModel); the planner caches its result keyed by
  /// the snapshot's topology_fingerprint().
  [[nodiscard]] static InterferenceTopology build_topology(
      const MeasurementSnapshot& snap, InterferenceModelKind kind,
      std::size_t mis_cap = kMisCap);

  /// Capacity stage: refill the extreme-point matrix from cached MIS rows
  /// and fresh capacity estimates (bits/s, in the topology's link order).
  /// @pre capacities.size() == topo.mis_rows.num_links(). The lvalue form
  /// copies the conflict graph (the caller keeps the topology — e.g. a
  /// planner cache entry); the rvalue form moves it (one-shot builds).
  [[nodiscard]] static InterferenceModel from_topology(
      const InterferenceTopology& topo, const std::vector<double>& capacities);
  [[nodiscard]] static InterferenceModel from_topology(
      InterferenceTopology&& topo, const std::vector<double>& capacities);

  /// The model actually built (see build() for the LIR fallback rule).
  [[nodiscard]] InterferenceModelKind kind() const { return kind_; }
  [[nodiscard]] int num_links() const { return conflicts_.size(); }
  /// Pairwise conflict relation over the snapshot's links.
  [[nodiscard]] const ConflictGraph& conflicts() const { return conflicts_; }
  /// K×L extreme points of the feasible rate region (bits/s), one row per
  /// maximal independent set, in enumeration order.
  [[nodiscard]] const DenseMatrix& extreme_points() const {
    return extreme_points_;
  }

  /// The feasible rate region over the already-built extreme points.
  /// Consumers that need feasibility checks alongside a model reuse this
  /// instead of re-enumerating MIS rows through build_extreme_point_matrix.
  [[nodiscard]] FeasibilityRegion region() const {
    return FeasibilityRegion(extreme_points_);
  }

 private:
  /// The planner refreshes a cached model's extreme points in place on a
  /// hit (refresh_extreme_point_matrix over the entry's MIS rows) instead
  /// of copying a freshly filled matrix every round.
  friend class Planner;

  InterferenceModel(InterferenceModelKind kind, ConflictGraph conflicts,
                    DenseMatrix extreme_points)
      : kind_(kind),
        conflicts_(std::move(conflicts)),
        extreme_points_(std::move(extreme_points)) {}

  InterferenceModelKind kind_;
  ConflictGraph conflicts_;
  DenseMatrix extreme_points_;
};

}  // namespace meshopt
