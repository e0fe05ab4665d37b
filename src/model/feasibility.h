#pragma once
// Convex feasibility-region model (paper Section 3).
//
// The region is the convex hull of K extreme points in link-rate space
// (L dimensions), closed downward (any rate vector dominated by a hull
// point is feasible — a link can always send less). Primary extreme points
// are per-link capacities; secondary points come from maximal independent
// sets via Eq. (4).

#include <cstddef>
#include <vector>

#include "model/conflict_graph.h"
#include "util/dense_matrix.h"

namespace meshopt {

/// Eq. (4) on the fast path: map each maximal independent set m to a row
/// of a K x L DenseMatrix holding each member link's capacity (bits/s)
/// and zero elsewhere. Streams the ConflictGraph's packed bitset rows
/// straight into the matrix — no vector<vector<int>> intermediate — so
/// the enumeration's output cost is one row write per set. Row order is
/// the enumeration order of for_each_independent_set_row().
[[nodiscard]] DenseMatrix build_extreme_point_matrix(
    const std::vector<double>& capacities, const ConflictGraph& conflicts,
    std::size_t cap = kMisCap);

/// Eq. (4) capacity stage on pre-enumerated rows: refill `out` (resized to
/// rows.count() x capacities.size(); same-shape refills reuse capacity)
/// with each member link's capacity. Row order is the rows' enumeration
/// order, so the result is bit-identical to build_extreme_point_matrix
/// over the graph the rows were enumerated from with the same cap — the
/// contract the planner's topology-keyed cache relies on.
void fill_extreme_point_matrix(const std::vector<double>& capacities,
                               const MisRowSet& rows, DenseMatrix& out);

/// In-place capacity refresh of a matrix previously produced by
/// fill_extreme_point_matrix (or build_extreme_point_matrix) over the SAME
/// rows: overwrites each member cell with its link's fresh capacity and
/// touches nothing else. Because a topology fixes the nonzero positions,
/// skipping the zero cells is bit-identical to a full refill while writing
/// only nnz cells instead of K x L — the planner's hot path on a cache
/// hit. @pre out is rows.count() x capacities.size() and was filled from
/// `rows`.
void refresh_extreme_point_matrix(const std::vector<double>& capacities,
                                  const MisRowSet& rows, DenseMatrix& out);

/// Eq. (4), legacy nested-vector output (rows in the sorted-set order of
/// ConflictGraph::maximal_independent_sets()).
///
/// DEPRECATED for hot paths: materializes the MIS list first. Prefer
/// build_extreme_point_matrix(); see ARCHITECTURE.md ("MIS output
/// migration").
[[nodiscard]] std::vector<std::vector<double>> build_extreme_points(
    const std::vector<double>& capacities, const ConflictGraph& conflicts);

/// Convex polytope spanned by extreme points, with downward closure.
class FeasibilityRegion {
 public:
  /// `extreme_points` is K x L (each row one extreme point, bits/s).
  explicit FeasibilityRegion(DenseMatrix extreme_points);

  [[nodiscard]] int num_links() const { return points_.cols(); }
  [[nodiscard]] int num_points() const { return points_.rows(); }
  /// The K x L extreme-point matrix.
  [[nodiscard]] const DenseMatrix& points() const { return points_; }

  /// Largest lambda such that lambda * load is feasible (dominated by a
  /// convex combination of extreme points). Returns +inf for a zero load.
  /// @pre load.size() == num_links(); entries in bits/s.
  [[nodiscard]] double max_scaling(const std::vector<double>& load) const;

  /// Is the load vector inside the region (within tolerance)?
  [[nodiscard]] bool contains(const std::vector<double>& load,
                              double tol = 1e-6) const;

 private:
  DenseMatrix points_;
};

}  // namespace meshopt
