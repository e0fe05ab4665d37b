#include "opt/column_gen.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace meshopt {

namespace {

/// Exact branch-and-bound MWIS over packed bitset adjacency. Vertices are
/// visited in a static order (weight descending, index ascending) so
/// heavy vertices are decided first; the bound is the greedy sum of all
/// remaining candidate weights. Only positive-weight vertices ever enter
/// the candidate set, so every inclusion strictly improves the incumbent.
struct MwisSearch {
  const ConflictGraph* g = nullptr;
  const double* w = nullptr;
  int n = 0;
  int words = 0;
  const int* order = nullptr;
  std::uint64_t node_cap = 0;
  std::uint64_t nodes = 0;
  bool truncated = false;
  double best_w = 0.0;
  std::vector<std::uint64_t> cur;
  std::vector<std::uint64_t> best;

  void search(std::vector<std::uint64_t>& cand, double cur_w, int from) {
    if (truncated) return;
    if (++nodes > node_cap) {
      truncated = true;
      return;
    }
    double bound = cur_w;
    for (int wd = 0; wd < words; ++wd) {
      std::uint64_t m = cand[static_cast<std::size_t>(wd)];
      while (m != 0) {
        bound += w[wd * 64 + std::countr_zero(m)];
        m &= m - 1;
      }
    }
    if (bound <= best_w + 1e-15) return;
    std::vector<std::uint64_t> sub(static_cast<std::size_t>(words));
    for (int oi = from; oi < n; ++oi) {
      const int v = order[oi];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if ((cand[static_cast<std::size_t>(v >> 6)] & bit) == 0) continue;
      // Include v: candidates shrink to v's non-neighbors.
      cur[static_cast<std::size_t>(v >> 6)] |= bit;
      const double nw = cur_w + w[v];
      if (nw > best_w) {
        best_w = nw;
        best = cur;
      }
      const std::uint64_t* adj = g->row(v);
      for (int wd = 0; wd < words; ++wd)
        sub[static_cast<std::size_t>(wd)] =
            cand[static_cast<std::size_t>(wd)] &
            ~adj[static_cast<std::size_t>(wd)];
      sub[static_cast<std::size_t>(v >> 6)] &= ~bit;
      search(sub, nw, oi + 1);
      cur[static_cast<std::size_t>(v >> 6)] &= ~bit;
      if (truncated) return;
      // Exclude v and keep scanning; the bound tightens by w[v].
      cand[static_cast<std::size_t>(v >> 6)] &= ~bit;
      bound -= w[v];
      if (bound <= best_w + 1e-15) return;
    }
  }
};

}  // namespace

double max_weight_independent_set(const ConflictGraph& graph,
                                  const std::vector<double>& weights,
                                  std::vector<std::uint64_t>& bits,
                                  std::uint64_t node_cap,
                                  std::uint64_t* nodes_visited,
                                  bool* truncated) {
  const int n = graph.size();
  const int words = graph.row_words();
  bits.assign(static_cast<std::size_t>(words), 0);
  if (nodes_visited != nullptr) *nodes_visited = 0;
  if (truncated != nullptr) *truncated = false;
  if (n == 0) return 0.0;
  if (static_cast<int>(weights.size()) != n)
    throw std::invalid_argument("MWIS weights size != graph size");

  MwisSearch s;
  s.g = &graph;
  s.w = weights.data();
  s.n = n;
  s.words = words;
  s.node_cap = node_cap;
  s.cur.assign(static_cast<std::size_t>(words), 0);
  s.best.assign(static_cast<std::size_t>(words), 0);

  std::vector<int> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<std::size_t>(v)] = v;
  std::sort(order.begin(), order.end(), [&weights](int a, int b) {
    const double wa = weights[static_cast<std::size_t>(a)];
    const double wb = weights[static_cast<std::size_t>(b)];
    if (wa != wb) return wa > wb;
    return a < b;
  });
  s.order = order.data();

  std::vector<std::uint64_t> cand(static_cast<std::size_t>(words), 0);
  for (int v = 0; v < n; ++v) {
    if (weights[static_cast<std::size_t>(v)] > 0.0)
      cand[static_cast<std::size_t>(v >> 6)] |= std::uint64_t{1} << (v & 63);
  }
  s.search(cand, 0.0, 0);

  bits = s.best;
  if (nodes_visited != nullptr) *nodes_visited = s.nodes;
  if (truncated != nullptr) *truncated = s.truncated;
  return s.best_w;
}

void extend_to_maximal_independent_set(const ConflictGraph& graph,
                                       std::vector<std::uint64_t>& bits) {
  const int n = graph.size();
  const int words = graph.row_words();
  bits.resize(static_cast<std::size_t>(words), 0);
  std::vector<std::uint64_t> blocked(static_cast<std::size_t>(words), 0);
  for (int v = 0; v < n; ++v) {
    if ((bits[static_cast<std::size_t>(v >> 6)] >> (v & 63) & 1) == 0)
      continue;
    const std::uint64_t* adj = graph.row(v);
    for (int wd = 0; wd < words; ++wd)
      blocked[static_cast<std::size_t>(wd)] |=
          adj[static_cast<std::size_t>(wd)];
  }
  for (int v = 0; v < n; ++v) {
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((bits[static_cast<std::size_t>(v >> 6)] & bit) != 0) continue;
    if ((blocked[static_cast<std::size_t>(v >> 6)] & bit) != 0) continue;
    bits[static_cast<std::size_t>(v >> 6)] |= bit;
    const std::uint64_t* adj = graph.row(v);
    for (int wd = 0; wd < words; ++wd)
      blocked[static_cast<std::size_t>(wd)] |=
          adj[static_cast<std::size_t>(wd)];
  }
}

void ColumnGenOptimizer::reset() {
  columns_ = MisRowSet();
  warm_basis_.clear();
  warm_vars_ = -1;
  warm_rows_ = -1;
}

bool ColumnGenOptimizer::has_column(
    const std::vector<std::uint64_t>& bits) const {
  const int words = columns_.row_words();
  for (int k = 0; k < columns_.count(); ++k) {
    const std::uint64_t* row = columns_.row(k);
    if (std::equal(row, row + words, bits.data())) return true;
  }
  return false;
}

void ColumnGenOptimizer::seed_columns() {
  const ConflictGraph& graph = *in_->conflicts;
  if (columns_.num_links() != links_) {
    columns_ = MisRowSet(links_);
    warm_basis_.clear();
    warm_vars_ = -1;
    warm_rows_ = -1;
  }
  if (columns_.count() > 0) return;
  // One greedy maximal set grown from each link, deduped. Every link then
  // appears in at least one working column, so the restricted master's
  // link coverage (and its capacity normalization scale) matches the
  // exact tier's full matrix from the first solve.
  const int words = graph.row_words();
  std::vector<std::uint64_t> bits;
  for (int l = 0; l < links_; ++l) {
    bits.assign(static_cast<std::size_t>(words), 0);
    bits[static_cast<std::size_t>(l >> 6)] |= std::uint64_t{1} << (l & 63);
    extend_to_maximal_independent_set(graph, bits);
    if (has_column(bits)) continue;
    columns_.append(bits.data());
    ++stats_.columns_seeded;
  }
}

bool ColumnGenOptimizer::bind(const ColumnGenInput& input) {
  if (input.conflicts == nullptr)
    throw std::invalid_argument("ColumnGenInput: conflicts is required");
  const int links = input.routing.rows();
  const int flows = input.routing.cols();
  if (flows == 0 || links == 0) return false;
  if (input.conflicts->size() != links)
    throw std::invalid_argument("conflict graph size != link count");
  if (static_cast<int>(input.capacities.size()) != links)
    throw std::invalid_argument("capacities size != link count");
  // Same normalization as the exact tier: every link appears in some
  // maximal independent set, so the extreme-point matrix's max entry IS
  // the max capacity — the normalized masters of both tiers agree.
  double max_cap = 0.0;
  for (double c : input.capacities) max_cap = std::max(max_cap, c);
  scale_ = region_scale(max_cap, input.scale_override);
  flows_ = flows;
  links_ = links;
  in_ = &input;
  vertex_ok_ = false;

  ++stats_.solves;
  solve_pricing_rounds_ = 0;
  seed_columns();
  return true;
}

/// The exact tier's region LP over the working set, in the same row order
/// so dual indices line up with link indices.
LpProblem& ColumnGenOptimizer::fresh_lp(int extra_vars) {
  const int cols = columns_.count();
  build_region(in_->routing, cols, extra_vars);
  const double inv_scale = 1.0 / scale_;
  for (int l = 0; l < links_; ++l) {
    double* row = problem_.coeffs.row(l);
    const int wd = l >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (l & 63);
    const double coef =
        -in_->capacities[static_cast<std::size_t>(l)] * inv_scale;
    for (int k = 0; k < cols; ++k) {
      if ((columns_.row(k)[static_cast<std::size_t>(wd)] & bit) != 0)
        row[flows_ + k] = coef;
    }
  }
  return problem_;
}

void ColumnGenOptimizer::append_column(const std::vector<std::uint64_t>& bits) {
  columns_.append(bits.data());
  problem_.append_vars(1);
  const int col = problem_.num_vars - 1;
  const double inv_scale = 1.0 / scale_;
  for (int l = 0; l < links_; ++l) {
    if ((bits[static_cast<std::size_t>(l >> 6)] >> (l & 63) & 1) != 0)
      problem_.coeffs(l, col) =
          -in_->capacities[static_cast<std::size_t>(l)] * inv_scale;
  }
  problem_.coeffs(links_, col) = 1.0;  // the convexity row
}

bool ColumnGenOptimizer::price_one() {
  ++stats_.pricing_rounds;
  ++solve_pricing_rounds_;
  lp_.duals(duals_);
  // Reduced cost of a candidate column w (zero objective coefficient):
  //   d_w = sum_{l in w} c_l/scale * lambda_l - mu,
  // with lambda the link-row duals (>= 0 for binding <= rows; clamp fp
  // dust) and mu the convexity-row dual. Maximizing sum lambda_l c_l over
  // independent sets is exactly MWIS on the conflict graph, and the
  // search is exact, so d_best <= pricing_tol certifies optimality over
  // the FULL rate region — every one of the K unseen columns is covered.
  const double mu = duals_[static_cast<std::size_t>(links_)];
  const double inv_scale = 1.0 / scale_;
  weights_.assign(static_cast<std::size_t>(links_), 0.0);
  for (int l = 0; l < links_; ++l) {
    weights_[static_cast<std::size_t>(l)] =
        std::max(duals_[static_cast<std::size_t>(l)], 0.0) *
        in_->capacities[static_cast<std::size_t>(l)] * inv_scale;
  }
  std::uint64_t nodes = 0;
  bool truncated = false;
  const double best = max_weight_independent_set(
      *in_->conflicts, weights_, cand_bits_, cg_.mwis_node_cap, &nodes,
      &truncated);
  stats_.oracle_nodes += nodes;
  if (truncated) ++stats_.oracle_truncated;
  const double reduced = best - mu;
  if (reduced <= cg_.pricing_tol) {
    // A complete search found no improving column: the master's duals
    // hold for the full region. A truncated one proves nothing.
    certified_ = !truncated;
    return false;
  }
  // Extend to a maximal set (added links carry weight >= 0, so the true
  // reduced cost only grows) — the working set then holds exactly the
  // kind of column the exact tier enumerates.
  extend_to_maximal_independent_set(*in_->conflicts, cand_bits_);
  if (has_column(cand_bits_)) {
    // The oracle re-derived a column the master already has: the duals
    // are fp-degenerate. Stop pricing rather than cycle — the working-set
    // optimum is already within solver epsilon of the full optimum, but
    // its duals certify nothing.
    return false;
  }
  if (on_admit) {
    ColumnAdmission a;
    a.pricing_round = solve_pricing_rounds_;
    a.reduced_cost = reduced;
    for (int l = 0; l < links_; ++l) {
      if ((cand_bits_[static_cast<std::size_t>(l >> 6)] >> (l & 63) & 1) != 0)
        a.links.push_back(l);
    }
    on_admit(a);
  }
  append_column(cand_bits_);
  ++stats_.columns_admitted;
  return true;
}

LpSolution ColumnGenOptimizer::solve_lp(LpStart start) {
  LpSolution sol;
  switch (start) {
    case LpStart::kFirst:
      if (!warm_basis_.empty() && warm_vars_ == problem_.num_vars &&
          warm_rows_ == problem_.num_constraints()) {
        ++stats_.warm_starts;
        sol = lp_.solve_with_basis(problem_, warm_basis_);
      } else {
        sol = lp_.solve(problem_);
      }
      break;
    case LpStart::kCold:
      sol = lp_.solve(problem_);
      break;
    case LpStart::kResolve:
      sol = lp_.resolve_objective(problem_);
      break;
  }
  ++stats_.master_solves;
  certified_ = false;
  int rounds = 0;
  while (sol.status == LpStatus::kOptimal && rounds < cg_.max_pricing_rounds) {
    ++rounds;
    if (!price_one()) break;
    sol = lp_.resolve_with_added_columns(problem_);
    ++stats_.master_solves;
  }
  return sol;
}

bool ColumnGenOptimizer::region_duals(std::vector<double>& out) const {
  lp_.duals(out);
  return certified_;
}

void ColumnGenOptimizer::finish() {
  // Water-filling never reaches here, so when it runs as the Frank–Wolfe
  // start the basis carried from the previous round survives to
  // warm-start this round's first vertex.
  if (vertex_ok_) {
    warm_basis_ = lp_.basis();
    warm_vars_ = problem_.num_vars;
    warm_rows_ = problem_.num_constraints();
  }
  vertex_ok_ = false;
}

OptimizerResult ColumnGenOptimizer::solve(const ColumnGenInput& input) {
  const std::uint64_t warm_before = stats_.warm_starts;
  const std::uint64_t admitted_before = stats_.columns_admitted;
  if (!bind(input)) return OptimizerResult{};
  ObsSpan pricing_span(obs_, ObsStage::kPricing);
  OptimizerResult r = optimize(*this, cfg_);
  // One weight per working column, also for columns admitted by a final
  // oracle call that failed.
  if (r.ok)
    r.alpha_weights.resize(static_cast<std::size_t>(columns_.count()), 0.0);
  r.columns_used = columns_.count();
  r.pricing_rounds = solve_pricing_rounds_;
  pricing_span.code(stats_.warm_starts > warm_before ? ObsCode::kWarmStart
                                                     : ObsCode::kColdStart);
  pricing_span.payload(static_cast<std::uint64_t>(solve_pricing_rounds_),
                       stats_.columns_admitted - admitted_before);
  return r;
}

}  // namespace meshopt
