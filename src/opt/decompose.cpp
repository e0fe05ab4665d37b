#include "opt/decompose.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "opt/plan_kernel.h"

namespace meshopt {

namespace {

/// Per-round working state of one ACTIVE component (a component with at
/// least one assigned flow). Owns everything its phase-A job writes, so
/// pool jobs touch disjoint memory and the round is bit-identical across
/// thread counts.
struct CompWork {
  MeasurementSnapshot sub;            ///< restricted snapshot
  std::vector<std::size_t> flow_ids;  ///< global flow indices, ascending

  // Fast tier.
  ColumnGenInput cg_in;
  ColumnGenOptimizer* warm = nullptr;  ///< entry-owned or `cold`
  std::unique_ptr<ColumnGenOptimizer> cold;
  ColumnGenStats before;  ///< warm's counters before this round

  // Exact tier.
  OptimizerInput in;

  /// The component's bound region (concave objectives only): the joint
  /// Frank–Wolfe's per-component oracle.
  RegionLp* region = nullptr;
  OptimizerResult result;  ///< final (kMT/kMM) or FW starting point

  // Wall-clock enrichment of the component's phase-A job (0 unless the
  // attached recorder enables wall_clock). Written by the job, read by the
  // caller after the phase barrier — disjoint, pool-safe.
  std::uint64_t obs_t0 = 0;
  std::uint64_t obs_dur = 0;
};

/// The decomposed tier's linear oracle. The rate region is the product of
/// the components' regions and every flow lives in one component, so
/// grad . v separates: each component's region answers for its own flows.
class ProductOracle final : public LinearOracle {
 public:
  explicit ProductOracle(std::vector<CompWork>& works) : works_(works) {}

  bool vertex(const std::vector<double>& grad, bool first,
              std::vector<double>& v) override {
    v.resize(grad.size());
    for (CompWork& w : works_) {
      const std::size_t nc = w.flow_ids.size();
      grad_c_.assign(nc, 0.0);
      for (std::size_t i = 0; i < nc; ++i) grad_c_[i] = grad[w.flow_ids[i]];
      // The monolithic solve stops when its oracle fails; so does this one
      // when any component's does.
      if (!w.region->vertex(grad_c_, first, v_c_)) return false;
      for (std::size_t i = 0; i < nc; ++i) v[w.flow_ids[i]] = v_c_[i];
    }
    return true;
  }

  void finish() override {
    for (CompWork& w : works_) w.region->finish();
  }

 private:
  std::vector<CompWork>& works_;
  std::vector<double> grad_c_;  ///< one component's slice of the gradient
  std::vector<double> v_c_;     ///< one component's vertex
};

bool concave_objective(Objective o) {
  return o == Objective::kProportionalFair || o == Objective::kAlphaFair;
}

}  // namespace

RatePlan DecomposedPlanner::fallback_plan(const MeasurementSnapshot& snap,
                                          InterferenceModelKind kind,
                                          const std::vector<FlowSpec>& flows,
                                          const PlanConfig& cfg,
                                          std::size_t mis_cap, bool cacheable,
                                          std::uint64_t DecomposeStats::*why) {
  ++stats_.fallback_rounds;
  ++(stats_.*why);
  if (obs_ != nullptr) {
    ObsCode code = ObsCode::kFallbackDegenerate;
    if (why == &DecomposeStats::fallback_connected)
      code = ObsCode::kFallbackConnected;
    else if (why == &DecomposeStats::fallback_cross_component)
      code = ObsCode::kFallbackCross;
    obs_->emit(ObsStage::kComponent, ObsKind::kEvent, code);
  }
  return fallback_.plan(snap, kind, flows, cfg, mis_cap, cacheable);
}

RatePlan DecomposedPlanner::plan(const MeasurementSnapshot& snap,
                                 InterferenceModelKind kind,
                                 const std::vector<FlowSpec>& flows,
                                 const PlanConfig& cfg, std::size_t mis_cap,
                                 bool cacheable) {
  ++stats_.rounds;
  if (flows.empty() || snap.links.empty())
    return fallback_plan(snap, kind, flows, cfg, mis_cap, cacheable,
                         &DecomposeStats::fallback_degenerate);

  // Partition along the same conflict graph the per-component models will
  // build (including the LIR -> two-hop fallback for LIR-less snapshots),
  // so component membership and model structure can never disagree.
  const bool lir_model =
      kind == InterferenceModelKind::kLirTable && !snap.lir.empty();
  const ConflictGraph graph =
      lir_model ? build_lir_conflict_graph(snap.lir, snap.lir_threshold)
                : build_two_hop_conflict_graph(
                      snap.link_refs(), [&snap](NodeId a, NodeId b) {
                        return snap.is_neighbor(a, b);
                      });
  ComponentPartition part = graph.connected_components();
  if (part.count() < cfg_.min_components)
    return fallback_plan(snap, kind, flows, cfg, mis_cap, cacheable,
                         &DecomposeStats::fallback_connected);

  // Assign each flow to the one component its modeled links live in. The
  // decomposition is exact only when flows never straddle components.
  const std::size_t num_flows = flows.size();
  std::vector<int> flow_comp(num_flows, -1);
  for (std::size_t s = 0; s < num_flows; ++s) {
    const auto& path = flows[s].path;
    int comp = -1;
    bool single = true;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const int l = snap.link_index(path[h], path[h + 1]);
      if (l < 0) continue;
      const int c = part.component_of[static_cast<std::size_t>(l)];
      if (comp < 0)
        comp = c;
      else if (comp != c) {
        single = false;
        break;
      }
    }
    if (!single || comp < 0)
      return fallback_plan(snap, kind, flows, cfg, mis_cap, cacheable,
                           &DecomposeStats::fallback_cross_component);
    flow_comp[s] = comp;
  }

  // Keep component slots (their Planner caches and fast-tier warm state)
  // when the partition's membership is unchanged; rebuild otherwise.
  bool reuse = slots_.size() == part.members.size();
  if (reuse) {
    for (std::size_t c = 0; c < slots_.size(); ++c) {
      if (slots_[c]->members != part.members[c]) {
        reuse = false;
        break;
      }
    }
  }
  if (!reuse) {
    slots_.clear();
    slots_.reserve(part.members.size());
    for (const std::vector<int>& members : part.members)
      slots_.push_back(std::make_unique<Slot>(members, cfg_.component_cache));
    ++stats_.partition_rebuilds;
  }
  partition_ = std::move(part);

  // Active components: only those with assigned flows are planned (a
  // flow-less component contributes nothing to any objective — its link
  // rows are slack at y = 0).
  std::vector<CompWork> works;
  for (int c = 0; c < partition_.count(); ++c) {
    std::vector<std::size_t> ids;
    for (std::size_t s = 0; s < num_flows; ++s)
      if (flow_comp[s] == c) ids.push_back(s);
    if (ids.empty()) continue;
    CompWork w;
    w.sub = snap.restrict_to(
        partition_.members[static_cast<std::size_t>(c)]);
    w.flow_ids = std::move(ids);
    works.push_back(std::move(w));
  }
  ++stats_.decomposed_rounds;
  stats_.components_planned += works.size();
  if (works.empty()) return RatePlan{};  // unreachable: flows is non-empty

  // The GLOBAL capacity scale: the monolithic extreme-point matrix's max
  // entry is the max link capacity (every link is in some maximal
  // independent set), so every per-component solve normalized by sigma
  // runs in exactly the monolithic solve's scaled units.
  double max_cap = 0.0;
  for (const SnapshotLink& l : snap.links)
    max_cap = std::max(max_cap, l.estimate.capacity_bps);
  const double sigma = region_scale(max_cap, /*scale_override=*/0.0);

  const bool fast = cfg.tier == PlanTier::kFast;
  const bool concave = concave_objective(cfg.optimizer.objective);

  // --- Phase A: per-component model + solve (poolable; disjoint state).
  // kMaxThroughput / kMaxMin solve to completion here; the concave
  // objectives bind the component's region and compute its max-min
  // starting point for the joint Frank-Wolfe below.
  auto run_component = [&](CompWork& w) {
    const int comp = flow_comp[w.flow_ids.front()];
    Slot& slot = *slots_[static_cast<std::size_t>(comp)];
    if (obs_ != nullptr) w.obs_t0 = obs_->now_ns();
    const InterferenceModel& m =
        slot.planner.model(w.sub, kind, mis_cap, cacheable);

    const int sub_links = static_cast<int>(w.sub.links.size());
    const int sub_flows = static_cast<int>(w.flow_ids.size());
    DenseMatrix routing(sub_links, sub_flows);
    for (int i = 0; i < sub_flows; ++i) {
      const auto& path = flows[w.flow_ids[static_cast<std::size_t>(i)]].path;
      for (std::size_t h = 0; h + 1 < path.size(); ++h) {
        const int l = w.sub.link_index(path[h], path[h + 1]);
        if (l >= 0) routing(l, i) = 1.0;
      }
    }

    if (fast) {
      w.cg_in.routing = std::move(routing);
      w.cg_in.conflicts = &m.conflicts();
      w.cg_in.capacities = w.sub.capacities();
      w.cg_in.scale_override = sigma;
      w.warm = slot.planner.last_entry_column_gen();
      if (w.warm == nullptr) {
        w.cold = std::make_unique<ColumnGenOptimizer>();
        w.warm = w.cold.get();
      }
      w.warm->set_observer(slot.planner.observer());
      w.warm->config() = cfg.optimizer;
      w.before = w.warm->stats();
      if (!concave)
        w.result = w.warm->solve(w.cg_in);
      else if (w.warm->bind(w.cg_in))
        w.region = w.warm;
    } else {
      w.in.routing = std::move(routing);
      w.in.extreme_points = m.extreme_points();
      w.in.scale_override = sigma;
      slot.exact.config() = cfg.optimizer;
      if (!concave)
        w.result = slot.exact.solve(w.in);
      else if (slot.exact.bind(w.in))
        w.region = &slot.exact;
    }
    // The monolithic concave solve starts from max-min; mirror that per
    // component.
    if (w.region != nullptr) w.result = water_fill(*w.region);
    if (obs_ != nullptr) {
      const std::uint64_t t1 = obs_->now_ns();
      w.obs_dur = t1 >= w.obs_t0 ? t1 - w.obs_t0 : 0;
    }
  };

  // Slot planners share the single-owner recorder only when phase A runs
  // on the calling thread; pool jobs keep their slot-level detail silent
  // (the caller-side kComponentSolve spans below survive either way).
  const bool pooled = pool_ != nullptr && works.size() > 1;
  for (const CompWork& w : works) {
    const int comp = flow_comp[w.flow_ids.front()];
    slots_[static_cast<std::size_t>(comp)]->planner.set_observer(
        pooled ? nullptr : obs_);
  }

  if (pooled) {
    pool_->run_raw(static_cast<int>(works.size()), /*master_seed=*/0,
                   [&](const SweepJob& job) {
                     run_component(works[static_cast<std::size_t>(job.index)]);
                   });
  } else {
    for (CompWork& w : works) run_component(w);
  }

  if (obs_ != nullptr) {
    for (const CompWork& w : works) {
      const int comp = flow_comp[w.flow_ids.front()];
      obs_->emit(ObsStage::kComponent, ObsKind::kSpan,
                 ObsCode::kComponentSolve, static_cast<std::uint64_t>(comp),
                 (static_cast<std::uint64_t>(w.sub.links.size()) << 32) |
                     static_cast<std::uint64_t>(w.flow_ids.size()),
                 w.obs_t0, w.obs_dur);
    }
  }

  for (const CompWork& w : works)
    if (!w.result.ok) return RatePlan{};

  // --- Phase B: stitch the component results into one global result. The
  // concave objectives are separable but the monolithic Frank-Wolfe
  // trajectory is not (its line search couples all flows through one step
  // size), so they run ONE joint Frank-Wolfe over all flows whose linear
  // oracle decomposes per component. Runs on the calling thread in
  // component order.
  OptimizerResult joint;
  joint.y.assign(num_flows, 0.0);
  for (const CompWork& w : works)
    for (std::size_t i = 0; i < w.flow_ids.size(); ++i)
      joint.y[w.flow_ids[i]] = w.result.y[i];
  if (concave) {
    ProductOracle oracle(works);
    joint = frank_wolfe(oracle, joint, sigma, cfg.optimizer);
  } else if (cfg.optimizer.objective == Objective::kMaxThroughput) {
    for (double v : joint.y) joint.objective_value += v;
  } else {
    joint.objective_value = *std::min_element(joint.y.begin(), joint.y.end());
  }

  // A concave fast round prices in phase A and in the joint loop, so no
  // single interval covers a component's pricing: report it as one event
  // per component, in component order, with solve()'s code and payload.
  if (fast && concave && obs_ != nullptr) {
    for (const CompWork& w : works) {
      const ColumnGenStats& now = w.warm->stats();
      obs_->emit(ObsStage::kPricing, ObsKind::kEvent,
                 now.warm_starts > w.before.warm_starts ? ObsCode::kWarmStart
                                                        : ObsCode::kColdStart,
                 now.pricing_rounds - w.before.pricing_rounds,
                 now.columns_admitted - w.before.columns_admitted);
    }
  }

  // --- Phase C: one RatePlan with the monolithic metadata conventions
  // and loss-compensation tail over the FULL snapshot.
  RatePlan plan;
  plan.ok = true;
  plan.tier = cfg.tier;
  plan.optimizer_iterations = joint.iterations;
  plan.objective_value = joint.objective_value;
  for (const CompWork& w : works) {
    if (fast) {
      plan.extreme_points += w.warm->columns().count();
      plan.pricing_rounds += static_cast<int>(w.warm->stats().pricing_rounds -
                                              w.before.pricing_rounds);
    } else {
      plan.extreme_points += w.in.extreme_points.rows();
    }
  }
  if (fast) plan.columns_generated = plan.extreme_points;
  plan.y = std::move(joint.y);
  fill_input_rates(snap, flows, cfg, plan);
  return plan;
}

PlannerStats DecomposedPlanner::planner_stats_snapshot() const {
  PlannerStats total = fallback_.stats_snapshot();
  for (const std::unique_ptr<Slot>& slot : slots_) {
    const PlannerStats& s = slot->planner.stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.uncacheable_plans += s.uncacheable_plans;
  }
  return total;
}

const PlannerStats& DecomposedPlanner::component_planner_stats(int c) const {
  if (c < 0 || c >= static_cast<int>(slots_.size()))
    throw std::out_of_range("DecomposedPlanner: component index");
  return slots_[static_cast<std::size_t>(c)]->planner.stats();
}

void DecomposedPlanner::clear() {
  fallback_.clear();
  slots_.clear();
  partition_ = ComponentPartition{};
  stats_ = DecomposeStats{};
}

}  // namespace meshopt
