#include "core/rate_plan.h"

#include <algorithm>
#include <cmath>

namespace meshopt {

RatePlan plan_rates(const MeasurementSnapshot& snapshot,
                    const InterferenceModel& model,
                    const std::vector<FlowSpec>& flows,
                    const PlanConfig& cfg) {
  return plan_rates(snapshot, model, flows, cfg, nullptr);
}

RatePlan plan_rates(const MeasurementSnapshot& snapshot,
                    const InterferenceModel& model,
                    const std::vector<FlowSpec>& flows, const PlanConfig& cfg,
                    ColumnGenOptimizer* warm) {
  RatePlan plan;
  if (flows.empty() || snapshot.links.empty() ||
      model.num_links() != static_cast<int>(snapshot.links.size())) {
    return plan;
  }

  DenseMatrix routing(static_cast<int>(snapshot.links.size()),
                      static_cast<int>(flows.size()));
  for (std::size_t s = 0; s < flows.size(); ++s) {
    const auto& path = flows[s].path;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const int l = snapshot.link_index(path[h], path[h + 1]);
      if (l >= 0) routing(l, static_cast<int>(s)) = 1.0;
    }
  }

  OptimizerResult opt;
  if (cfg.tier == PlanTier::kFast) {
    // Fast tier: no K x L matrix is copied (or even read) — the rate
    // region enters through the conflict graph and per-link capacities,
    // and columns are priced in on demand.
    ColumnGenInput in;
    in.routing = std::move(routing);
    in.conflicts = &model.conflicts();
    in.capacities = snapshot.capacities();
    if (warm != nullptr) {
      warm->config() = cfg.optimizer;
      opt = warm->solve(in);
    } else {
      ColumnGenOptimizer cold(cfg.optimizer);
      opt = cold.solve(in);
    }
    plan.extreme_points = opt.columns_used;
  } else {
    OptimizerInput in;
    in.extreme_points = model.extreme_points();
    in.routing = std::move(routing);
    opt = optimize_rates(in, cfg.optimizer);
    plan.extreme_points = in.extreme_points.rows();
  }
  if (!opt.ok) return RatePlan{};

  plan.ok = true;
  plan.optimizer_iterations = opt.iterations;
  plan.tier = cfg.tier;
  plan.objective_value = opt.objective_value;
  plan.columns_generated = opt.columns_used;
  plan.pricing_rounds = opt.pricing_rounds;
  plan.y = std::move(opt.y);
  fill_input_rates(snapshot, flows, cfg, plan);
  return plan;
}

void fill_input_rates(const MeasurementSnapshot& snapshot,
                      const std::vector<FlowSpec>& flows,
                      const PlanConfig& cfg, RatePlan& plan) {
  plan.x.resize(flows.size(), 0.0);
  plan.shapers.reserve(flows.size());
  for (std::size_t s = 0; s < flows.size(); ++s) {
    const FlowSpec& f = flows[s];
    // Residual network-layer loss after MAC retries: p_net = p_link^R.
    double deliver = 1.0;
    for (std::size_t h = 0; h + 1 < f.path.size(); ++h) {
      const int li = snapshot.link_index(f.path[h], f.path[h + 1]);
      if (li < 0) continue;
      const SnapshotLink& link = snapshot.links[static_cast<std::size_t>(li)];
      deliver *= 1.0 - std::pow(link.estimate.p_link, link.retry_limit);
    }
    double x = plan.y[s] / std::max(deliver, 1e-3);
    if (f.is_tcp) x *= tcp_ack_airtime_factor();
    x *= cfg.headroom;
    plan.x[s] = x;
    plan.shapers.push_back(ShaperProgram{f.flow_id, x});
  }
}

}  // namespace meshopt
