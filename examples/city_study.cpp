// Example: city-scale decomposed planning under localized churn.
//
//   $ ./example_city_study [rounds] [trace-json-path]
//
// A city deployment is four gateway-cluster cliques stitched by RF-silent
// bridge links: the interference (conflict) graph splits into seven
// connected components (4 cluster cliques + 3 bridge singletons), so the
// planning problem is block-separable and DecomposedPlanner solves each
// component independently, stitching a plan that matches the monolithic
// solve to 1e-9 relative objective.
//
// Each round, link capacities drift (cache-neutral: the topology
// fingerprint ignores load), and every few rounds ONE cluster's measured
// LIR values churn (conflicts persist, values move). A monolithic planner
// must re-enumerate its whole model at every churn epoch; the decomposed
// planner re-keys only the churned component's slot and keeps the other
// clusters' cached models and warm column state hot. The study prints the
// per-component cache-epoch table and plans/s for both planners, and
// exits nonzero if the decomposed objective ever drifts from the
// monolithic one beyond 1e-9 relative tolerance.
//
// The decomposed run is traced (src/obs): per-component solve spans,
// cache events, and decomposition fallbacks land in a TraceRecorder, and
// the run exports a Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev) with one lane per component.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "opt/decompose.h"
#include "scenario/topologies.h"

using namespace meshopt;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const int rounds = argc > 1 ? std::max(4, std::atoi(argv[1])) : 48;
  const std::string trace_path =
      argc > 2 ? argv[2] : std::string("city_study_trace.json");
  const int churn_every = 6;

  const CityParams p;  // 4 clusters x 12 links + 3 bridges = 51 links
  const std::vector<FlowSpec> flows = city_flows(p);
  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;
  cfg.tier = PlanTier::kFast;

  Planner mono(8);
  DecomposedPlanner decomposed;
  ObsConfig obs_cfg;
  obs_cfg.wall_clock = true;  // enrich spans; determinism not needed here
  TraceRecorder obs(obs_cfg);
  decomposed.set_observer(&obs);

  std::vector<int> epoch(static_cast<std::size_t>(p.clusters), 0);
  double mono_s = 0.0;
  double dec_s = 0.0;
  double worst_rel = 0.0;
  int worst_round = -1;

  for (int r = 0; r < rounds; ++r) {
    // Localized churn: one cluster's LIR measurements move (conflicts
    // persist — the partition is stable) on a rotating schedule.
    if (r > 0 && r % churn_every == 0)
      ++epoch[static_cast<std::size_t>((r / churn_every - 1) % p.clusters)];

    MeasurementSnapshot snap = build_city_snapshot(p);
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + 0.01 * (r % 5);  // cache-neutral drift
    for (int c = 0; c < p.clusters; ++c) {
      const double lir =
          p.conflict_lir - 0.02 * (epoch[static_cast<std::size_t>(c)] % 4);
      for (int i : city_cluster_links(p, c))
        for (int j : city_cluster_links(p, c))
          if (i != j) snap.lir(i, j) = lir;
    }

    auto t0 = std::chrono::steady_clock::now();
    const RatePlan pm =
        mono.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
    mono_s += seconds_since(t0);
    t0 = std::chrono::steady_clock::now();
    obs.set_context(0, static_cast<std::uint64_t>(r));
    const RatePlan pd =
        decomposed.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
    dec_s += seconds_since(t0);

    if (!pm.ok || !pd.ok) {
      std::fprintf(stderr, "round %d: plan failed (mono=%d dec=%d)\n", r,
                   pm.ok, pd.ok);
      return 1;
    }
    const double rel = std::abs(pd.objective_value - pm.objective_value) /
                       (std::abs(pm.objective_value) + 1.0);
    if (rel > worst_rel) {
      worst_rel = rel;
      worst_round = r;
    }
  }

  const DecomposeStats& ds = decomposed.stats();
  std::printf("city: %d links, %d components, %zu flows, %d rounds "
              "(cluster churn every %d)\n\n",
              51, decomposed.partition().count(), flows.size(), rounds,
              churn_every);

  std::printf("per-component cache epochs (misses = model re-keys):\n");
  std::printf("%10s %6s %8s %8s\n", "component", "links", "misses", "hits");
  for (int c = 0; c < decomposed.partition().count(); ++c) {
    const PlannerStats& s = decomposed.component_planner_stats(c);
    std::printf("%10d %6zu %8llu %8llu\n", c,
                decomposed.partition().members[static_cast<std::size_t>(c)]
                    .size(),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.hits));
  }
  const PlannerStats& ms = mono.stats();
  std::printf("%10s %6d %8llu %8llu   (every churn epoch re-keys all)\n\n",
              "monolith", 51, static_cast<unsigned long long>(ms.misses),
              static_cast<unsigned long long>(ms.hits));

  std::printf("%12s %10s %10s\n", "planner", "plans/s", "total s");
  std::printf("%12s %10.1f %10.3f\n", "monolithic", rounds / mono_s, mono_s);
  std::printf("%12s %10.1f %10.3f   (%.2fx)\n", "decomposed", rounds / dec_s,
              dec_s, mono_s / dec_s);
  std::printf("\ndecomposed rounds %llu, components planned %llu, "
              "fallbacks %llu\n",
              static_cast<unsigned long long>(ds.decomposed_rounds),
              static_cast<unsigned long long>(ds.components_planned),
              static_cast<unsigned long long>(ds.fallback_rounds));
  std::printf("worst objective drift vs monolithic: %.3e (round %d)\n",
              worst_rel, worst_round);

  // Export the decomposed run's trace for Perfetto (one lane per
  // component) on the wall clock the recorder kept, so span widths show
  // real plan time.
  {
    ChromeTraceOptions trace_opts;
    trace_opts.use_wall_clock = true;
    const std::string json = chrome_trace_json(obs, trace_opts);
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\ntraced %llu records (%llu dropped) -> %s "
                "(load in ui.perfetto.dev)\n",
                static_cast<unsigned long long>(obs.records_emitted()),
                static_cast<unsigned long long>(obs.records_dropped()),
                trace_path.c_str());
  }

  if (worst_rel > 1e-9) {
    std::fprintf(stderr,
                 "FAIL: decomposed objective drifted beyond 1e-9 relative\n");
    return 1;
  }
  std::printf("OK: decomposed == monolithic within 1e-9 relative on every "
              "round\n");
  return 0;
}
