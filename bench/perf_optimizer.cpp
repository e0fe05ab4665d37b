// Section 6.1 timing claims, as google-benchmark microbenchmarks:
//   * extreme-point computation (maximal-clique enumeration on the
//     complement graph): the paper's worst case was ~200 extreme points in
//     < 10 ms,
//   * the convex optimization: Matlab took < 3 s; our simplex/Frank-Wolfe
//     implementation should be far faster at testbed scale,
//   * the channel-loss estimator on a full probing window.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/controller.h"
#include "core/guard.h"
#include "core/planner.h"
#include "core/snapshot_source.h"
#include "estimation/loss_estimator.h"
#include "model/conflict_graph.h"
#include "model/feasibility.h"
#include "obs/obs.h"
#include "opt/column_gen.h"
#include "opt/decompose.h"
#include "opt/network_optimizer.h"
#include "phy/channel.h"
#include "probe/live_source.h"
#include "scenario/dynamics.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "serve/plan_service.h"
#include "sim/simulator.h"
#include "sweep/controller_fleet.h"
#include "sweep/sweep_runner.h"
#include "util/rng.h"
#include "util/trace_codec.h"

namespace meshopt {
namespace {

ConflictGraph random_conflicts(int links, double density, std::uint64_t seed) {
  ConflictGraph g(links);
  RngStream rng(seed, "bench-graph");
  for (int i = 0; i < links; ++i)
    for (int j = i + 1; j < links; ++j)
      if (rng.bernoulli(density)) g.add_conflict(i, j);
  return g;
}

void BM_MaximalIndependentSets(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const ConflictGraph g = random_conflicts(links, 0.5, 42);
  std::size_t sets = 0;
  for (auto _ : state) {
    const auto mis = g.maximal_independent_sets();
    sets = mis.size();
    benchmark::DoNotOptimize(mis);
  }
  state.counters["sets"] = static_cast<double>(sets);
}
BENCHMARK(BM_MaximalIndependentSets)->Arg(12)->Arg(24)->Arg(40)->Arg(80);

// ------------------------------------------------------------------ core
// Event-core throughput: a pool of pending timers with schedule/fire churn,
// the shape of a busy MAC (backoff timers, frame-end events, probe timers).

void BM_EventThroughput(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  RngStream rng(48, "bench-ev");
  std::vector<TimeNs> when(static_cast<std::size_t>(events));
  for (auto& t : when) t = micros(rng.uniform(0.0, 1e6));
  Simulator sim;  // steady state: the event store persists across rounds
  for (auto _ : state) {
    const TimeNs base = sim.now();
    for (TimeNs t : when) {
      sim.schedule_at(base + t, [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventThroughput)->Arg(1000)->Arg(10000);

// Cancel-heavy churn: every scheduled event is cancelled and replaced once
// before firing — the DCF backoff-freeze / ACK-timeout pattern.
void BM_EventCancelChurn(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  RngStream rng(49, "bench-cancel");
  std::vector<TimeNs> when(static_cast<std::size_t>(events));
  for (auto& t : when) t = micros(rng.uniform(0.0, 1e6));
  std::vector<EventId> ids(static_cast<std::size_t>(events));
  Simulator sim;
  for (auto _ : state) {
    const TimeNs base = sim.now();
    for (std::size_t i = 0; i < when.size(); ++i) {
      ids[i] = sim.schedule_at(base + when[i], [&fired] { ++fired; });
    }
    for (std::size_t i = 0; i < when.size(); ++i) {
      sim.cancel(ids[i]);
      ids[i] = sim.schedule_at(base + when[i] + micros(5), [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events * 2);
}
BENCHMARK(BM_EventCancelChurn)->Arg(1000)->Arg(10000);

// Channel dispatch: frames on a sparse mesh (ring, each node hears its 4
// neighbors a side). Measures start_tx/end_tx fan-out cost as node count
// grows while the true neighborhood stays constant.
void BM_ChannelDispatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Simulator sim;
  PhyParams phy;
  phy.fading_sigma_db = 0.0;  // isolate dispatch cost from RNG draws
  Channel ch(sim, phy, RngStream(50, "bench-ch"));
  for (int i = 0; i < n; ++i) ch.add_node(nullptr);
  for (int i = 0; i < n; ++i) {
    for (int d = 1; d <= 4; ++d) {
      ch.set_rss_dbm(i, (i + d) % n, -60.0 - 3.0 * d);
      ch.set_rss_dbm(i, (i + n - d) % n, -60.0 - 3.0 * d);
    }
  }
  Frame f;
  f.dst = kBroadcast;
  f.rate = Rate::kR1Mbps;
  f.air_bytes = 1500;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    // 8 spaced-out transmitters per round, 125 rounds.
    for (int round = 0; round < 125; ++round) {
      for (int k = 0; k < 8; ++k) {
        const NodeId tx = static_cast<NodeId>((k * (n / 8) + round) % n);
        ch.start_tx(tx, f, micros(100));
        sim.run_until(sim.now() + micros(150));
        ++frames;
      }
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_ChannelDispatch)->Arg(16)->Arg(64)->Arg(256);

// Dense-overlap dispatch: a clique where every node hears every frame and
// 8 transmissions overlap, so per-receiver heard lists stay long — the
// regime where interference-energy accumulation dominates dispatch. (The
// sparse BM_ChannelDispatch above keeps overlap near zero.)
void BM_ChannelDispatchDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Simulator sim;
  PhyParams phy;
  phy.fading_sigma_db = 0.0;
  Channel ch(sim, phy, RngStream(52, "bench-dense"));
  for (int i = 0; i < n; ++i) ch.add_node(nullptr);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) ch.set_rss_dbm(i, j, -60.0 - 0.1 * ((i + j) % 8));
  Frame f;
  f.dst = kBroadcast;
  f.rate = Rate::kR1Mbps;
  f.air_bytes = 1500;
  std::uint64_t frames = 0;
  for (auto _ : state) {
    for (int round = 0; round < 50; ++round) {
      // 8 staggered 100 us frames: every receiver holds ~8 concurrent
      // entries in its heard list at the deepest overlap.
      for (int k = 0; k < 8; ++k) {
        const NodeId tx = static_cast<NodeId>((round * 8 + k) % n);
        ch.start_tx(tx, f, micros(100));
        sim.run_until(sim.now() + micros(10));
        ++frames;
      }
      sim.run_until(sim.now() + micros(200));
    }
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_ChannelDispatchDense)->Arg(16)->Arg(64);

void BM_ExtremePoints(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const ConflictGraph g = random_conflicts(links, 0.5, 43);
  std::vector<double> caps(static_cast<std::size_t>(links), 1e6);
  for (auto _ : state) {
    const auto pts = build_extreme_points(caps, g);
    benchmark::DoNotOptimize(pts);
  }
}
BENCHMARK(BM_ExtremePoints)->Arg(12)->Arg(24)->Arg(40);

// Bitset bridge: MIS rows stream straight into the K x L DenseMatrix,
// no per-set vector<int> / per-point vector<double> materialization.
void BM_ExtremePointMatrix(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const ConflictGraph g = random_conflicts(links, 0.5, 43);
  std::vector<double> caps(static_cast<std::size_t>(links), 1e6);
  for (auto _ : state) {
    const auto pts = build_extreme_point_matrix(caps, g);
    benchmark::DoNotOptimize(pts);
  }
}
BENCHMARK(BM_ExtremePointMatrix)->Arg(12)->Arg(24)->Arg(40)->Arg(80);

// ------------------------------------------------------------------- LP
// The paper's utility LP over K extreme points (Section 6.1), built with
// the portable LpProblem API so the identical code measures the seed
// tableau and the flat rewrite. Shape matches NetworkOptimizer's base
// problem: L <= rows coupling flows to extreme points, one convex-weight
// equality, capacities normalized to ~1.
LpProblem rate_region_lp(int links, int flows, int points,
                         std::uint64_t seed) {
  RngStream rng(seed, "bench-lpK");
  LpProblem lp;
  lp.num_vars = flows + points;
  lp.objective.assign(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int f = 0; f < flows; ++f)
    lp.objective[static_cast<std::size_t>(f)] = 1.0;

  // Routing: each flow crosses 1-4 random links.
  std::vector<std::vector<double>> routing(
      static_cast<std::size_t>(links),
      std::vector<double>(static_cast<std::size_t>(flows), 0.0));
  for (int f = 0; f < flows; ++f) {
    const int hops = rng.uniform_int(1, 4);
    for (int h = 0; h < hops; ++h)
      routing[static_cast<std::size_t>(rng.uniform_int(0, links - 1))]
             [static_cast<std::size_t>(f)] = 1.0;
  }
  // Extreme points: each point activates each link with probability 0.5
  // at a capacity in [0.3, 5] Mb/s; coefficients pre-normalized by 5e6.
  std::vector<std::vector<double>> pts(
      static_cast<std::size_t>(points),
      std::vector<double>(static_cast<std::size_t>(links), 0.0));
  for (auto& p : pts)
    for (auto& c : p)
      if (rng.bernoulli(0.5)) c = rng.uniform(0.3e6, 5e6) / 5e6;

  for (int l = 0; l < links; ++l) {
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars), 0.0);
    for (int f = 0; f < flows; ++f)
      row[static_cast<std::size_t>(f)] =
          routing[static_cast<std::size_t>(l)][static_cast<std::size_t>(f)];
    for (int k = 0; k < points; ++k)
      row[static_cast<std::size_t>(flows + k)] =
          -pts[static_cast<std::size_t>(k)][static_cast<std::size_t>(l)];
    lp.add_constraint(row, Relation::kLe, 0.0);
  }
  std::vector<double> simplex_row(static_cast<std::size_t>(lp.num_vars), 0.0);
  for (int k = 0; k < points; ++k)
    simplex_row[static_cast<std::size_t>(flows + k)] = 1.0;
  lp.add_constraint(simplex_row, Relation::kEq, 1.0);
  for (int f = 0; f < flows; ++f) {
    // Cap every flow so degenerate routings stay bounded.
    std::vector<double> row(static_cast<std::size_t>(lp.num_vars), 0.0);
    row[static_cast<std::size_t>(f)] = 1.0;
    lp.add_constraint(row, Relation::kLe, 10.0);
  }
  return lp;
}

void BM_LpSolve(benchmark::State& state) {
  const int points = static_cast<int>(state.range(0));
  const LpProblem lp = rate_region_lp(24, 6, points, 51);
  double obj = 0.0;
  for (auto _ : state) {
    const auto sol = solve_lp(lp);
    obj = sol.objective;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["objective"] = obj;
}
BENCHMARK(BM_LpSolve)->Arg(40)->Arg(80)->Arg(160);

OptimizerInput testbed_scale_problem(int links, int flows, std::uint64_t seed) {
  OptimizerInput in;
  RngStream rng(seed, "bench-lp");
  const ConflictGraph g = random_conflicts(links, 0.5, seed);
  std::vector<double> caps;
  for (int l = 0; l < links; ++l) caps.push_back(rng.uniform(0.3e6, 5e6));
  in.extreme_points = build_extreme_point_matrix(caps, g);
  in.routing = DenseMatrix(links, flows);
  for (int f = 0; f < flows; ++f) {
    // Each flow crosses 1-4 random links.
    const int hops = rng.uniform_int(1, 4);
    for (int h = 0; h < hops; ++h)
      in.routing(rng.uniform_int(0, links - 1), f) = 1.0;
  }
  return in;
}

void BM_MaxThroughputLp(benchmark::State& state) {
  const auto in = testbed_scale_problem(24, 6, 44);
  for (auto _ : state) {
    const auto r = optimize_rates(in, {.objective = Objective::kMaxThroughput});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaxThroughputLp);

void BM_ProportionalFairFrankWolfe(benchmark::State& state) {
  const auto in = testbed_scale_problem(24, 6, 45);
  for (auto _ : state) {
    const auto r =
        optimize_rates(in, {.objective = Objective::kProportionalFair});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ProportionalFairFrankWolfe);

void BM_MaxMinWaterfilling(benchmark::State& state) {
  const auto in = testbed_scale_problem(24, 6, 46);
  for (auto _ : state) {
    const auto r = optimize_rates(in, {.objective = Objective::kMaxMin});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaxMinWaterfilling);

// ---------------------------------------------------------------- sweep
// Repeated small sweeps on one runner: the shape of a many-small-cell
// parameter grid. A pool-per-sweep runner pays thread spawn/join every
// iteration; the persistent work-stealing pool parks between runs.
void BM_SweepRepeatedTinySweeps(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  SweepRunner runner(4);
  for (auto _ : state) {
    auto out = runner.run(jobs, 99, [](const SweepJob& job) {
      RngStream rng(job.seed, "cell");
      double acc = 0.0;
      for (int i = 0; i < 64; ++i) acc += rng.uniform();
      return acc;
    });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_SweepRepeatedTinySweeps)->Arg(8)->Arg(64);

// ------------------------------------------------------------- control
// The 4-node gateway scenario shared by BM_ControllerRound and
// BM_TraceReplayRound — one definition, so the replay-vs-live comparison
// is structurally over the same topology, flows, and controller tuning.
// Kept local, mirroring scenario/topologies.h build_gateway_chain.
void build_bench_gateway(Workbench& wb) {
  wb.add_nodes(4);
  Channel& ch = wb.channel();
  for (NodeId a = 0; a < 4; ++a)
    for (NodeId b = 0; b < 4; ++b)
      if (a != b) ch.set_rss_dbm(a, b, -120.0);
  ch.set_rss_symmetric_dbm(0, 1, -58.0);
  ch.set_rss_symmetric_dbm(1, 2, -58.0);
  ch.set_rss_symmetric_dbm(3, 2, -56.0);
  ch.set_rss_symmetric_dbm(1, 3, -70.0);
}

ControllerConfig bench_gateway_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 60;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

void add_bench_gateway_flows(Workbench& wb, MeshController& ctl) {
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl.manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl.manage_flow(near);
}

// One full controller round on the 4-node gateway scenario: probing
// simulation for a whole estimation window, loss/capacity estimation,
// conflict-graph + extreme-point build, proportional-fair optimization,
// shaper programming. The paper's online cadence, end to end.
void BM_ControllerRound(benchmark::State& state) {
  Workbench wb(71);
  build_bench_gateway(wb);
  MeshController ctl(wb.net(), bench_gateway_config(), 71);
  add_bench_gateway_flows(wb, ctl);

  for (auto _ : state) {
    const RoundResult round = ctl.run_round(wb);
    benchmark::DoNotOptimize(round);
  }
}
BENCHMARK(BM_ControllerRound);

// The same round with a TraceRecorder attached at its default sampling:
// every stage span, cache event, and health event lands in the ring.
// Against BM_ControllerRound (same build, observer detached) this is the
// tracing plane's enabled overhead — the acceptance bar is <= 1.03x.
void BM_ControllerRoundTraced(benchmark::State& state) {
  Workbench wb(71);
  build_bench_gateway(wb);
  MeshController ctl(wb.net(), bench_gateway_config(), 71);
  add_bench_gateway_flows(wb, ctl);
  TraceRecorder obs;
  ctl.set_observer(&obs);

  for (auto _ : state) {
    const RoundResult round = ctl.run_round(wb);
    benchmark::DoNotOptimize(round);
  }
  state.counters["records"] = static_cast<double>(obs.records_emitted());
}
BENCHMARK(BM_ControllerRoundTraced);

// The same full round through the guarded control loop on clean inputs:
// snapshot validation, plan guardrails, and the health state machine ride
// along on every window. Against BM_ControllerRound this is the guard
// layer's overhead on the healthy path — the acceptance bar is <= 1.05x,
// i.e. validation must be noise next to the probing simulation and the
// optimizer.
void BM_GuardedRound(benchmark::State& state) {
  Workbench wb(71);
  build_bench_gateway(wb);
  MeshController ctl(wb.net(), bench_gateway_config(), 71);
  add_bench_gateway_flows(wb, ctl);
  ctl.set_guard(GuardConfig{});
  LiveSource live(wb, ctl);

  for (auto _ : state) {
    const RoundResult round = ctl.guarded_round(live);
    benchmark::DoNotOptimize(round);
  }
}
BENCHMARK(BM_GuardedRound);

// Trace replay: the same gateway scenario as BM_ControllerRound, but the
// probing windows were recorded once up front (outside the timed loop)
// and each planned round is pure snapshot -> model -> plan work through
// ControllerFleet::replay — no Simulator, no MAC, no probing. The
// per-round time against BM_ControllerRound is the record-once/replay-
// many payoff: one planned round costs optimizer work only.
void BM_TraceReplayRound(benchmark::State& state) {
  // Record an 8-round trace of the BM_ControllerRound scenario (the
  // shared gateway helpers above keep the two benches structurally on
  // the same topology, flows, and tuning).
  Workbench wb(71);
  build_bench_gateway(wb);
  const ControllerConfig cfg = bench_gateway_config();
  MeshController ctl(wb.net(), cfg, 71);
  add_bench_gateway_flows(wb, ctl);

  std::vector<MeasurementSnapshot> trace;
  {
    LiveSource live(wb, ctl, /*max_windows=*/8);
    MeasurementSnapshot snap;
    while (live.next(snap)) trace.push_back(snap);
  }

  ControllerFleet fleet(1);
  ReplayCell cell;
  cell.flows = ctl.flow_specs();
  cell.plan = cfg.plan();

  std::int64_t rounds = 0;
  for (auto _ : state) {
    const auto results = fleet.replay({cell}, trace);
    rounds += static_cast<std::int64_t>(results[0].plans.size());
    benchmark::DoNotOptimize(results);
  }
  // items/s is planned rounds per second; compare against one iteration
  // of BM_ControllerRound (one live round) for the replay speedup.
  state.SetItemsProcessed(rounds);
}
BENCHMARK(BM_TraceReplayRound);

// Fleet driver: 8 independent controller loops (gateway variants ×
// objectives) per iteration, on 1 worker vs 4. Results are bit-identical
// across thread counts; only wall clock changes.
void BM_FleetSweep(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  ControllerFleet fleet(threads);
  std::vector<FleetCell> cells;
  const Objective objectives[] = {Objective::kProportionalFair,
                                  Objective::kMaxThroughput};
  for (int v = 0; v < 4; ++v) {
    for (const Objective obj : objectives) {
      FleetCell cell;
      const double rss = -56.0 - v;
      cell.build_topology = [rss](Workbench& wb) {
        wb.add_nodes(4);
        Channel& ch = wb.channel();
        for (NodeId a = 0; a < 4; ++a)
          for (NodeId b = 0; b < 4; ++b)
            if (a != b) ch.set_rss_dbm(a, b, -120.0);
        ch.set_rss_symmetric_dbm(0, 1, -58.0);
        ch.set_rss_symmetric_dbm(1, 2, -58.0);
        ch.set_rss_symmetric_dbm(3, 2, rss);
        ch.set_rss_symmetric_dbm(1, 3, -70.0);
      };
      cell.flows = {FleetFlow{{0, 1, 2}}, FleetFlow{{3, 2}}};
      cell.controller.probe_period_s = 0.25;
      cell.controller.probe_window = 40;
      cell.controller.optimizer.objective = obj;
      cells.push_back(std::move(cell));
    }
  }
  for (auto _ : state) {
    const auto results = fleet.run(cells, 2025);
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cells.size()));
}
BENCHMARK(BM_FleetSweep)->Arg(1)->Arg(4);

// Planner model cache on a constant-topology replay: a 16-round trace at
// MIS/80-class scale (80 links, LIR density 0.5, K ~ 5.5k extreme points)
// whose capacities drift every round while the topology holds. Arg(0)
// runs the PR-4 replay inner loop's model work — a full
// InterferenceModel::build (Bron–Kerbosch + matrix fill) per round.
// Arg(1) runs the same rounds through a warm Planner: fingerprint lookup
// + in-place member-cell capacity refresh, no enumeration, no refill.
// items/s = model rounds per second; the Arg(1)/Arg(0) ratio is the
// cached-replay speedup (plans are bit-identical either way,
// tests/test_planner.cpp). The plan stage is deliberately excluded: at
// K ~ 5.5k the LP dominates a full planned round and would mask what the
// cache changes (see BENCH_core.json notes).
std::vector<MeasurementSnapshot> mis80_trace(int rounds) {
  RngStream rng(61, "bench-planner");
  MeasurementSnapshot base;
  const int links = 80;
  for (int i = 0; i < links; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = rng.uniform(0.5e6, 5e6);
    base.links.push_back(l);
  }
  base.lir.resize(links, links, 1.0);
  for (int i = 0; i < links; ++i)
    for (int j = i + 1; j < links; ++j)
      if (rng.bernoulli(0.5)) base.lir(i, j) = base.lir(j, i) = 0.4;

  std::vector<MeasurementSnapshot> trace;
  trace.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    MeasurementSnapshot snap = base;
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= rng.uniform(0.8, 1.2);
    trace.push_back(std::move(snap));
  }
  return trace;
}

void BM_ReplayCachedModel(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const std::vector<MeasurementSnapshot> trace = mis80_trace(16);
  Planner planner(cached ? 4 : 0);
  std::int64_t rounds = 0;
  int extreme_points = 0;
  for (auto _ : state) {
    for (const MeasurementSnapshot& snap : trace) {
      const InterferenceModel& model =
          planner.model(snap, InterferenceModelKind::kLirTable);
      extreme_points = model.extreme_points().rows();
      benchmark::DoNotOptimize(model);
      ++rounds;
    }
  }
  state.SetItemsProcessed(rounds);
  state.counters["K"] = extreme_points;
}
BENCHMARK(BM_ReplayCachedModel)->Arg(0)->Arg(1);

// Plan tiers on the same MIS/80-class replay, now timing whole planned
// rounds (model + plan, proportional fair). Arg(0) is the exact tier:
// the LP over all K ~ 5.5k extreme-point columns dominates. Arg(1) is
// the fast tier: column generation prices in a few dozen columns against
// the conflict graph and warm-starts each round from the previous one's
// working set and basis. items/s = planned rounds per second; the
// Arg(1)/Arg(0) ratio is the tier speedup pinned in BENCH_core.json
// (>= 5x), bought at a <= 1e-6 relative objective gap
// (tests/test_plan_tiers.cpp).
void BM_ReplayColumnGen(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  const std::vector<MeasurementSnapshot> trace = mis80_trace(16);
  std::vector<FlowSpec> flows(3);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2, 3, 4, 5};
  flows[1].flow_id = 1;
  flows[1].path = {38, 39, 40, 41, 42, 43};
  flows[2].flow_id = 2;
  flows[2].path = {75, 76, 77, 78, 79, 80};
  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;
  cfg.tier = fast ? PlanTier::kFast : PlanTier::kExact;
  Planner planner(4);
  std::int64_t rounds = 0;
  int extreme_points = 0;
  for (auto _ : state) {
    for (const MeasurementSnapshot& snap : trace) {
      const RatePlan plan =
          planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
      extreme_points = plan.extreme_points;
      benchmark::DoNotOptimize(plan);
      ++rounds;
    }
  }
  state.SetItemsProcessed(rounds);
  state.counters["K"] = extreme_points;
}
BENCHMARK(BM_ReplayColumnGen)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// City-scale replay through the fleet: a 203-link city (4 gateway-cluster
// cliques of 50 + 3 RF-silent bridges, 7 conflict components), planned
// max-throughput on the fast tier over a 3-round trace — an initial model
// key, a capacity-drift round (warm), and one cluster's LIR churn (re-key).
// Arg(0) replays monolithically: column generation prices against the full
// 203-link conflict graph and every churn re-keys the whole model (~13 s a
// cold round on the reference host; the proportional-fair tier does not
// even converge monolithically at this scale). Arg(1) replays through
// DecomposedPlanner: each solve works on a 50-link block and churn re-keys
// only the churned cluster's slot. items/s = planned rounds per second;
// the Arg(1)/Arg(0) ratio is the decomposition speedup pinned in
// BENCH_core.json (>= 5x), bought at a <= 1e-9 relative objective gap on
// separable instances (tests/test_decompose.cpp, which also pins
// bit-identical plans across pool thread counts). CI smoke runs only the
// Arg(1) cell — the monolithic baseline is minutes, the decomposed cell
// milliseconds; that asymmetry is the result.
void BM_ReplayDecomposed(benchmark::State& state) {
  const bool decompose = state.range(0) != 0;
  CityParams p;
  p.links_per_cluster = 50;  // 4 x 50 + 3 bridges = 203 links
  std::vector<MeasurementSnapshot> trace;
  for (int r = 0; r < 3; ++r) {
    MeasurementSnapshot snap = build_city_snapshot(p);
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + 0.01 * r;
    trace.push_back(std::move(snap));
  }
  // Localized churn on the last round: cluster 0's LIR values move
  // (conflicts persist, so the component partition is stable).
  for (int i : city_cluster_links(p, 0))
    for (int j : city_cluster_links(p, 0))
      if (i != j) trace.back().lir(i, j) = p.conflict_lir - 0.02;

  ReplayCell cell;
  cell.flows = city_flows(p);
  cell.plan.optimizer.objective = Objective::kMaxThroughput;
  cell.plan.tier = PlanTier::kFast;
  cell.interference = InterferenceModelKind::kLirTable;

  ReplayOptions opts;
  opts.decompose = decompose;
  opts.mis_cap = 4000;  // shared cap: both cells enumerate bounded rows
  opts.segment_rounds = 3;  // one warm segment per replay

  ControllerFleet fleet(1);
  std::int64_t planned = 0;
  for (auto _ : state) {
    const std::vector<ReplayResult> res =
        fleet.replay({cell}, trace, opts);
    benchmark::DoNotOptimize(res);
    planned += 3;
  }
  state.SetItemsProcessed(planned);
  state.counters["links"] = 203;
  state.counters["components"] = 7;
}
BENCHMARK(BM_ReplayDecomposed)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// A full controller round while a dynamics script is live: the gateway
// scenario with a hidden interferer duty-cycling at the receiver and
// random-walk loss drift on the chain's first hop. Compares against
// BM_ControllerRound (the static scenario) to price what scripted churn
// adds to the probing-window simulation.
void BM_DynamicsRound(benchmark::State& state) {
  Workbench wb(73);
  build_bench_gateway(wb);
  const NodeId jam = wb.channel().add_node(nullptr);
  wb.channel().set_rss_dbm(jam, 2, -62.0);
  MeshController ctl(wb.net(), bench_gateway_config(), 73);
  add_bench_gateway_flows(wb, ctl);

  const double window_s = ctl.probing_window_seconds();
  DynamicsScript script;
  // Interferer flapping + drift scripted far past any bench horizon.
  script.merge(markov_interferer(jam, 2.0 * window_s, 2.0 * window_s,
                                 4000.0 * window_s, RngStream(73, "jam")));
  script.merge(random_walk_loss_drift(0, 1, Rate::kR1Mbps, 0.02, 0.01,
                                      window_s, 4000.0 * window_s,
                                      RngStream(73, "drift")));
  DynamicsEngine dynamics(wb, std::move(script));
  dynamics.arm();

  for (auto _ : state) {
    const RoundResult round = ctl.run_round(wb);
    benchmark::DoNotOptimize(round);
  }
}
BENCHMARK(BM_DynamicsRound);

// Multi-tenant serving throughput. Every tenant is a registered session
// of one PlanService (own Planner cache, own round sequence); each
// iteration submits one fresh snapshot per tenant and serves the whole
// batch across the pool. The snapshot is a 9-link LIR mesh — small
// enough that service overhead (admission, queues, batching, metrics) is
// visible over the plan itself, large enough that planning is real work.
// items/s = plans served per second at Arg(0) tenants; counters report
// the wall p99 enqueue->plan latency in microseconds. Compare per-plan
// time against BM_ServeBarePlanner below: the difference is the whole
// serving layer's per-plan tax (BENCH_core.json pins <= 1.3x).
MeasurementSnapshot serve_bench_snapshot(int round) {
  constexpr int kLinks = 9;
  RngStream top(67, "bench-serve-top");
  RngStream cap(RngStream::mix(67, static_cast<std::uint64_t>(round)),
                "bench-serve-cap");
  MeasurementSnapshot snap;
  for (int i = 0; i < kLinks; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = cap.uniform(1.5e6, 5e6);
    l.estimate.p_link = 0.02;
    snap.links.push_back(l);
  }
  snap.lir.resize(kLinks, kLinks, 1.0);
  for (int i = 0; i < kLinks; ++i)
    for (int j = i + 1; j < kLinks; ++j)
      if (top.bernoulli(0.4)) snap.lir(i, j) = snap.lir(j, i) = 0.4;
  snap.lir_threshold = 0.95;
  return snap;
}

std::vector<FlowSpec> serve_bench_flows() {
  std::vector<FlowSpec> flows(3);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2, 3};
  flows[1].flow_id = 1;
  flows[1].path = {3, 4, 5};
  flows[2].flow_id = 2;
  flows[2].path = {6, 7, 8};
  return flows;
}

void BM_ServeBatch(benchmark::State& state) {
  const auto tenants = static_cast<std::uint32_t>(state.range(0));
  const std::vector<MeasurementSnapshot> trace = {serve_bench_snapshot(0),
                                                  serve_bench_snapshot(1)};
  ServeConfig cfg;
  cfg.global_queue_limit = tenants;
  PlanService svc(cfg);
  TenantConfig tc;
  tc.flows = serve_bench_flows();
  for (std::uint32_t t = 0; t < tenants; ++t) svc.add_tenant(tc);

  std::int64_t plans = 0;
  long long tick = 0;
  for (auto _ : state) {
    const MeasurementSnapshot& snap =
        trace[static_cast<std::size_t>(tick) % trace.size()];
    for (std::uint32_t t = 0; t < tenants; ++t) svc.submit(t, snap, tick);
    const ServeBatchReport batch = svc.run_batch(tick);
    plans += static_cast<std::int64_t>(batch.served.size());
    benchmark::DoNotOptimize(batch);
    ++tick;
  }
  state.SetItemsProcessed(plans);
  state.counters["p99_us"] =
      1e6 * svc.metrics().wall_latency_s().quantile(0.99);
}
BENCHMARK(BM_ServeBatch)->Arg(64)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// BM_ServeBatch with the service observed: per-tenant serve spans land in
// session-local recorders that run_batch absorbs in batch order. Against
// BM_ServeBatch (observer detached) this is the serving plane's tracing
// overhead — same <= 1.03x acceptance bar as BM_ControllerRoundTraced.
void BM_ServeBatchTraced(benchmark::State& state) {
  const auto tenants = static_cast<std::uint32_t>(state.range(0));
  const std::vector<MeasurementSnapshot> trace = {serve_bench_snapshot(0),
                                                  serve_bench_snapshot(1)};
  ServeConfig cfg;
  cfg.global_queue_limit = tenants;
  PlanService svc(cfg);
  TenantConfig tc;
  tc.flows = serve_bench_flows();
  for (std::uint32_t t = 0; t < tenants; ++t) svc.add_tenant(tc);
  TraceRecorder obs;
  svc.set_observer(&obs);

  std::int64_t plans = 0;
  long long tick = 0;
  for (auto _ : state) {
    const MeasurementSnapshot& snap =
        trace[static_cast<std::size_t>(tick) % trace.size()];
    for (std::uint32_t t = 0; t < tenants; ++t) svc.submit(t, snap, tick);
    const ServeBatchReport batch = svc.run_batch(tick);
    plans += static_cast<std::int64_t>(batch.served.size());
    benchmark::DoNotOptimize(batch);
    ++tick;
  }
  state.SetItemsProcessed(plans);
  state.counters["records"] = static_cast<double>(obs.records_emitted());
}
BENCHMARK(BM_ServeBatchTraced)->Arg(64)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

// The per-plan cost floor for the comparison above: the same snapshots,
// flows, and tier through a bare warm Planner — no service, no queues,
// no metrics. This is exactly the planned-round inner loop a
// ControllerFleet::replay segment runs per round.
void BM_ServeBarePlanner(benchmark::State& state) {
  const std::vector<MeasurementSnapshot> trace = {serve_bench_snapshot(0),
                                                  serve_bench_snapshot(1)};
  const std::vector<FlowSpec> flows = serve_bench_flows();
  const PlanConfig cfg;
  Planner planner(4);
  std::int64_t plans = 0;
  for (auto _ : state) {
    const MeasurementSnapshot& snap =
        trace[static_cast<std::size_t>(plans) % trace.size()];
    const RatePlan plan =
        planner.plan(snap, InterferenceModelKind::kTwoHop, flows, cfg);
    benchmark::DoNotOptimize(plan);
    ++plans;
  }
  state.SetItemsProcessed(plans);
}
BENCHMARK(BM_ServeBarePlanner);

void BM_ChannelLossEstimator(benchmark::State& state) {
  const int s = static_cast<int>(state.range(0));
  RngStream rng(47, "bench-est");
  std::vector<std::uint8_t> pattern(static_cast<std::size_t>(s));
  for (int i = 0; i < s; ++i) {
    const bool burst = (i / 60) % 4 == 0;
    pattern[static_cast<std::size_t>(i)] =
        rng.bernoulli(burst ? 0.9 : 0.07) ? 1 : 0;
  }
  for (auto _ : state) {
    const auto est = estimate_channel_loss(pattern);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_ChannelLossEstimator)->Arg(200)->Arg(640)->Arg(1280);

}  // namespace
}  // namespace meshopt

BENCHMARK_MAIN();
