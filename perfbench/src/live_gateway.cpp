// live_gateway: the paper's online cadence. The 4-node gateway of
// BM_ControllerRound under BM_DynamicsRound's script (a Markov hidden
// interferer at the gateway receiver, random-walk loss drift on the first
// hop), driven through the guarded loop over a LiveSource with the
// proportional-fair objective, on one thread, as a closed loop: the next
// round starts when the previous one has applied its plan.

#include <memory>

#include "bench.h"
#include "core/controller.h"
#include "probe/live_source.h"
#include "scenario/dynamics.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"

namespace perfbench {
namespace {

using namespace meshopt;

constexpr int kWarmupRounds = 30;
constexpr int kRoundsPerPass = 1000;
/// Timed-phase length of one pass on the reference host (4-vCPU VM).
constexpr double kNominalPassS = 2.0;

struct Gateway {
  explicit Gateway(std::uint64_t seed);

  Workbench wb;
  std::unique_ptr<MeshController> ctl;
  std::unique_ptr<DynamicsEngine> dynamics;
  std::unique_ptr<LiveSource> live;
};

Gateway::Gateway(std::uint64_t seed) : wb(seed) {
  build_gateway_chain(wb);
  const NodeId jam = wb.channel().add_node(nullptr);
  wb.channel().set_rss_dbm(jam, 2, -62.0);

  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 60;
  cfg.optimizer.objective = Objective::kProportionalFair;
  ctl = std::make_unique<MeshController>(wb.net(), cfg, seed);
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl->manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl->manage_flow(near);
  ctl->set_guard(GuardConfig{});

  // The script covers every window a pass senses, with a margin.
  const double window_s = ctl->probing_window_seconds();
  const double horizon_s = (kWarmupRounds + kRoundsPerPass + 10) * window_s;
  DynamicsScript script;
  script.merge(markov_interferer(jam, 2.0 * window_s, 2.0 * window_s,
                                 horizon_s, RngStream(seed, "jam")));
  script.merge(random_walk_loss_drift(0, 1, Rate::kR1Mbps, 0.02, 0.01,
                                      window_s, horizon_s,
                                      RngStream(seed, "drift")));
  dynamics = std::make_unique<DynamicsEngine>(wb, std::move(script));
  dynamics->arm();
  live = std::make_unique<LiveSource>(wb, *ctl);
}

struct Layers {
  explicit Layers(Tracer& t)
      : round(t.layer("round")),
        probe_start(t.layer("sense.probe_start")),
        sim(t.layer("sense.sim")),
        estimate(t.layer("estimate")),
        snapshot(t.layer("sense.snapshot_copy")),
        step(t.layer("core.step")) {}
  int round, probe_start, sim, estimate, snapshot, step;
};

struct PassOut {
  double setup_s = 0.0;
  double timed_s = 0.0;
  std::vector<double> round_ms;
  Digest digest;
  double utility_sum = 0.0;
  int utility_n = 0;
  std::uint64_t failed = 0;
  std::uint64_t sim_events = 0;
  HealthStats health;
  PlannerStats planner;
};

/// One guarded round, split into the public calls guarded_round(LiveSource)
/// makes, each under its own span: start probing, simulate one probing
/// window, estimate, copy the snapshot out, then the guarded plan step.
RoundResult traced_round(Gateway& g, Tracer& tr, const Layers& l,
                         std::uint64_t& sim_events) {
  const Scope round(&tr, l.round);
  {
    const Scope s(&tr, l.probe_start, round.id());
    g.ctl->start_probing();
  }
  {
    const Scope s(&tr, l.sim, round.id());
    const std::uint64_t before = g.wb.sim().executed_events();
    g.wb.run_for(g.ctl->probing_window_seconds());
    sim_events += g.wb.sim().executed_events() - before;
  }
  {
    const Scope s(&tr, l.estimate, round.id());
    g.ctl->update_estimates();
  }
  MeasurementSnapshot snap;
  {
    const Scope s(&tr, l.snapshot, round.id());
    snap = g.ctl->snapshot();
  }
  const Scope s(&tr, l.step, round.id());
  return g.ctl->guarded_step(std::move(snap));
}

PassOut run_pass(std::uint64_t seed, Tracer* tr, const Layers* layers) {
  PassOut out;
  const std::int64_t s0 = now_ns();
  Gateway g(seed);
  for (int r = 0; r < kWarmupRounds; ++r) (void)g.ctl->guarded_round(*g.live);
  const std::int64_t t0 = now_ns();
  out.setup_s = ms_between(s0, t0) * 1e-3;

  out.round_ms.reserve(kRoundsPerPass);
  for (int r = 0; r < kRoundsPerPass; ++r) {
    const std::int64_t r0 = now_ns();
    const RoundResult round =
        tr != nullptr ? traced_round(g, *tr, *layers, out.sim_events)
                      : g.ctl->guarded_round(*g.live);
    out.round_ms.push_back(ms_between(r0, now_ns()));

    out.digest.add(static_cast<std::uint64_t>(round.ok));
    out.digest.add(static_cast<std::uint64_t>(round.held));
    out.digest.add(static_cast<std::uint64_t>(round.health));
    out.digest.add(round.y);
    out.digest.add(round.x);
    if (round.ok && !round.held) {
      out.utility_sum += pf_utility(round.y);
      ++out.utility_n;
    } else {
      ++out.failed;
    }
  }
  out.timed_s = ms_between(t0, now_ns()) * 1e-3;
  log_pass("live_gateway", out.setup_s, out.timed_s, kRoundsPerPass,
           out.round_ms);
  out.health = g.ctl->health_stats();
  out.planner = g.ctl->planner().stats();
  return out;
}

void check_same(Result& res, const PassOut& ref, const PassOut& p,
                const char* what) {
  res.check(p.digest.value() == ref.digest.value(),
            std::string("live_gateway: ") + what +
                " pass planned differently on the same inputs (digest " +
                p.digest.hex() + " vs " + ref.digest.hex() + ")");
}

}  // namespace

Result run_live_gateway(const Options& opt) {
  Result res;
  std::vector<PassOut> plain;
  std::vector<PassOut> traced;
  Tracer tracer;
  const Layers layers(tracer);

  if (!opt.trace) {
    const int passes = pass_count(opt.seconds, kNominalPassS);
    for (int p = 0; p < passes; ++p)
      plain.push_back(run_pass(pass_seed(opt.seed, p), nullptr, nullptr));
    check_same(res, plain.front(),
               run_pass(pass_seed(opt.seed, 0), nullptr, nullptr),
               "a repeated");
  } else {
    // Untraced and traced passes alternate on the same inputs, in ABBA
    // order, so host drift hits both alike and their ratio is the tracing
    // overhead.
    const int pairs = pass_count(opt.seconds, 2.0 * kNominalPassS, 2);
    for (int p = 0; p < pairs; ++p) {
      const std::uint64_t seed = pass_seed(opt.seed, p);
      if (p % 2 == 1) traced.push_back(run_pass(seed, &tracer, &layers));
      plain.push_back(run_pass(seed, nullptr, nullptr));
      if (p % 2 == 0) traced.push_back(run_pass(seed, &tracer, &layers));
      check_same(res, plain.back(), traced.back(), "a traced");
    }
  }
  res.digest = plain.front().digest.hex();

  std::vector<double> setup;
  std::vector<double> throughput;
  std::vector<double> utility;
  std::vector<std::vector<double>> latency;
  for (const std::vector<PassOut>* set : {&plain, &traced}) {
    for (const PassOut& p : *set) {
      res.attempted += kRoundsPerPass;
      res.failed += p.failed;
      ++res.passes;
      res.timed_s += p.timed_s;
    }
  }
  for (const PassOut& p : plain) {
    setup.push_back(p.setup_s);
    throughput.push_back(kRoundsPerPass / p.timed_s);
    latency.push_back(p.round_ms);
    utility.push_back(p.utility_n > 0 ? p.utility_sum / p.utility_n : 0.0);
    res.repaired += p.health.snapshots_repaired;
  }
  res.utility = mean(utility);

  if (!opt.trace) {
    res.metric("setup_s", median(setup), "s");
    res.metric("throughput_per_s", median(throughput), "1/s");
    res.metric("latency_ms.p50", median_of_quantiles(latency, 0.50), "ms");
    res.metric("latency_ms.p99", median_of_quantiles(latency, 0.99), "ms");
    res.metric("utility", res.utility, "nats");
    return res;
  }

  std::vector<double> traced_s;
  std::vector<double> plain_s;
  double timed_ns = 0.0;
  std::uint64_t events = 0;
  for (const PassOut& p : traced) {
    traced_s.push_back(p.timed_s);
    timed_ns += p.timed_s * 1e9;
    events += p.sim_events;
  }
  for (const PassOut& p : plain) plain_s.push_back(p.timed_s);
  const double rounds =
      static_cast<double>(traced.size()) * kRoundsPerPass;
  const std::vector<double> sim = tracer.durations_ms(layers.sim);
  const std::vector<double> est = tracer.durations_ms(layers.estimate);
  const std::vector<double> step = tracer.durations_ms(layers.step);
  double sim_ms = 0.0;
  for (const double d : sim) sim_ms += d;
  double hits = 0.0;
  double lookups = 0.0;
  double held = 0.0;
  double repaired = 0.0;
  for (const PassOut& p : traced) {
    hits += static_cast<double>(p.planner.hits);
    lookups += static_cast<double>(p.planner.hits + p.planner.misses);
    held += static_cast<double>(p.health.fallback_rounds);
    repaired += static_cast<double>(p.health.snapshots_repaired);
  }

  res.metric("sense.sim_ms.p50", quantile(sim, 0.50), "ms");
  res.metric("sense.sim_ms.p99", quantile(sim, 0.99), "ms");
  res.metric("sense.events_per_round", static_cast<double>(events) / rounds,
             "count");
  res.metric("sense.ns_per_event",
             events > 0 ? sim_ms * 1e6 / static_cast<double>(events) : 0.0,
             "ns");
  res.metric("estimate.ms.p50", quantile(est, 0.50), "ms");
  res.metric("estimate.ms.p99", quantile(est, 0.99), "ms");
  res.metric("core.step_ms.p50", quantile(step, 0.50), "ms");
  res.metric("core.step_ms.p99", quantile(step, 0.99), "ms");
  res.metric("core.held_rounds", held, "count");
  res.metric("core.repaired_rounds", repaired, "count");
  res.metric("model.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
             "ratio");
  // Layer spans are the children of the round spans; the rest of the
  // timed phase is the loop itself and the digest.
  res.coverage(static_cast<double>(tracer.total_ns(
                   {layers.probe_start, layers.sim, layers.estimate,
                    layers.snapshot, layers.step})),
               timed_ns);
  res.metric("trace.overhead_ratio", median(traced_s) / median(plain_s),
             "ratio");
  if (!opt.spans_path.empty()) tracer.write(opt.spans_path);
  return res;
}

}  // namespace perfbench
