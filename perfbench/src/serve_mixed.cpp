// serve_mixed: one PlanService with 2000 tenants in serve_study's four
// profiles (exact; fast; guarded, with a NaN-capacity snapshot every
// fourth round; fast-fifo, with no coalescing and a queue limit of 2),
// timed on 1 worker (the calling thread): on a shared host a 2-worker
// pool's batch time follows whichever vCPU the host stalls, so 2 workers
// only serve the determinism checks and the speedup of the traced run.
// The schedule is staggered_replay_script with duplicate
// bursts, driven tick by tick: submit the tick's events, then run_batch.
// This is a closed loop over logical ticks; no wall clock decides what is
// submitted or coalesced, so every pass serves the same plans.

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/planner.h"
#include "serve/plan_service.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace meshopt;

constexpr std::uint32_t kTenants = 2000;
constexpr int kRoundsPerTenant = 30;
constexpr int kPoolRounds = 8;
constexpr int kTicksPerRound = 4;
constexpr int kBurstEvery = 7;
/// Workers of the timed service, and of the service it is checked against.
constexpr int kWorkers = 1;
constexpr int kCheckWorkers = 2;
/// The first round of the schedule is set-up (cold tenant caches).
constexpr long long kWarmupTicks = kTicksPerRound;
/// Ticks of the schedule the run_script and 1- vs 2-worker checks replay.
constexpr long long kPrefixTicks = 3 * kTicksPerRound;
/// Timed-phase length of one pass on the reference host (4-vCPU VM).
constexpr double kNominalPassS = 3.0;

/// A 9-link LIR mesh (topology fixed by the seed) with per-round capacity
/// jitter; a poisoned variant carries a NaN capacity on the one link no
/// flow uses, which the guard's repair tier drops.
MeasurementSnapshot mesh_snapshot(std::uint64_t seed, int round,
                                  bool poisoned) {
  constexpr int kLinks = 9;
  MeasurementSnapshot snap;
  RngStream top(seed, "serve-mixed-topology");
  RngStream cap(RngStream::mix(seed, static_cast<std::uint64_t>(round)),
                "serve-mixed-caps");
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
  if (poisoned)
    snap.links.back().estimate.capacity_bps =
        std::numeric_limits<double>::quiet_NaN();
  return snap;
}

std::vector<FlowSpec> mesh_flows() {
  std::vector<FlowSpec> flows(3);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2, 3};
  flows[1].flow_id = 1;
  flows[1].path = {3, 4, 5};
  flows[2].flow_id = 2;
  flows[2].path = {6, 7, 8};
  return flows;
}

TenantConfig profile_config(std::uint32_t tenant) {
  TenantConfig cfg;
  cfg.flows = mesh_flows();
  switch (tenant % 4) {
    case 0:  // exact, unguarded, coalescing
      break;
    case 1:  // fast
      cfg.plan.tier = PlanTier::kFast;
      break;
    case 2:  // guarded
      cfg.guarded = true;
      break;
    default:  // fast-fifo
      cfg.plan.tier = PlanTier::kFast;
      cfg.coalesce = false;
      cfg.queue_limit = 2;
      break;
  }
  return cfg;
}

/// Snapshot pool (pool[2k] clean round k, pool[2k+1] its poisoned twin)
/// and the schedule. Guarded tenants submit the poisoned twin every
/// fourth round, at a per-tenant phase drawn from the seed.
struct Inputs {
  std::vector<MeasurementSnapshot> pool;
  ServeScript script;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (int r = 0; r < kPoolRounds; ++r) {
    in.pool.push_back(mesh_snapshot(seed, r, false));
    in.pool.push_back(mesh_snapshot(seed, r, true));
  }
  in.script = staggered_replay_script(kTenants, kRoundsPerTenant, kPoolRounds,
                                      kTicksPerRound, seed, kBurstEvery);
  RngStream rng(seed, "serve-mixed-poison");
  std::vector<int> phase(kTenants);
  for (int& p : phase) p = rng.uniform_int(0, 3);
  for (ServeEvent& ev : in.script.events) {
    // Round r of a tenant lands at tick r * kTicksPerRound + offset, with
    // offset < kTicksPerRound.
    const long long round = ev.tick / kTicksPerRound;
    const bool poison =
        ev.tenant % 4 == 2 && (round + phase[ev.tenant]) % 4 == 0;
    ev.snapshot_ref = 2 * ev.snapshot_ref + (poison ? 1 : 0);
  }
  return in;
}

std::unique_ptr<PlanService> make_service(int workers) {
  ServeConfig cfg;
  cfg.threads = workers;
  auto svc = std::make_unique<PlanService>(cfg);
  for (std::uint32_t t = 0; t < kTenants; ++t)
    svc->add_tenant(profile_config(t));
  return svc;
}

struct Layers {
  explicit Layers(Tracer& t)
      : submit(t.layer("serve.submit")), batch(t.layer("serve.batch")) {}
  int submit, batch;
};

struct TickStats {
  std::vector<double> latency_ms;  ///< per served request
  std::vector<double> batch_ms;
  double submit_ms = 0.0;
  std::uint64_t submits = 0;
  std::uint64_t served = 0;
};

/// Drives a schedule tick by tick with the same loop as
/// PlanService::run_script: hop idle gaps, submit the tick's events, run
/// one batch, advance.
class TickLoop {
 public:
  TickLoop(PlanService& svc, const Inputs& in) : svc_(svc), in_(in) {
    const auto& ev = in.script.events;
    tick_ = ev.empty() ? 0 : ev.front().tick;
  }

  [[nodiscard]] bool done() const {
    return next_ >= in_.script.events.size() && svc_.pending() == 0;
  }
  [[nodiscard]] long long tick() const { return tick_; }
  [[nodiscard]] const Digest& digest() const { return digest_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::vector<SubmitResult>& submits() { return submits_; }
  [[nodiscard]] std::vector<ServedPlan>& served() { return served_; }
  void keep_outputs() { keep_ = true; }

  void step(Tracer* tr, const Layers& l, TickStats* st) {
    const auto& events = in_.script.events;
    if (svc_.pending() == 0 && next_ < events.size() &&
        events[next_].tick > tick_)
      tick_ = events[next_].tick;
    const std::int64_t t0 = now_ns();
    std::uint64_t n = 0;
    {
      const Scope s(tr, l.submit);
      for (; next_ < events.size() && events[next_].tick <= tick_; ++next_) {
        const ServeEvent& ev = events[next_];
        const SubmitResult r = svc_.submit(
            ev.tenant, in_.pool[static_cast<std::size_t>(ev.snapshot_ref)],
            tick_);
        digest_.add(static_cast<std::uint64_t>(r.status));
        digest_.add(r.round_seq);
        if (!submit_accepted(r.status)) ++failed_;
        if (keep_) submits_.push_back(r);
        ++n;
      }
    }
    const std::int64_t t1 = now_ns();
    ServeBatchReport batch;
    {
      const Scope s(tr, l.batch);
      batch = svc_.run_batch(tick_);
    }
    const std::int64_t t2 = now_ns();
    attempted_ += n;
    tick_start_.resize(static_cast<std::size_t>(tick_) + 1, 0);
    tick_start_[static_cast<std::size_t>(tick_)] = t0;
    for (ServedPlan& p : batch.served) {
      digest_.add(static_cast<std::uint64_t>(p.tenant));
      digest_.add(p.round_seq);
      digest_.add(static_cast<std::uint64_t>(p.submit_tick));
      digest_.add(static_cast<std::uint64_t>(p.served_tick));
      digest_.add(static_cast<std::uint64_t>(p.verdict));
      digest_.add(p.plan);
      digest_.add(static_cast<std::uint64_t>(p.error.size()));
      if (!p.plan.ok) {
        ++failed_;
      } else {
        utility_sum_ += pf_utility(p.plan.y);
        ++utility_n_;
      }
      if (st != nullptr)
        st->latency_ms.push_back(ms_between(
            tick_start_[static_cast<std::size_t>(p.submit_tick)], t2));
      if (keep_) served_.push_back(std::move(p));
    }
    if (st != nullptr) {
      st->batch_ms.push_back(ms_between(t1, t2));
      st->submit_ms += ms_between(t0, t1);
      st->submits += n;
      st->served += batch.served.size();
    }
    ++tick_;
  }

  [[nodiscard]] double utility() const {
    return utility_n_ > 0 ? utility_sum_ / static_cast<double>(utility_n_)
                          : 0.0;
  }

 private:
  PlanService& svc_;
  const Inputs& in_;
  std::size_t next_ = 0;
  long long tick_ = 0;
  std::vector<std::int64_t> tick_start_;
  Digest digest_;
  std::uint64_t failed_ = 0;
  std::uint64_t attempted_ = 0;
  double utility_sum_ = 0.0;
  std::uint64_t utility_n_ = 0;
  bool keep_ = false;
  std::vector<SubmitResult> submits_;
  std::vector<ServedPlan> served_;
};

struct PassOut {
  double setup_s = 0.0;
  double timed_s = 0.0;
  TickStats stats;
  Digest digest;
  double utility = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  ServeCounters counters;
};

PassOut run_pass(std::uint64_t seed, int workers, Tracer* tr,
                 const Layers& l) {
  PassOut out;
  const std::int64_t s0 = now_ns();
  const Inputs in = make_inputs(seed);
  const std::unique_ptr<PlanService> svc = make_service(workers);
  TickLoop loop(*svc, in);
  while (!loop.done() && loop.tick() < kWarmupTicks)
    loop.step(nullptr, l, nullptr);
  const std::int64_t t0 = now_ns();
  out.setup_s = ms_between(s0, t0) * 1e-3;
  while (!loop.done()) loop.step(tr, l, &out.stats);
  out.timed_s = ms_between(t0, now_ns()) * 1e-3;
  log_pass("serve_mixed", out.setup_s, out.timed_s,
           static_cast<double>(out.stats.served), out.stats.latency_ms);
  out.digest = loop.digest();
  out.utility = loop.utility();
  out.attempted = loop.attempted();
  out.failed = loop.failed();
  out.counters = svc->metrics().global();
  return out;
}

/// The tick loop on 2 workers must serve exactly what
/// PlanService::run_script serves on 1 worker, over a prefix of the
/// schedule.
void check_prefix(Result& res, std::uint64_t seed, const Layers& l) {
  Inputs in = make_inputs(seed);
  std::erase_if(in.script.events,
                [](const ServeEvent& ev) { return ev.tick >= kPrefixTicks; });
  const ServeReport ref = make_service(1)->run_script(in.script, in.pool);
  const std::unique_ptr<PlanService> svc = make_service(kCheckWorkers);
  TickLoop loop(*svc, in);
  loop.keep_outputs();
  while (!loop.done()) loop.step(nullptr, l, nullptr);
  res.check(loop.submits() == ref.submit_results &&
                loop.served() == ref.served && !ref.served.empty(),
            "serve_mixed: the 2-worker tick loop did not reproduce "
            "run_script's 1-worker served sequence");
}

/// Single-thread bare Planner::plan over the same clean snapshots, with
/// the exact and fast tiers in the profiles' 1:1 mix (microseconds).
double bare_plan_us(std::uint64_t seed) {
  const Inputs in = make_inputs(seed);
  const std::vector<FlowSpec> flows = mesh_flows();
  std::vector<double> per_plan;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    int plans = 0;
    for (const PlanTier tier : {PlanTier::kExact, PlanTier::kFast}) {
      PlanConfig cfg;
      cfg.tier = tier;
      Planner planner(4);
      for (int i = 0; i < 200; ++i) {
        const RatePlan plan = planner.plan(
            in.pool[static_cast<std::size_t>(2 * (i % kPoolRounds))],
            InterferenceModelKind::kTwoHop, flows, cfg);
        plans += plan.ok ? 1 : 0;
      }
    }
    per_plan.push_back(ms_between(t0, now_ns()) * 1e3 / plans);
  }
  return median(per_plan);
}

void check_same(Result& res, const PassOut& ref, const PassOut& p,
                const char* what) {
  res.check(p.digest.value() == ref.digest.value() &&
                p.counters == ref.counters,
            std::string("serve_mixed: ") + what +
                " pass served differently on the same inputs (digest " +
                p.digest.hex() +
                " vs " + ref.digest.hex() + ")");
}

}  // namespace

Result run_serve_mixed(const Options& opt) {
  Result res;
  Tracer tracer;
  const Layers layers(tracer);
  std::vector<PassOut> plain;
  std::vector<PassOut> traced;

  if (!opt.trace) {
    const int passes = pass_count(opt.seconds, kNominalPassS);
    for (int p = 0; p < passes; ++p)
      plain.push_back(
          run_pass(pass_seed(opt.seed, p), kWorkers, nullptr, layers));
    check_same(res, plain.front(),
               run_pass(pass_seed(opt.seed, 0), kWorkers, nullptr, layers),
               "a repeated");
  } else {
    // Untraced and traced passes alternate on the same inputs, in ABBA
    // order (see live_gateway).
    const int pairs = pass_count(opt.seconds, 3.5 * kNominalPassS, 2);
    for (int p = 0; p < pairs; ++p) {
      const std::uint64_t seed = pass_seed(opt.seed, p);
      if (p % 2 == 1)
        traced.push_back(run_pass(seed, kWorkers, &tracer, layers));
      plain.push_back(run_pass(seed, kWorkers, nullptr, layers));
      if (p % 2 == 0)
        traced.push_back(run_pass(seed, kWorkers, &tracer, layers));
      check_same(res, plain.back(), traced.back(), "a traced");
    }
  }
  check_prefix(res, pass_seed(opt.seed, 0), layers);

  std::vector<double> utility;
  for (const std::vector<PassOut>* set : {&plain, &traced}) {
    for (const PassOut& p : *set) {
      res.attempted += p.attempted;
      res.failed += p.failed;
      res.timed_s += p.timed_s;
      ++res.passes;
    }
  }
  for (const PassOut& p : plain) {
    utility.push_back(p.utility);
    res.repaired += p.counters.totals.snapshots_repaired;
  }
  const PassOut& ref = plain.front();
  res.digest = ref.digest.hex();
  res.utility = mean(utility);

  if (!opt.trace) {
    std::vector<double> setup;
    std::vector<double> throughput;
    std::vector<std::vector<double>> latency;
    for (const PassOut& p : plain) {
      setup.push_back(p.setup_s);
      throughput.push_back(static_cast<double>(p.stats.served) / p.timed_s);
      latency.push_back(p.stats.latency_ms);
    }
    res.metric("setup_s", median(setup), "s");
    res.metric("throughput_per_s", median(throughput), "1/s");
    res.metric("latency_ms.p50", median_of_quantiles(latency, 0.50), "ms");
    res.metric("latency_ms.p99", median_of_quantiles(latency, 0.99), "ms");
    res.metric("utility", res.utility, "nats");
    return res;
  }

  // The same pass on a 1-worker service, for the 2-worker speedup.
  std::vector<double> speedup;
  for (int i = 0; i < 2; ++i) {
    const PassOut one = run_pass(pass_seed(opt.seed, 0), 1, nullptr, layers);
    const PassOut two =
        run_pass(pass_seed(opt.seed, 0), kCheckWorkers, nullptr, layers);
    check_same(res, ref, one, "a 1-worker");
    check_same(res, ref, two, "a 2-worker");
    speedup.push_back(one.timed_s / two.timed_s);
    res.attempted += one.attempted + two.attempted;
    res.failed += one.failed + two.failed;
  }

  std::vector<double> batch_ms;
  std::vector<double> traced_s;
  std::vector<double> plain_s;
  double submit_ms = 0.0;
  double submits = 0.0;
  double served = 0.0;
  double timed_ns = 0.0;
  for (const PassOut& p : traced) {
    batch_ms.insert(batch_ms.end(), p.stats.batch_ms.begin(),
                    p.stats.batch_ms.end());
    submit_ms += p.stats.submit_ms;
    submits += static_cast<double>(p.stats.submits);
    served += static_cast<double>(p.stats.served);
    traced_s.push_back(p.timed_s);
    timed_ns += p.timed_s * 1e9;
  }
  for (const PassOut& p : plain) plain_s.push_back(p.timed_s);
  double batch_total_ms = 0.0;
  for (const double b : batch_ms) batch_total_ms += b;
  const TenantCounters& t = ref.counters.totals;
  const double lookups = static_cast<double>(t.cache_hits + t.cache_misses);
  const double bare_us = bare_plan_us(pass_seed(opt.seed, 0));

  res.metric("serve.admit_us_per_submit", submit_ms * 1e3 / submits, "us");
  res.metric("serve.batch_ms.p50", quantile(batch_ms, 0.50), "ms");
  res.metric("serve.batch_ms.p99", quantile(batch_ms, 0.99), "ms");
  res.metric("serve.batch_size.mean",
             static_cast<double>(ref.counters.batch_requests) /
                 static_cast<double>(ref.counters.batches),
             "count");
  res.metric("serve.coalesced", static_cast<double>(t.coalesced), "count");
  res.metric("serve.shed",
             static_cast<double>(t.shed_queue_full + t.shed_global_full +
                                 t.shed_stale_round +
                                 ref.counters.shed_unknown_tenant),
             "count");
  res.metric("serve.repaired", static_cast<double>(t.snapshots_repaired),
             "count");
  res.metric("serve.uncacheable", static_cast<double>(t.uncacheable_plans),
             "count");
  res.metric("serve.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(t.cache_hits) / lookups : 0.0,
             "ratio");
  res.metric("plan.bare_us", bare_us, "us");
  res.metric("serve.tax", kWorkers * batch_total_ms * 1e3 / (served * bare_us),
             "ratio");
  res.metric("serve.speedup_2w", median(speedup), "ratio");
  res.coverage(
      static_cast<double>(tracer.total_ns({layers.submit, layers.batch})),
      timed_ns);
  res.metric("trace.overhead_ratio", median(traced_s) / median(plain_s),
             "ratio");
  if (!opt.spans_path.empty()) tracer.write(opt.spans_path);
  return res;
}

}  // namespace perfbench
