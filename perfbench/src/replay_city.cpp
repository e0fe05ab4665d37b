// replay_city: record once, replay many. Set-up writes a trace of the
// 203-link city (4 gateway clusters of 50 links plus 3 bridges, seven
// interference components) with per-round capacity drift and rotating
// single-cluster LIR churn. Each timed job is one
// ControllerFleet::replay_file call over that trace with the decomposition
// tier, for four proportional-fair cells ({exact, fast} tier x
// {unguarded, guarded}) with fixed segment sharding. The timed jobs run
// on a 1-worker fleet (the calling thread): on a shared host a 2-worker
// pool's wall time follows whichever vCPU the host stalls, so a 2-worker
// fleet only checks determinism and measures the speedup in the traced
// run. No sensing happens at all: this is pure model and plan work.
// Latency is per planned round: each timed job is followed by replays of
// the same trace, timed round by round on the calling thread.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

#include "bench.h"
#include "core/guard.h"
#include "opt/decompose.h"
#include "scenario/topologies.h"
#include "sweep/controller_fleet.h"
#include "util/trace_codec.h"

namespace perfbench {
namespace {

using namespace meshopt;

constexpr int kTraceRounds = 24;
constexpr int kSegmentRounds = 8;
constexpr int kChurnEvery = 4;  ///< one cluster's LIR moves every 4 rounds
/// Timed fleet jobs a pass makes, each followed by single-thread replays
/// of the same trace timed round by round for latency: 1152 planned
/// rounds a pass, so that each pass's latency p99 has about ten samples
/// beyond it and a few rounds the host stalls do not move it.
constexpr int kJobsPerPass = 4;
constexpr int kReplaysPerJob = 3;
/// Workers of the timed fleet, and of the fleet it is checked against.
constexpr int kWorkers = 1;
constexpr int kCheckWorkers = 2;
/// Seconds of --seconds that one pass stands for. A pass (set-up, then
/// timed jobs and replays) takes about 5.5 s on the reference host
/// (4-vCPU VM); a 20 s run makes 4 passes.
constexpr double kNominalPassS = 5.0;

CityParams city_params(std::uint64_t seed) {
  CityParams p;
  p.clusters = 4;
  p.links_per_cluster = 50;
  p.bridge_links = 3;
  p.seed = seed;
  return p;
}

/// The recorded rounds: every round each link's capacity drifts by up to
/// +-5% (cache-neutral), and every kChurnEvery rounds one cluster's
/// measured LIR moves (its conflicts persist), the cluster order drawn
/// from the seed.
std::vector<MeasurementSnapshot> city_trace(std::uint64_t seed) {
  const CityParams p = city_params(seed);
  const MeasurementSnapshot base = build_city_snapshot(p);
  RngStream rng(seed, "replay-city-trace");
  std::vector<int> order(static_cast<std::size_t>(p.clusters));
  std::iota(order.begin(), order.end(), 0);
  for (int i = p.clusters - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  std::vector<std::vector<int>> members;
  for (int c = 0; c < p.clusters; ++c)
    members.push_back(city_cluster_links(p, c));

  std::vector<int> epoch(static_cast<std::size_t>(p.clusters), 0);
  std::vector<MeasurementSnapshot> trace;
  for (int r = 0; r < kTraceRounds; ++r) {
    if (r > 0 && r % kChurnEvery == 0) {
      const int c = order[static_cast<std::size_t>((r / kChurnEvery - 1) %
                                                   p.clusters)];
      ++epoch[static_cast<std::size_t>(c)];
    }
    MeasurementSnapshot snap = base;
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= 1.0 + rng.uniform(-0.05, 0.05);
    for (int c = 0; c < p.clusters; ++c) {
      const double lir =
          p.conflict_lir - 0.02 * (epoch[static_cast<std::size_t>(c)] % 4);
      for (const int i : members[static_cast<std::size_t>(c)])
        for (const int j : members[static_cast<std::size_t>(c)])
          if (i != j) snap.lir(i, j) = lir;
    }
    trace.push_back(std::move(snap));
  }
  return trace;
}

std::vector<ReplayCell> city_cells() {
  std::vector<ReplayCell> cells;
  for (const PlanTier tier : {PlanTier::kExact, PlanTier::kFast}) {
    for (const bool guarded : {false, true}) {
      ReplayCell cell;
      cell.flows = city_flows(city_params(0));  // the shape alone sets them
      cell.plan.optimizer.objective = Objective::kProportionalFair;
      cell.plan.tier = tier;
      cell.interference = InterferenceModelKind::kLirTable;
      cell.guarded = guarded;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

ReplayOptions replay_options() {
  ReplayOptions opts;
  opts.segment_rounds = kSegmentRounds;
  opts.decompose = true;
  return opts;
}

/// Per-cell plans of one job, in round order.
using CellPlans = std::vector<std::vector<RatePlan>>;

struct JobOut {
  Digest digest;
  double utility_sum = 0.0;
  std::uint64_t utility_n = 0;
  std::uint64_t failed = 0;
};

JobOut summarize(const CellPlans& plans, std::uint64_t cell_errors) {
  JobOut out;
  out.failed = cell_errors;
  for (const std::vector<RatePlan>& cell : plans) {
    for (const RatePlan& plan : cell) {
      out.digest.add(plan);
      if (plan.ok) {
        out.utility_sum += pf_utility(plan.y);
        ++out.utility_n;
      } else {
        ++out.failed;
      }
    }
  }
  out.digest.add(cell_errors);
  return out;
}

JobOut fleet_job(ControllerFleet& fleet, const std::vector<ReplayCell>& cells,
                 const std::string& path, CellPlans* keep = nullptr) {
  std::vector<ReplayResult> results =
      fleet.replay_file(cells, path, replay_options());
  CellPlans plans;
  std::uint64_t errors = 0;
  for (ReplayResult& r : results) {
    errors += r.error.empty() ? 0 : 1;
    plans.push_back(std::move(r.plans));
  }
  JobOut out = summarize(plans, errors);
  if (keep != nullptr) *keep = std::move(plans);
  return out;
}

struct Layers {
  explicit Layers(Tracer& t)
      : read(t.layer("trace.read")),
        validate(t.layer("guard.validate")),
        plan(t.layer("plan")),
        check(t.layer("guard.plan_check")) {}
  int read, validate, plan, check;
};

struct DirectStats {
  std::vector<double> round_ms;  ///< every round: validate, plan, check
  std::vector<double> read_ms;
  std::vector<double> drift_ms;  ///< rounds served from every cache
  std::vector<double> churn_ms;  ///< rounds that re-keyed some components
  std::uint64_t rounds = 0;
  std::uint64_t fw_iterations = 0;
  std::uint64_t pricing_rounds = 0;
  std::uint64_t columns = 0;
  std::uint64_t components = 0;
  std::uint64_t fallback_rounds = 0;
};

/// The fleet job's work on the calling thread, through the public layer
/// calls a replay segment makes: read the trace, then per cell and per
/// segment a fresh DecomposedPlanner planning each round (guarded cells
/// validate a copy first and check the plan after). Same plans as the
/// fleet job, bit for bit.
CellPlans direct_replay(const std::vector<ReplayCell>& cells,
                        const std::string& path, Tracer* tr, const Layers& l,
                        DirectStats* st) {
  std::vector<MeasurementSnapshot> trace;
  {
    const Scope s(tr, l.read);
    const std::int64_t t0 = now_ns();
    trace = read_trace(path);
    if (st != nullptr) st->read_ms.push_back(ms_between(t0, now_ns()));
  }
  const ReplayOptions opts = replay_options();
  const int rounds = static_cast<int>(trace.size());
  CellPlans plans(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const ReplayCell& cell = cells[c];
    plans[c].resize(trace.size());
    for (int lo = 0; lo < rounds; lo += opts.segment_rounds) {
      DecomposedPlanner planner(opts.decompose_config, /*pool=*/nullptr);
      const int hi = std::min(lo + opts.segment_rounds, rounds);
      for (int r = lo; r < hi; ++r) {
        const MeasurementSnapshot& round = trace[static_cast<std::size_t>(r)];
        const std::uint64_t misses = planner.planner_stats_snapshot().misses;
        const DecomposeStats before = planner.stats_snapshot();
        const std::int64_t r0 = now_ns();
        RatePlan plan;
        double plan_ms = 0.0;
        const auto timed_plan = [&](const MeasurementSnapshot& snap,
                                    bool cacheable) {
          const Scope s(tr, l.plan);
          const std::int64_t t0 = now_ns();
          plan = planner.plan(snap, cell.interference, cell.flows, cell.plan,
                              opts.mis_cap, cacheable);
          plan_ms = ms_between(t0, now_ns());
        };
        if (!cell.guarded) {
          timed_plan(round, true);
        } else {
          MeasurementSnapshot snap;
          ValidationReport report;
          {
            const Scope s(tr, l.validate);
            snap = round;
            report = SnapshotValidator(cell.guard.snapshot).validate(snap);
          }
          if (report.usable()) {
            timed_plan(snap,
                       report.verdict == SnapshotVerdict::kClean);
            const Scope s(tr, l.check);
            if (!PlanValidator(cell.guard.plan)
                     .validate(plan, snap, cell.flows)
                     .ok)
              plan = RatePlan{};
          }
        }
        if (st != nullptr) {
          st->round_ms.push_back(ms_between(r0, now_ns()));
          const std::uint64_t rekeyed =
              planner.planner_stats_snapshot().misses - misses;
          const DecomposeStats& after = planner.stats();
          // The first round of a segment plans every component cold; it
          // is neither a drift nor a churn round.
          if (rekeyed == 0)
            st->drift_ms.push_back(plan_ms);
          else if (r > lo)
            st->churn_ms.push_back(plan_ms);
          ++st->rounds;
          st->fw_iterations +=
              static_cast<std::uint64_t>(plan.optimizer_iterations);
          st->pricing_rounds += static_cast<std::uint64_t>(plan.pricing_rounds);
          st->columns += static_cast<std::uint64_t>(plan.columns_generated);
          st->components +=
              after.components_planned - before.components_planned;
          st->fallback_rounds += after.fallback_rounds - before.fallback_rounds;
        }
        plans[c][static_cast<std::size_t>(r)] = std::move(plan);
      }
    }
  }
  return plans;
}

void check_job(Result& res, const JobOut& ref, const JobOut& job,
               const std::string& what) {
  res.check(job.digest.value() == ref.digest.value(),
            "replay_city: " + what + " produced different plans (digest " +
                job.digest.hex() + " vs " + ref.digest.hex() + ")");
}

/// The first segment of the trace on a 1-worker and a 2-worker fleet must
/// give the same plans as each other and as the warm-up job's first rounds.
void check_workers(Result& res, const std::vector<ReplayCell>& cells,
                   const std::vector<MeasurementSnapshot>& trace,
                   const CellPlans& full) {
  const std::vector<MeasurementSnapshot> prefix(
      trace.begin(), trace.begin() + kSegmentRounds);
  ControllerFleet one(1);
  ControllerFleet two(kCheckWorkers);
  const std::vector<ReplayResult> a = one.replay(cells, prefix, replay_options());
  const std::vector<ReplayResult> b = two.replay(cells, prefix, replay_options());
  bool same = a.size() == b.size() && a.size() == full.size();
  for (std::size_t c = 0; same && c < a.size(); ++c) {
    same = a[c].plans == b[c].plans && a[c].error == b[c].error &&
           std::equal(a[c].plans.begin(), a[c].plans.end(), full[c].begin());
  }
  res.check(same,
            "replay_city: 1-worker and 2-worker fleets disagree on the "
            "first segment");
}

}  // namespace

Result run_replay_city(const Options& opt) {
  Result res;
  const std::string path = opt.scratch_dir + "/replay_city.trace";
  const std::vector<ReplayCell> cells = city_cells();
  const std::uint64_t per_job =
      static_cast<std::uint64_t>(cells.size()) * kTraceRounds;
  Tracer tracer;
  const Layers layers(tracer);

  if (!opt.trace) {
    std::vector<double> setup;
    std::vector<double> job_ms;
    std::vector<double> utility;
    std::vector<std::vector<double>> latency;
    const int passes = pass_count(opt.seconds, kNominalPassS);
    for (int p = 0; p < passes; ++p) {
      const std::int64_t s0 = now_ns();
      const std::vector<MeasurementSnapshot> trace =
          city_trace(pass_seed(opt.seed, p));
      write_trace(path, trace);
      ControllerFleet fleet(kWorkers);
      CellPlans plans;
      const JobOut ref = fleet_job(fleet, cells, path, &plans);
      const std::int64_t t0 = now_ns();
      setup.push_back(ms_between(s0, t0) * 1e-3);

      // Timed jobs and single-thread replays of the same trace alternate,
      // so both sample the whole pass alike. Each must reproduce the
      // warm-up job's plans.
      latency.emplace_back();
      for (int i = 0; i < kJobsPerPass; ++i) {
        const std::int64_t j0 = now_ns();
        const JobOut job = fleet_job(fleet, cells, path);
        job_ms.push_back(ms_between(j0, now_ns()));
        check_job(res, ref, job, "a timed job");
        res.attempted += per_job;
        res.failed += job.failed;

        for (int r = 0; r < kReplaysPerJob; ++r) {
          DirectStats st;
          const JobOut direct =
              summarize(direct_replay(cells, path, nullptr, layers, &st), 0);
          check_job(res, ref, direct, "a single-thread replay");
          latency.back().insert(latency.back().end(), st.round_ms.begin(),
                                st.round_ms.end());
          res.attempted += per_job;
          res.failed += direct.failed;
        }
      }
      const double timed_s = ms_between(t0, now_ns()) * 1e-3;
      log_pass("replay_city", setup.back(), timed_s,
               static_cast<double>(per_job) * kJobsPerPass *
                   (1 + kReplaysPerJob),
               latency.back());
      if (p == 0) {
        check_workers(res, cells, trace, plans);
        res.digest = ref.digest.hex();
      }
      utility.push_back(ref.utility_n > 0 ? ref.utility_sum /
                                                static_cast<double>(ref.utility_n)
                                          : 0.0);
      res.timed_s += timed_s;
      ++res.passes;
    }
    std::remove(path.c_str());
    res.utility = mean(utility);
    res.metric("setup_s", median(setup), "s");
    // Planned rounds per second of the run's median fleet job.
    res.metric("throughput_per_s",
               static_cast<double>(per_job) * 1e3 / median(job_ms), "1/s");
    res.metric("latency_ms.p50", median_of_quantiles(latency, 0.50), "ms");
    res.metric("latency_ms.p99", median_of_quantiles(latency, 0.99), "ms");
    res.metric("utility", res.utility, "nats");
    return res;
  }

  // Traced run: the fleet job for reference (and its 1- vs 2-worker wall
  // time), then untraced and traced single-thread replays of the same
  // job, alternating.
  const std::vector<MeasurementSnapshot> trace =
      city_trace(pass_seed(opt.seed, 0));
  write_trace(path, trace);
  ControllerFleet one(1);
  ControllerFleet two(kCheckWorkers);
  CellPlans ref_plans;
  const JobOut ref = fleet_job(two, cells, path, &ref_plans);
  check_workers(res, cells, trace, ref_plans);
  // Jobs run back to back, as in the timed phase, and the first two on
  // each fleet are not timed: on a shared VM a pool that has sat idle can
  // take hundreds of milliseconds to get its second worker running. The
  // speedup compares the fastest timed job of each fleet.
  std::vector<double> one_ms;
  std::vector<double> two_ms;
  for (ControllerFleet* fleet : {&one, &two}) {
    for (int i = 0; i < 6; ++i) {
      const std::int64_t j0 = now_ns();
      check_job(res, ref, fleet_job(*fleet, cells, path),
                fleet == &one ? "a 1-worker job" : "a 2-worker job");
      if (i >= 2)
        (fleet == &one ? one_ms : two_ms).push_back(ms_between(j0, now_ns()));
      res.attempted += per_job;
    }
  }

  DirectStats st;
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  double traced_ns = 0.0;
  const int pairs = pass_count(opt.seconds, 1.0, 4);
  for (int p = 0; p < pairs; ++p) {
    // ABBA order, as in live_gateway.
    for (const bool traced_run : {p % 2 == 1, p % 2 == 0}) {
      const std::int64_t t0 = now_ns();
      const JobOut job = summarize(
          direct_replay(cells, path, traced_run ? &tracer : nullptr, layers,
                        traced_run ? &st : nullptr),
          0);
      const std::int64_t t1 = now_ns();
      (traced_run ? traced_s : plain_s).push_back(ms_between(t0, t1));
      if (traced_run) traced_ns += static_cast<double>(t1 - t0);
      check_job(res, ref, job,
                traced_run ? "a traced single-thread replay"
                           : "an untraced single-thread replay");
      res.attempted += per_job;
      res.failed += job.failed;
      res.timed_s += ms_between(t0, t1) * 1e-3;
      ++res.passes;
    }
  }
  std::remove(path.c_str());
  res.digest = ref.digest.hex();
  res.utility = ref.utility_n > 0
                    ? ref.utility_sum / static_cast<double>(ref.utility_n)
                    : 0.0;
  res.check(st.fallback_rounds == 0,
            "replay_city: the decomposition tier fell back to monolithic");

  const double rounds = static_cast<double>(std::max<std::uint64_t>(st.rounds, 1));
  res.metric("trace.read_ms", median(st.read_ms), "ms");
  res.metric("plan.drift_round_ms.p50", quantile(st.drift_ms, 0.50), "ms");
  res.metric("plan.drift_round_ms.p99", quantile(st.drift_ms, 0.99), "ms");
  res.metric("plan.churn_round_ms.p50", quantile(st.churn_ms, 0.50), "ms");
  res.metric("plan.churn_round_ms.p99", quantile(st.churn_ms, 0.99), "ms");
  res.metric("plan.fw_iterations_per_round",
             static_cast<double>(st.fw_iterations) / rounds, "count");
  res.metric("plan.pricing_rounds_per_round",
             static_cast<double>(st.pricing_rounds) / rounds, "count");
  res.metric("plan.columns_per_round",
             static_cast<double>(st.columns) / rounds, "count");
  res.metric("plan.components_per_round",
             static_cast<double>(st.components) / rounds, "count");
  res.metric("plan.fallback_rounds",
             static_cast<double>(st.fallback_rounds) / pairs, "count");
  res.metric("sweep.speedup_2w",
             *std::min_element(one_ms.begin(), one_ms.end()) /
                 *std::min_element(two_ms.begin(), two_ms.end()),
             "ratio");
  res.coverage(static_cast<double>(tracer.total_ns(
                   {layers.read, layers.validate, layers.plan, layers.check})),
               traced_ns);
  res.metric("trace.overhead_ratio", median(traced_s) / median(plain_s),
             "ratio");
  if (!opt.spans_path.empty()) tracer.write(opt.spans_path);
  return res;
}

}  // namespace perfbench
