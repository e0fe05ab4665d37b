#include "serve/plan_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "util/rng.h"

namespace meshopt {

const char* to_string(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kCoalesced:
      return "coalesced";
    case SubmitStatus::kShedUnknownTenant:
      return "shed:unknown-tenant";
    case SubmitStatus::kShedStaleRound:
      return "shed:stale-round";
    case SubmitStatus::kShedTenantQueueFull:
      return "shed:tenant-queue-full";
    case SubmitStatus::kShedGlobalQueueFull:
      return "shed:global-queue-full";
  }
  return "unknown";
}

ServeScript staggered_replay_script(std::uint32_t tenants,
                                    int rounds_per_tenant, int pool_rounds,
                                    int ticks_per_round, std::uint64_t seed,
                                    int burst_every) {
  if (tenants == 0 || rounds_per_tenant <= 0 || pool_rounds <= 0 ||
      ticks_per_round <= 0)
    throw std::invalid_argument(
        "serve: script dimensions must be positive");
  // All randomness at generation time, like the dynamics/fault script
  // generators: the schedule is a value, the service draws nothing.
  RngStream rng(seed, "serve-script");
  std::vector<int> offset(tenants);
  for (int& o : offset) o = rng.uniform_int(0, ticks_per_round - 1);

  ServeScript script;
  script.events.reserve(static_cast<std::size_t>(rounds_per_tenant) *
                        tenants);
  for (int r = 0; r < rounds_per_tenant; ++r) {
    for (std::uint32_t t = 0; t < tenants; ++t) {
      ServeEvent ev;
      ev.tick = static_cast<long long>(r) * ticks_per_round +
                offset[static_cast<std::size_t>(t)];
      ev.tenant = t;
      ev.snapshot_ref = r % pool_rounds;
      script.events.push_back(ev);
      // The duplicate submission lands at the same tick: with coalescing
      // it supersedes the first (counted), without it the queue absorbs
      // or sheds it — either way the admission layer gets exercised.
      if (burst_every > 0 && t % static_cast<std::uint32_t>(burst_every) == 0)
        script.events.push_back(ev);
    }
  }
  std::stable_sort(
      script.events.begin(), script.events.end(),
      [](const ServeEvent& a, const ServeEvent& b) { return a.tick < b.tick; });
  return script;
}

PlanService::PlanService(ServeConfig cfg)
    : cfg_(cfg), runner_(cfg.threads) {}

std::uint32_t PlanService::add_tenant(TenantConfig cfg) {
  sessions_.emplace_back(std::move(cfg));
  metrics_.ensure_tenants(sessions_.size());
  return static_cast<std::uint32_t>(sessions_.size() - 1);
}

const TenantConfig& PlanService::tenant_config(std::uint32_t tenant) const {
  if (tenant >= sessions_.size())
    throw std::invalid_argument("serve: unknown tenant");
  return sessions_[tenant].cfg;
}

SubmitResult PlanService::admit(std::uint32_t tenant,
                                const MeasurementSnapshot& snap,
                                std::uint64_t round_seq, bool auto_seq,
                                long long tick) {
  ServeCounters& g = metrics_.global();
  if (tenant >= sessions_.size()) {
    ++g.shed_unknown_tenant;
    return {SubmitStatus::kShedUnknownTenant, 0};
  }
  TenantSession& s = sessions_[tenant];
  TenantCounters& tc = metrics_.tenant(tenant);
  ++tc.submitted;
  ++g.totals.submitted;
  if (auto_seq) {
    round_seq = s.high_seq + 1;
  } else if (round_seq <= s.high_seq) {
    // The wire path's stale shed: a client replaying an old round (or a
    // reordered stream) must not roll a tenant's sequence backwards.
    ++tc.shed_stale_round;
    ++g.totals.shed_stale_round;
    return {SubmitStatus::kShedStaleRound, round_seq};
  }

  // Oldest-round coalescing: the queued stale round is superseded in
  // place — same backlog slot, fresher measurements, newer sequence. A
  // replacement never grows the backlog, so it bypasses both queue
  // bounds by construction.
  if (s.cfg.coalesce && !s.queue.empty()) {
    Pending& back = s.queue.back();
    back.round_seq = round_seq;
    back.enqueue_tick = tick;
    back.enqueue_wall = std::chrono::steady_clock::now();
    back.snapshot = snap;
    s.high_seq = round_seq;
    ++tc.coalesced;
    ++g.totals.coalesced;
    ++tc.accepted;
    ++g.totals.accepted;
    return {SubmitStatus::kCoalesced, round_seq};
  }

  if (s.queue.size() >=
      static_cast<std::size_t>(std::max(1, s.cfg.queue_limit))) {
    ++tc.shed_queue_full;
    ++g.totals.shed_queue_full;
    return {SubmitStatus::kShedTenantQueueFull, round_seq};
  }
  if (pending_ >= cfg_.global_queue_limit) {
    ++tc.shed_global_full;
    ++g.totals.shed_global_full;
    return {SubmitStatus::kShedGlobalQueueFull, round_seq};
  }

  Pending p;
  p.round_seq = round_seq;
  p.enqueue_tick = tick;
  p.enqueue_wall = std::chrono::steady_clock::now();
  p.snapshot = snap;
  s.queue.push_back(std::move(p));
  s.high_seq = round_seq;
  ++pending_;
  ++tc.accepted;
  ++g.totals.accepted;
  return {SubmitStatus::kAccepted, round_seq};
}

SubmitResult PlanService::submit(std::uint32_t tenant,
                                 const MeasurementSnapshot& snap,
                                 long long tick) {
  return admit(tenant, snap, 0, /*auto_seq=*/true, tick);
}

SubmitResult PlanService::submit_seq(std::uint32_t tenant,
                                     const MeasurementSnapshot& snap,
                                     std::uint64_t round_seq, long long tick) {
  return admit(tenant, snap, round_seq, /*auto_seq=*/false, tick);
}

SubmitResult PlanService::submit_frame(std::string_view frame,
                                       long long tick) {
  WireFrame decoded;
  if (wire_decode_frame(frame, decoded) == 0)
    throw std::invalid_argument("wire: incomplete frame");
  if (decoded.kind != WireKind::kSubmit)
    throw std::invalid_argument("wire: expected a submit frame");
  return submit_seq(decoded.tenant, decoded.snapshot, decoded.round_seq,
                    tick);
}

ServeBatchReport PlanService::run_batch(long long tick) {
  // Deterministic batch composition: ascending tenant id, each tenant's
  // OLDEST pending round. At most one round per tenant per batch keeps a
  // session's Planner single-writer (per-tenant rounds stay serial);
  // cross-tenant parallelism is where the pool earns its keep.
  struct Item {
    std::uint32_t tenant = 0;
    Pending req;
  };
  std::vector<Item> items;
  for (std::uint32_t t = 0; t < sessions_.size(); ++t) {
    std::deque<Pending>& q = sessions_[t].queue;
    if (q.empty()) continue;
    items.push_back({t, std::move(q.front())});
    q.pop_front();
  }
  if (items.empty()) return {};
  pending_ -= items.size();

  // One pool job per batched round; results land at the item's index, so
  // the batch output is in tenant order whatever thread ran what (the
  // SweepRunner determinism contract). Jobs touch disjoint state: item i,
  // outs[i], and tenant i's session only.
  struct JobOut {
    SnapshotVerdict verdict = SnapshotVerdict::kClean;
    RatePlan plan;
    std::string error;
  };
  std::vector<JobOut> outs(items.size());
  runner_.run_raw(
      static_cast<int>(items.size()), /*master_seed=*/0,
      [this, &items, &outs](const SweepJob& job) {
        const auto i = static_cast<std::size_t>(job.index);
        Item& item = items[i];
        TenantSession& s = sessions_[item.tenant];
        JobOut& out = outs[i];
        // Session-local tracing: the job writes into the session's own
        // recorder (single-writer, like the session Planner); run_batch
        // absorbs it in batch order after the pool barrier.
        TraceRecorder* local = nullptr;
        if (obs_ != nullptr) {
          if (!s.recorder)
            s.recorder = std::make_unique<TraceRecorder>(obs_->config());
          local = s.recorder.get();
          local->set_context(item.tenant, item.req.round_seq);
        }
        if (s.decomposed)
          s.decomposed->set_observer(local);
        else
          s.planner.set_observer(local);
        // Decomposition-tier sessions plan through their embedded
        // DecomposedPlanner; the call contract is identical, so the
        // guarded path below stays shared.
        const auto plan_round = [&s](MeasurementSnapshot& snap,
                                     bool cacheable) {
          return s.decomposed
                     ? s.decomposed->plan(snap, s.cfg.interference,
                                          s.cfg.flows, s.cfg.plan, kMisCap,
                                          cacheable)
                     : s.planner.plan(snap, s.cfg.interference, s.cfg.flows,
                                      s.cfg.plan, kMisCap, cacheable);
        };
        bool guard_rejected = false;
        {
          ObsSpan serve_span(local, ObsStage::kServe, ObsCode::kServeOk);
          try {
            if (s.cfg.guarded) {
              // Replay-style guarded round (mirrors the fleet's): the
              // repair tier mutates the pending snapshot we own, repaired
              // inputs keep the planner cache read-only, and the plan
              // guardrails run before anything is served.
              const SnapshotValidator validator(s.cfg.guard.snapshot);
              const ValidationReport report =
                  validator.validate(item.req.snapshot);
              out.verdict = report.verdict;
              if (report.usable()) {
                const bool clean = report.verdict == SnapshotVerdict::kClean;
                out.plan = plan_round(item.req.snapshot, /*cacheable=*/clean);
                const PlanValidator guard(s.cfg.guard.plan);
                if (!guard.validate(out.plan, item.req.snapshot, s.cfg.flows)
                         .ok) {
                  out.plan = RatePlan{};
                  guard_rejected = true;
                }
              }
            } else {
              out.plan = plan_round(item.req.snapshot, /*cacheable=*/true);
            }
          } catch (const std::exception& e) {
            // Round isolation, as fleet cells: a poisoned snapshot fails
            // its own round deterministically (the text is a pure function
            // of the inputs) and every other round completes.
            out.plan = RatePlan{};
            out.error = e.what();
          }
          if (!out.error.empty()) serve_span.code(ObsCode::kServeError);
          serve_span.payload(item.req.round_seq, out.plan.ok ? 1 : 0);
        }
        if (local != nullptr) {
          if (!out.error.empty())
            local->trigger_incident(ObsCode::kServeError, out.error);
          else if (guard_rejected)
            local->trigger_incident(ObsCode::kPlanReject,
                                    "serve: plan guardrail reject");
        }
      });

  // All accounting on the calling thread, in batch order — the reason
  // every counter and tick histogram is bit-identical across pool sizes.
  const auto now = std::chrono::steady_clock::now();
  ServeCounters& g = metrics_.global();
  ++g.batches;
  g.batch_requests += items.size();
  g.max_batch = std::max<std::uint64_t>(g.max_batch, items.size());

  ServeBatchReport report;
  report.served.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    Item& item = items[i];
    JobOut& out = outs[i];
    TenantSession& s = sessions_[item.tenant];
    TenantCounters& tc = metrics_.tenant(item.tenant);

    switch (out.verdict) {
      case SnapshotVerdict::kClean:
        ++tc.snapshots_clean;
        ++g.totals.snapshots_clean;
        break;
      case SnapshotVerdict::kRepaired:
        ++tc.snapshots_repaired;
        ++g.totals.snapshots_repaired;
        break;
      case SnapshotVerdict::kRejected:
        ++tc.snapshots_rejected;
        ++g.totals.snapshots_rejected;
        break;
    }
    if (out.plan.ok) {
      ++tc.plans_served;
      ++g.totals.plans_served;
    } else {
      ++tc.plans_failed;
      ++g.totals.plans_failed;
    }
    // Meter the session planner by diffing stats snapshots (the
    // per-interval-window pattern Planner::stats_snapshot exists for).
    // Decomposed sessions aggregate their fallback planner plus every
    // component slot's planner into the same counters.
    const PlannerStats ps = s.decomposed
                                ? s.decomposed->planner_stats_snapshot()
                                : s.planner.stats_snapshot();
    tc.cache_hits += ps.hits - s.seen_stats.hits;
    tc.cache_misses += ps.misses - s.seen_stats.misses;
    tc.uncacheable_plans += ps.uncacheable_plans - s.seen_stats.uncacheable_plans;
    g.totals.cache_hits += ps.hits - s.seen_stats.hits;
    g.totals.cache_misses += ps.misses - s.seen_stats.misses;
    g.totals.uncacheable_plans +=
        ps.uncacheable_plans - s.seen_stats.uncacheable_plans;
    s.seen_stats = ps;
    if (s.decomposed) {
      const DecomposeStats ds = s.decomposed->stats_snapshot();
      tc.decomposed_rounds += ds.decomposed_rounds -
                              s.seen_decompose.decomposed_rounds;
      tc.components_planned += ds.components_planned -
                               s.seen_decompose.components_planned;
      g.totals.decomposed_rounds += ds.decomposed_rounds -
                                    s.seen_decompose.decomposed_rounds;
      g.totals.components_planned += ds.components_planned -
                                     s.seen_decompose.components_planned;
      s.seen_decompose = ds;
    }

    metrics_.record_tick_latency(
        item.tenant, static_cast<double>(tick - item.req.enqueue_tick));
    metrics_.record_wall_latency(
        std::chrono::duration<double>(now - item.req.enqueue_wall).count());

    s.last_plan = out.plan;
    s.last_served_seq = item.req.round_seq;

    // Batch-order absorption: session traces merge into the service
    // recorder here, on the calling thread — the trace side of the
    // "all accounting in batch order" determinism contract.
    if (obs_ != nullptr && s.recorder) obs_->absorb(*s.recorder);

    ServedPlan served;
    served.tenant = item.tenant;
    served.round_seq = item.req.round_seq;
    served.submit_tick = item.req.enqueue_tick;
    served.served_tick = tick;
    served.verdict = out.verdict;
    served.plan = std::move(out.plan);
    served.error = std::move(out.error);
    report.served.push_back(std::move(served));
  }
  return report;
}

ServeReport PlanService::run_script(
    const ServeScript& script, const std::vector<MeasurementSnapshot>& pool) {
  for (std::size_t i = 1; i < script.events.size(); ++i)
    if (script.events[i].tick < script.events[i - 1].tick)
      throw std::invalid_argument("serve: script events must be tick-sorted");

  ServeReport report;
  report.submit_results.reserve(script.events.size());
  std::size_t next = 0;
  long long tick = script.events.empty() ? 0 : script.events.front().tick;
  while (next < script.events.size() || pending_ > 0) {
    // Idle gap with nothing queued: hop straight to the next event's tick
    // (the intermediate batches would be empty — skipping them changes
    // nothing observable and keeps sparse schedules cheap).
    if (pending_ == 0 && next < script.events.size() &&
        script.events[next].tick > tick)
      tick = script.events[next].tick;
    for (; next < script.events.size() && script.events[next].tick <= tick;
         ++next) {
      const ServeEvent& ev = script.events[next];
      if (ev.snapshot_ref < 0 ||
          static_cast<std::size_t>(ev.snapshot_ref) >= pool.size())
        throw std::invalid_argument("serve: snapshot_ref outside the pool");
      report.submit_results.push_back(
          submit(ev.tenant, pool[static_cast<std::size_t>(ev.snapshot_ref)],
                 tick));
    }
    ServeBatchReport batch = run_batch(tick);
    for (ServedPlan& served : batch.served)
      report.served.push_back(std::move(served));
    ++tick;
  }
  report.final_tick = tick;
  return report;
}

void PlanService::append_response_frame(std::string& out,
                                        const ServedPlan& served) const {
  if (served.plan.ok) {
    wire_append_plan(out, served.tenant, served.round_seq, served.plan);
    return;
  }
  std::string_view reason = "plan infeasible or rejected";
  if (!served.error.empty())
    reason = served.error;
  else if (served.verdict == SnapshotVerdict::kRejected)
    reason = "snapshot rejected";
  wire_append_reject(out, served.tenant, served.round_seq, reason);
}

std::string PlanService::metrics_json(bool include_wall) const {
  return metrics_.to_json(include_wall);
}

const RatePlan& PlanService::last_plan(std::uint32_t tenant) const {
  if (tenant >= sessions_.size())
    throw std::invalid_argument("serve: unknown tenant");
  return sessions_[tenant].last_plan;
}

std::uint64_t PlanService::last_served_seq(std::uint32_t tenant) const {
  if (tenant >= sessions_.size())
    throw std::invalid_argument("serve: unknown tenant");
  return sessions_[tenant].last_served_seq;
}

}  // namespace meshopt
