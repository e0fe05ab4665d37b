// Plan-tier differential harness (ARCHITECTURE.md, "Plan tiers").
//
// Pins the tiered determinism contract:
//   * kExact — the bit-identical reference path (and the pre-tier default:
//     a PlanConfig that never mentions tiers plans exactly),
//   * kFast — column generation; per-round objective within a 1e-6
//     relative gap of kExact across a topology × objective × interference
//     × churn grid, same active-flow support on strictly concave
//     objectives, and bit-identical to itself across repeated runs and
//     fleet thread counts for a fixed ReplayOptions.
//
// The golden fixture (tests/data/plan_tiers_golden.json) freezes fast-tier
// objective values at 17 significant digits; compared at 1e-9 relative
// tolerance to absorb cross-arch -march=native drift. A second fixture
// (tests/data/plan_kernel_golden.json) freezes per-flow y and solver
// counters of both tiers, monolithic and decomposed, on the separable
// city. Regenerate both with
//   MESHOPT_REGEN_GOLDEN=1 ./test_plan_tiers

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/interference.h"
#include "core/planner.h"
#include "core/rate_plan.h"
#include "core/snapshot.h"
#include "opt/decompose.h"
#include "probe/live_source.h"
#include "scenario/topologies.h"
#include "scenario/workbench.h"
#include "sweep/controller_fleet.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/trace_codec.h"

namespace meshopt {
namespace {

// ---------------------------------------------------------------- fixtures

/// A small hand-built two-hop snapshot: 3 links of a chain + cross link.
MeasurementSnapshot chain_snapshot() {
  MeasurementSnapshot snap;
  const NodeId hops[][2] = {{0, 1}, {1, 2}, {3, 2}};
  for (const auto& h : hops) {
    SnapshotLink l;
    l.src = h[0];
    l.dst = h[1];
    l.rate = Rate::kR11Mbps;
    l.estimate.p_link = 0.02;
    l.estimate.capacity_bps = 4.2e6;
    snap.links.push_back(l);
  }
  snap.neighbors = {{0, 1}, {1, 2}, {1, 3}, {2, 3}};
  return snap;
}

/// A randomized chain-of-links LIR snapshot (non-trivial conflict graph).
MeasurementSnapshot lir_snapshot(int links, std::uint64_t seed) {
  MeasurementSnapshot snap;
  RngStream rng(seed, "plan-tiers-lir");
  for (int i = 0; i < links; ++i) {
    SnapshotLink l;
    l.src = i;
    l.dst = i + 1;
    l.rate = Rate::kR11Mbps;
    l.estimate.capacity_bps = rng.uniform(0.5e6, 5e6);
    l.estimate.p_link = rng.uniform(0.0, 0.2);
    snap.links.push_back(l);
  }
  snap.lir.resize(links, links, 1.0);
  for (int i = 0; i < links; ++i)
    for (int j = i + 1; j < links; ++j)
      if (rng.bernoulli(0.5)) snap.lir(i, j) = snap.lir(j, i) = 0.4;
  snap.lir_threshold = 0.95;
  return snap;
}

std::vector<FlowSpec> chain_flows() {
  std::vector<FlowSpec> flows(2);
  flows[0].flow_id = 0;
  flows[0].path = {0, 1, 2};
  flows[1].flow_id = 1;
  flows[1].path = {3, 2};
  return flows;
}

/// Flows over a `links`-link chain: three spans of different lengths.
std::vector<FlowSpec> span_flows(int links) {
  std::vector<FlowSpec> flows(3);
  flows[0].flow_id = 0;
  for (NodeId n = 0; n <= std::min(5, links); ++n) flows[0].path.push_back(n);
  flows[1].flow_id = 1;
  for (NodeId n = 3; n <= std::min(10, links); ++n) flows[1].path.push_back(n);
  flows[2].flow_id = 2;
  for (NodeId n = std::max(0, links - 4); n <= links; ++n)
    flows[2].path.push_back(n);
  return flows;
}

struct TierCase {
  std::string name;
  MeasurementSnapshot snap;
  InterferenceModelKind kind = InterferenceModelKind::kTwoHop;
  std::vector<FlowSpec> flows;
};

std::vector<TierCase> grid_cases() {
  std::vector<TierCase> cases;
  cases.push_back({"chain", chain_snapshot(), InterferenceModelKind::kTwoHop,
                   chain_flows()});
  cases.push_back({"lir16", lir_snapshot(16, 101),
                   InterferenceModelKind::kLirTable, span_flows(16)});
  cases.push_back({"lir24", lir_snapshot(24, 103),
                   InterferenceModelKind::kLirTable, span_flows(24)});
  return cases;
}

struct ObjectiveCase {
  std::string name;
  OptimizerConfig cfg;
};

std::vector<ObjectiveCase> objective_cases() {
  std::vector<ObjectiveCase> cases(4);
  cases[0].name = "maxthru";
  cases[0].cfg.objective = Objective::kMaxThroughput;
  cases[1].name = "pf";
  cases[1].cfg.objective = Objective::kProportionalFair;
  cases[2].name = "maxmin";
  cases[2].cfg.objective = Objective::kMaxMin;
  cases[3].name = "alpha2";
  cases[3].cfg.objective = Objective::kAlphaFair;
  cases[3].cfg.alpha = 2.0;
  return cases;
}

/// The set of flows carrying non-negligible rate.
std::vector<int> active_support(const std::vector<double>& y) {
  double mx = 1.0;
  for (double v : y) mx = std::max(mx, v);
  std::vector<int> s;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (y[i] > 1e-6 * mx) s.push_back(static_cast<int>(i));
  return s;
}

bool strictly_concave(Objective obj) {
  return obj == Objective::kProportionalFair || obj == Objective::kAlphaFair ||
         obj == Objective::kMaxMin;
}

// ------------------------------------------------------- differential grid

TEST(PlanTiers, DifferentialGridGapWithinPinnedBound) {
  // topology × objective × churn-phase grid: the fast tier must track the
  // exact tier's objective within the pinned 1e-6 relative gap on every
  // round, with the working set staying below the full extreme-point count
  // whenever the region is non-trivial.
  for (TierCase& tc : grid_cases()) {
    for (const ObjectiveCase& oc : objective_cases()) {
      Planner exact_planner(4);
      Planner fast_planner(4);
      PlanConfig exact_cfg;
      exact_cfg.optimizer = oc.cfg;
      PlanConfig fast_cfg = exact_cfg;
      fast_cfg.tier = PlanTier::kFast;

      MeasurementSnapshot snap = tc.snap;
      RngStream drift(7, "tier-grid-" + tc.name + "-" + oc.name);
      for (int round = 0; round < 4; ++round) {
        if (round > 0)
          for (SnapshotLink& l : snap.links)
            l.estimate.capacity_bps *= drift.uniform(0.85, 1.15);

        const RatePlan exact =
            exact_planner.plan(snap, tc.kind, tc.flows, exact_cfg);
        const RatePlan fast =
            fast_planner.plan(snap, tc.kind, tc.flows, fast_cfg);
        const std::string at =
            tc.name + "/" + oc.name + "/round " + std::to_string(round);
        ASSERT_TRUE(exact.ok) << at;
        ASSERT_TRUE(fast.ok) << at;

        // Tier metadata.
        EXPECT_EQ(exact.tier, PlanTier::kExact) << at;
        EXPECT_EQ(fast.tier, PlanTier::kFast) << at;
        EXPECT_EQ(exact.columns_generated, 0) << at;
        EXPECT_GT(fast.columns_generated, 0) << at;
        EXPECT_EQ(fast.columns_generated, fast.extreme_points) << at;

        // The pinned gap.
        const double tol =
            1e-6 * std::max(1.0, std::abs(exact.objective_value));
        EXPECT_NEAR(fast.objective_value, exact.objective_value, tol) << at;

        // Sublinear working set: never more columns than the full K.
        EXPECT_LE(fast.extreme_points, exact.extreme_points) << at;

        // Identical active-flow support on strictly concave objectives
        // (max-throughput has alternate optima; support may differ).
        if (strictly_concave(oc.cfg.objective))
          EXPECT_EQ(active_support(fast.y), active_support(exact.y)) << at;

        // Per-flow rates track within the same relative scale.
        ASSERT_EQ(fast.y.size(), exact.y.size()) << at;
        if (strictly_concave(oc.cfg.objective)) {
          double scale = 1.0;
          for (double v : exact.y) scale = std::max(scale, std::abs(v));
          for (std::size_t s = 0; s < exact.y.size(); ++s)
            EXPECT_NEAR(fast.y[s], exact.y[s], 1e-4 * scale)
                << at << " flow " << s;
        }
      }
      // Warm starts actually engaged across the drift rounds (rounds 2+
      // reuse the planner-entry optimizer's columns and basis).
      EXPECT_GE(fast_planner.stats().hits, 3u) << tc.name << "/" << oc.name;
    }
  }
}

TEST(PlanTiers, ExactTierIsTheDefaultAndBitIdenticalToDirectPlanRates) {
  // A PlanConfig that never mentions tiers must plan exactly (the pre-tier
  // path), and Planner::plan on the exact tier must stay bit-identical to
  // a direct uncached plan_rates walk.
  MeasurementSnapshot snap = lir_snapshot(16, 101);
  const std::vector<FlowSpec> flows = span_flows(16);
  PlanConfig cfg;
  cfg.optimizer.objective = Objective::kProportionalFair;
  ASSERT_EQ(cfg.tier, PlanTier::kExact);

  Planner planner(4);
  RngStream drift(11, "tier-exact");
  for (int round = 0; round < 3; ++round) {
    for (SnapshotLink& l : snap.links)
      l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
    const InterferenceModel reference =
        InterferenceModel::build(snap, InterferenceModelKind::kLirTable);
    const RatePlan direct = plan_rates(snap, reference, flows, cfg);
    const RatePlan via_planner =
        planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
    EXPECT_EQ(via_planner, direct) << "round " << round;
    EXPECT_EQ(direct.tier, PlanTier::kExact);
    EXPECT_EQ(direct.pricing_rounds, 0);
  }
}

TEST(PlanTiers, FastTierBitIdenticalAcrossRepeatedRuns) {
  // Determinism within the tier: two fresh planners fed the same snapshot
  // sequence produce bit-identical plans (operator== covers y, x, shapers
  // and all tier metadata).
  auto run_once = []() {
    Planner planner(4);
    PlanConfig cfg;
    cfg.optimizer.objective = Objective::kProportionalFair;
    cfg.tier = PlanTier::kFast;
    MeasurementSnapshot snap = lir_snapshot(20, 107);
    const std::vector<FlowSpec> flows = span_flows(20);
    RngStream drift(13, "tier-repeat");
    std::vector<RatePlan> plans;
    for (int round = 0; round < 5; ++round) {
      for (SnapshotLink& l : snap.links)
        l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
      plans.push_back(
          planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg));
    }
    return plans;
  };
  const std::vector<RatePlan> a = run_once();
  const std::vector<RatePlan> b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_TRUE(a[r].ok) << "round " << r;
    EXPECT_EQ(a[r], b[r]) << "round " << r;
  }
}

// --------------------------------------------------------- fleet replay

ControllerConfig live_config() {
  ControllerConfig cfg;
  cfg.probe_period_s = 0.25;
  cfg.probe_window = 40;
  cfg.optimizer.objective = Objective::kProportionalFair;
  return cfg;
}

std::vector<MeasurementSnapshot> record_gateway_trace(int rounds,
                                                      std::uint64_t seed) {
  Workbench wb(seed);
  build_gateway_chain(wb);
  MeshController ctl(wb.net(), live_config(), seed);
  ManagedFlow far;
  far.flow_id = wb.net().open_flow(0, 2, Protocol::kUdp, 1470);
  far.path = {0, 1, 2};
  ctl.manage_flow(far);
  ManagedFlow near;
  near.flow_id = wb.net().open_flow(3, 2, Protocol::kUdp, 1470);
  near.path = {3, 2};
  ctl.manage_flow(near);
  std::vector<MeasurementSnapshot> trace;
  LiveSource live(wb, ctl, rounds);
  MeasurementSnapshot snap;
  while (live.next(snap)) trace.push_back(snap);
  return trace;
}

std::vector<ReplayCell> gateway_cells(PlanTier tier) {
  std::vector<ReplayCell> cells;
  for (const Objective obj :
       {Objective::kProportionalFair, Objective::kMaxThroughput}) {
    ReplayCell cell;
    cell.flows.resize(2);
    cell.flows[0].flow_id = 0;
    cell.flows[0].path = {0, 1, 2};
    cell.flows[1].flow_id = 1;
    cell.flows[1].path = {3, 2};
    cell.plan.optimizer.objective = obj;
    cell.plan.tier = tier;
    cells.push_back(std::move(cell));
  }
  return cells;
}

TEST(PlanTiers, FleetReplayFastTierThreadCountInvariant) {
  // Fast-tier fleet determinism: for a FIXED ReplayOptions the replayed
  // plans are bit-identical on 1 thread and on 4, and across repeated
  // runs — segment_rounds is part of the determinism key, so each opts
  // value is only compared against itself.
  const std::vector<MeasurementSnapshot> trace = record_gateway_trace(6, 401);
  ASSERT_EQ(trace.size(), 6u);
  const std::vector<ReplayCell> cells = gateway_cells(PlanTier::kFast);

  ControllerFleet serial(1);
  ControllerFleet parallel(4);
  for (const int seg : {0, 3}) {
    ReplayOptions opts;
    opts.segment_rounds = seg;
    const auto a = serial.replay(cells, trace, opts);
    const auto b = parallel.replay(cells, trace, opts);
    const auto c = parallel.replay(cells, trace, opts);
    ASSERT_EQ(a.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_TRUE(a[i].ok) << "seg " << seg << " cell " << i;
      EXPECT_EQ(a[i].plans, b[i].plans) << "seg " << seg << " cell " << i;
      EXPECT_EQ(b[i].plans, c[i].plans) << "seg " << seg << " cell " << i;
      for (const RatePlan& p : a[i].plans)
        EXPECT_EQ(p.tier, PlanTier::kFast);
    }
  }
}

TEST(PlanTiers, FleetReplayFastTracksExactWithinGap) {
  // The replay-level differential: every round of every fast cell stays
  // within the pinned gap of the exact cell it shadows.
  const std::vector<MeasurementSnapshot> trace = record_gateway_trace(6, 409);
  ASSERT_EQ(trace.size(), 6u);

  ControllerFleet fleet(2);
  const auto exact = fleet.replay(gateway_cells(PlanTier::kExact), trace);
  const auto fast = fleet.replay(gateway_cells(PlanTier::kFast), trace);
  ASSERT_EQ(exact.size(), fast.size());
  for (std::size_t c = 0; c < exact.size(); ++c) {
    ASSERT_EQ(exact[c].plans.size(), fast[c].plans.size());
    for (std::size_t r = 0; r < exact[c].plans.size(); ++r) {
      const RatePlan& e = exact[c].plans[r];
      const RatePlan& f = fast[c].plans[r];
      ASSERT_EQ(e.ok, f.ok) << "cell " << c << " round " << r;
      if (!e.ok) continue;
      const double tol = 1e-6 * std::max(1.0, std::abs(e.objective_value));
      EXPECT_NEAR(f.objective_value, e.objective_value, tol)
          << "cell " << c << " round " << r;
      EXPECT_LE(f.extreme_points, e.extreme_points);
    }
  }
}

// --------------------------------------------------------- golden fixture

std::string golden_path() {
  return std::string(MESHOPT_SOURCE_DIR) + "/tests/data/plan_tiers_golden.json";
}

struct GoldenEntry {
  std::string name;
  double objective = 0.0;
};

/// The frozen scenario: two LIR topologies × two objectives × 3 warm drift
/// rounds, fast tier throughout. Purely synthetic (no simulation), so the
/// values depend only on the optimizer arithmetic the fixture pins.
std::vector<GoldenEntry> compute_golden_entries() {
  std::vector<GoldenEntry> out;
  for (const int links : {16, 24}) {
    for (const ObjectiveCase& oc : objective_cases()) {
      if (oc.name != "pf" && oc.name != "maxthru") continue;
      Planner planner(4);
      PlanConfig cfg;
      cfg.optimizer = oc.cfg;
      cfg.tier = PlanTier::kFast;
      MeasurementSnapshot snap =
          lir_snapshot(links, 61 + static_cast<std::uint64_t>(links));
      const std::vector<FlowSpec> flows = span_flows(links);
      RngStream drift(17, "tier-golden");
      for (int round = 0; round < 3; ++round) {
        for (SnapshotLink& l : snap.links)
          l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
        const RatePlan plan =
            planner.plan(snap, InterferenceModelKind::kLirTable, flows, cfg);
        GoldenEntry e;
        e.name = "lir" + std::to_string(links) + "-" + oc.name + "-r" +
                 std::to_string(round);
        e.objective = plan.ok ? plan.objective_value : 0.0;
        out.push_back(std::move(e));
      }
    }
  }
  // Plus the committed recorded gateway trace (tests/data/
  // trace_fixture.bin) replayed through the fast tier — real measured
  // snapshots, so tier drift is caught even if the synthetic generator
  // and the exact tier both move.
  const std::vector<MeasurementSnapshot> trace = read_trace(
      std::string(MESHOPT_SOURCE_DIR) + "/tests/data/trace_fixture.bin");
  ControllerFleet fleet(1);
  std::vector<ReplayCell> cells = gateway_cells(PlanTier::kFast);
  const std::vector<ReplayResult> results = fleet.replay(cells, trace);
  const char* cell_names[] = {"pf", "maxthru"};
  for (std::size_t c = 0; c < results.size(); ++c) {
    for (std::size_t r = 0; r < results[c].plans.size(); ++r) {
      GoldenEntry e;
      e.name = std::string("trace-") + cell_names[c] + "-r" +
               std::to_string(r);
      e.objective =
          results[c].plans[r].ok ? results[c].plans[r].objective_value : 0.0;
      out.push_back(std::move(e));
    }
  }
  return out;
}

void write_golden(const std::vector<GoldenEntry>& entries) {
  std::string doc = "{\n  \"cases\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    doc += "    {\"name\": ";
    json_append_string(doc, entries[i].name);
    doc += ", \"objective\": ";
    json_append_double(doc, entries[i].objective);
    doc += i + 1 < entries.size() ? "},\n" : "}\n";
  }
  doc += "  ]\n}\n";
  std::ofstream out(golden_path());
  ASSERT_TRUE(out.is_open()) << golden_path();
  out << doc;
}

TEST(PlanTiers, GoldenFastTierObjectives) {
  const std::vector<GoldenEntry> computed = compute_golden_entries();
  ASSERT_EQ(computed.size(), 20u);  // 12 synthetic + 8 recorded-trace
  for (const GoldenEntry& e : computed)
    EXPECT_NE(e.objective, 0.0) << e.name << ": plan failed";

  if (std::getenv("MESHOPT_REGEN_GOLDEN") != nullptr) {
    write_golden(computed);
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.is_open())
      << golden_path()
      << " missing; regenerate with MESHOPT_REGEN_GOLDEN=1 ./test_plan_tiers";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  const std::vector<JsonValue>& cases = doc.at("cases").items();
  ASSERT_EQ(cases.size(), computed.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(cases[i].at("name").as_string(), computed[i].name);
    const double want = cases[i].at("objective").as_number();
    // 1e-9 relative: absorbs cross-arch vectorization drift, catches any
    // real change to the fast tier's arithmetic.
    EXPECT_NEAR(computed[i].objective, want, 1e-9 * std::abs(want))
        << computed[i].name;
  }
}

// ---------------------------------------------- plan-kernel golden fixture

std::string kernel_golden_path() {
  return std::string(MESHOPT_SOURCE_DIR) +
         "/tests/data/plan_kernel_golden.json";
}

struct KernelGoldenEntry {
  std::string name;
  std::vector<double> y;
  int iterations = 0;
  int pricing_rounds = 0;
  int extreme_points = 0;
};

/// Every tier × front end × objective on the separable city of
/// test_decompose.cpp (3 clusters of 5 links, 2 bridge links), over two
/// capacity-drift rounds so the fast tier's carried columns and basis are
/// pinned too. Freezes per-flow y plus the solver counters, so a change to
/// any planning path — exact or fast, monolithic or decomposed — shows.
std::vector<KernelGoldenEntry> compute_kernel_golden_entries() {
  CityParams p;
  p.clusters = 3;
  p.links_per_cluster = 5;
  p.bridge_links = 2;
  p.flows_per_cluster = 2;
  p.seed = 7;
  const std::vector<FlowSpec> flows = city_flows(p);
  std::vector<KernelGoldenEntry> out;
  for (const PlanTier tier : {PlanTier::kExact, PlanTier::kFast}) {
    for (const bool decompose : {false, true}) {
      for (const ObjectiveCase& oc : objective_cases()) {
        PlanConfig cfg;
        cfg.optimizer = oc.cfg;
        cfg.tier = tier;
        Planner mono(4);
        DecomposedPlanner decomposed;
        MeasurementSnapshot snap = build_city_snapshot(p);
        RngStream drift(23, "kernel-golden");
        for (int round = 0; round < 2; ++round) {
          if (round > 0)
            for (SnapshotLink& l : snap.links)
              l.estimate.capacity_bps *= drift.uniform(0.9, 1.1);
          const RatePlan plan =
              decompose ? decomposed.plan(snap, InterferenceModelKind::kLirTable,
                                          flows, cfg)
                        : mono.plan(snap, InterferenceModelKind::kLirTable,
                                    flows, cfg);
          KernelGoldenEntry e;
          e.name = std::string(tier == PlanTier::kExact ? "exact" : "fast") +
                   (decompose ? "-decomposed-" : "-monolithic-") + oc.name +
                   "-r" + std::to_string(round);
          if (plan.ok) e.y = plan.y;
          e.iterations = plan.optimizer_iterations;
          e.pricing_rounds = plan.pricing_rounds;
          e.extreme_points = plan.extreme_points;
          out.push_back(std::move(e));
        }
      }
    }
  }
  return out;
}

void write_kernel_golden(const std::vector<KernelGoldenEntry>& entries) {
  std::string doc = "{\n  \"cases\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const KernelGoldenEntry& e = entries[i];
    doc += "    {\"name\": ";
    json_append_string(doc, e.name);
    doc += ", \"iterations\": ";
    json_append_int(doc, e.iterations);
    doc += ", \"pricing_rounds\": ";
    json_append_int(doc, e.pricing_rounds);
    doc += ", \"extreme_points\": ";
    json_append_int(doc, e.extreme_points);
    doc += ", \"y\": [";
    for (std::size_t f = 0; f < e.y.size(); ++f) {
      if (f > 0) doc += ", ";
      json_append_double(doc, e.y[f]);
    }
    doc += i + 1 < entries.size() ? "]},\n" : "]}\n";
  }
  doc += "  ]\n}\n";
  std::ofstream out(kernel_golden_path());
  ASSERT_TRUE(out.is_open()) << kernel_golden_path();
  out << doc;
}

TEST(PlanTiers, GoldenKernelPlans) {
  const std::vector<KernelGoldenEntry> computed =
      compute_kernel_golden_entries();
  ASSERT_EQ(computed.size(), 32u);  // 2 tiers × 2 front ends × 4 × 2 rounds
  for (const KernelGoldenEntry& e : computed)
    EXPECT_FALSE(e.y.empty()) << e.name << ": plan failed";

  if (std::getenv("MESHOPT_REGEN_GOLDEN") != nullptr) {
    write_kernel_golden(computed);
    GTEST_SKIP() << "regenerated " << kernel_golden_path();
  }

  std::ifstream in(kernel_golden_path());
  ASSERT_TRUE(in.is_open())
      << kernel_golden_path()
      << " missing; regenerate with MESHOPT_REGEN_GOLDEN=1 ./test_plan_tiers";
  std::stringstream buf;
  buf << in.rdbuf();
  const JsonValue doc = JsonValue::parse(buf.str());
  const std::vector<JsonValue>& cases = doc.at("cases").items();
  ASSERT_EQ(cases.size(), computed.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const KernelGoldenEntry& e = computed[i];
    EXPECT_EQ(cases[i].at("name").as_string(), e.name);
    EXPECT_EQ(cases[i].at("iterations").as_number(), e.iterations) << e.name;
    EXPECT_EQ(cases[i].at("pricing_rounds").as_number(), e.pricing_rounds)
        << e.name;
    EXPECT_EQ(cases[i].at("extreme_points").as_number(), e.extreme_points)
        << e.name;
    const std::vector<JsonValue>& y = cases[i].at("y").items();
    ASSERT_EQ(y.size(), e.y.size()) << e.name;
    for (std::size_t f = 0; f < y.size(); ++f) {
      // Same 1e-9 relative tolerance as the fast-tier objective golden.
      const double want = y[f].as_number();
      EXPECT_NEAR(e.y[f], want, 1e-9 * std::abs(want))
          << e.name << " flow " << f;
    }
  }
}

}  // namespace
}  // namespace meshopt
