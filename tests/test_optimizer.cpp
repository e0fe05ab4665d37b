#include "opt/network_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace meshopt {
namespace {

/// One shared link of capacity 1, two single-hop flows across it.
OptimizerInput shared_link_two_flows() {
  OptimizerInput in;
  in.routing = {{1.0, 1.0}};       // L=1, S=2
  in.extreme_points = {{1.0}};     // K=1
  return in;
}

TEST(Optimizer, MaxThroughputSaturatesSharedLink) {
  const auto r = optimize_rates(shared_link_two_flows(),
                                {.objective = Objective::kMaxThroughput});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.y[0] + r.y[1], 1.0, 1e-6);
}

TEST(Optimizer, ProportionalFairSplitsSharedLinkEqually) {
  const auto r = optimize_rates(shared_link_two_flows(),
                                {.objective = Objective::kProportionalFair});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.y[0], 0.5, 0.02);
  EXPECT_NEAR(r.y[1], 0.5, 0.02);
}

TEST(Optimizer, MaxMinSplitsSharedLinkEqually) {
  const auto r = optimize_rates(shared_link_two_flows(),
                                {.objective = Objective::kMaxMin});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.y[0], 0.5, 1e-6);
  EXPECT_NEAR(r.y[1], 0.5, 1e-6);
}

/// The classic parking-lot: flow 0 crosses both links, flows 1 and 2 each
/// cross one. Links time-share (one extreme point per link).
OptimizerInput parking_lot() {
  OptimizerInput in;
  in.routing = {
      {1.0, 1.0, 0.0},  // link 0 carries flows 0 and 1
      {1.0, 0.0, 1.0},  // link 1 carries flows 0 and 2
  };
  in.extreme_points = {{1.0, 0.0}, {0.0, 1.0}};  // mutually exclusive links
  return in;
}

TEST(Optimizer, MaxThroughputStarvesLongFlow) {
  const auto r = optimize_rates(parking_lot(),
                                {.objective = Objective::kMaxThroughput});
  ASSERT_TRUE(r.ok);
  // Giving everything to the one-hop flows yields 1.0 total; any rate on
  // the two-hop flow costs double capacity.
  EXPECT_NEAR(r.y[0], 0.0, 1e-6);
  EXPECT_NEAR(r.y[1] + r.y[2], 1.0, 1e-6);
}

TEST(Optimizer, ProportionalFairKeepsLongFlowAlive) {
  const auto r = optimize_rates(parking_lot(),
                                {.objective = Objective::kProportionalFair});
  ASSERT_TRUE(r.ok);
  EXPECT_GT(r.y[0], 0.1);
  // Known proportional-fair solution of the shared time-sharing resource:
  // the long flow gets ~1/3 of each link's share, short flows the rest.
  // Check optimality against the closed-form KKT point y0 = 1/3 (one-hop
  // flows equal). With links time sharing: y0 appears on both links.
  EXPECT_NEAR(r.y[1], r.y[2], 0.05);
  const double obj = std::log(r.y[0]) + std::log(r.y[1]) + std::log(r.y[2]);
  // Closed form: maximize log y0 + 2 log y1 s.t. 2*y0 + 2*y1 <= 1
  // (each link load y0+y1 = alpha_l budget, symmetric alpha=1/2):
  // y0 = 1/6? Evaluate numerically instead: compare against a fine scan.
  double best = -1e9;
  for (double a = 0.05; a <= 0.95; a += 0.001) {  // alpha on link 0
    // loads: link0 budget a, link1 budget 1-a.
    for (double y0 = 0.001; y0 <= 0.5; y0 += 0.002) {
      const double y1 = a - y0;
      const double y2 = (1.0 - a) - y0;
      if (y1 <= 0.0 || y2 <= 0.0) continue;
      best = std::max(best, std::log(y0) + std::log(y1) + std::log(y2));
    }
  }
  EXPECT_GT(obj, best - 0.05);
}

TEST(Optimizer, MaxMinParkingLotEqualizes) {
  const auto r =
      optimize_rates(parking_lot(), {.objective = Objective::kMaxMin});
  ASSERT_TRUE(r.ok);
  // All flows equal: y0 = y1 = y2 = t with loads 2t per "virtual" budget
  // split across the two exclusive links: t + t <= alpha_l per link and
  // alpha0 + alpha1 = 1 -> 2t = 1/2 -> t = 1/4.
  EXPECT_NEAR(r.y[0], 0.25, 1e-4);
  EXPECT_NEAR(r.y[1], 0.25, 1e-4);
  EXPECT_NEAR(r.y[2], 0.25, 1e-4);
}

TEST(Optimizer, AlphaFairInterpolatesBetweenObjectives) {
  // As alpha grows, the long flow's share must not shrink.
  double prev = -1.0;
  for (double alpha : {0.5, 1.0, 2.0, 4.0}) {
    const auto r = optimize_rates(
        parking_lot(),
        {.objective = Objective::kAlphaFair, .alpha = alpha});
    ASSERT_TRUE(r.ok) << alpha;
    EXPECT_GT(r.y[0], prev - 0.02) << alpha;
    prev = r.y[0];
  }
}

TEST(Optimizer, AlphaFairFairnessIndexIncreasesWithAlpha) {
  const auto jfi_at = [](double alpha) {
    const auto r = optimize_rates(
        parking_lot(), {.objective = Objective::kAlphaFair, .alpha = alpha});
    return jain_fairness_index(r.y);
  };
  EXPECT_GT(jfi_at(2.0), jfi_at(0.5) - 0.02);
  EXPECT_GT(jfi_at(4.0), 0.9);  // approaching max-min equality
}

TEST(Optimizer, RespectsFeasibilityRegion) {
  // Whatever the objective, the resulting link loads must be feasible.
  for (Objective obj : {Objective::kMaxThroughput, Objective::kMaxMin,
                        Objective::kProportionalFair}) {
    const OptimizerInput in = parking_lot();
    const auto r = optimize_rates(in, {.objective = obj});
    ASSERT_TRUE(r.ok);
    for (int l = 0; l < in.routing.rows(); ++l) {
      double load = 0.0;
      for (std::size_t f = 0; f < r.y.size(); ++f)
        load += in.routing(l, static_cast<int>(f)) * r.y[f];
      double budget = 0.0;
      for (int k = 0; k < in.extreme_points.rows(); ++k)
        budget += r.alpha_weights[static_cast<std::size_t>(k)] *
                  in.extreme_points(k, l);
      EXPECT_LE(load, budget + 1e-5);
    }
    double wsum = 0.0;
    for (double w : r.alpha_weights) {
      EXPECT_GE(w, -1e-9);
      wsum += w;
    }
    EXPECT_NEAR(wsum, 1.0, 1e-6);
  }
}

TEST(Optimizer, AsymmetricCapacitiesPropFair) {
  // One link of capacity 4 shared by two flows plus a private link of
  // capacity 1 for flow 1.
  OptimizerInput in;
  in.routing = {
      {1.0, 1.0},  // shared link
      {0.0, 1.0},  // flow 1 also crosses a weak private link
  };
  in.extreme_points = {{4.0, 1.0}};  // links do not interfere
  const auto r =
      optimize_rates(in, {.objective = Objective::kProportionalFair});
  ASSERT_TRUE(r.ok);
  // Flow 1 is capped at 1 by its private link; flow 0 takes the rest.
  EXPECT_NEAR(r.y[1], 1.0, 0.03);
  EXPECT_NEAR(r.y[0], 3.0, 0.05);
}

TEST(Optimizer, EmptyInputsRejected) {
  OptimizerInput in;
  const auto r = optimize_rates(in, {});
  EXPECT_FALSE(r.ok);
}

TEST(Optimizer, RaggedRoutingThrows) {
  // Ragged rows can no longer reach the optimizer: the DenseMatrix
  // builder rejects them at construction.
  EXPECT_THROW((DenseMatrix{{1.0, 1.0}, {1.0}}), std::invalid_argument);
}

TEST(Optimizer, ExtremePointLinkMismatchThrows) {
  OptimizerInput in;
  in.routing = {{1.0, 1.0}};          // 1 link
  in.extreme_points = {{1.0, 1.0}};   // but 2-link extreme points
  EXPECT_THROW(optimize_rates(in, {}), std::invalid_argument);
}

TEST(Optimizer, SingleExtremePointSingleFlow) {
  // Degenerate-but-valid smallest problem: K = 1, S = 1, L = 1.
  OptimizerInput in;
  in.routing = {{1.0}};
  in.extreme_points = {{2.0}};
  for (Objective obj : {Objective::kMaxThroughput, Objective::kMaxMin,
                        Objective::kProportionalFair}) {
    const auto r = optimize_rates(in, {.objective = obj});
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.y.size(), 1u);
    EXPECT_NEAR(r.y[0], 2.0, 1e-3);
    ASSERT_EQ(r.alpha_weights.size(), 1u);
    EXPECT_NEAR(r.alpha_weights[0], 1.0, 1e-6);
  }
}

TEST(Optimizer, NoExtremePointsReturnsNotOk) {
  OptimizerInput in;
  in.routing = {{1.0, 1.0}};
  // extreme_points left empty: K = 0 is degenerate, not an error.
  const auto r = optimize_rates(in, {});
  EXPECT_FALSE(r.ok);
}

TEST(Optimizer, ReusedInstanceMatchesFreshSolves) {
  // A NetworkOptimizer reused across rounds (the controller pattern) must
  // return exactly what one-shot solves return, shape changes included.
  NetworkOptimizer reused({.objective = Objective::kMaxThroughput});
  const std::vector<OptimizerInput> inputs = {
      shared_link_two_flows(), parking_lot(), shared_link_two_flows()};
  for (const OptimizerInput& in : inputs) {
    const auto a = reused.solve(in);
    const auto b =
        optimize_rates(in, {.objective = Objective::kMaxThroughput});
    ASSERT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.y, b.y);
    EXPECT_EQ(a.alpha_weights, b.alpha_weights);
    EXPECT_EQ(a.objective_value, b.objective_value);
  }
}

TEST(Optimizer, TcpAckFactorMatchesPaperFormula) {
  // (1 - (A+H)/(A+H+D)) with A=40, H=40, D=1460.
  EXPECT_NEAR(tcp_ack_airtime_factor(1460, 40, 40), 1460.0 / 1540.0, 1e-12);
  EXPECT_GT(tcp_ack_airtime_factor(), 0.9);
  EXPECT_LT(tcp_ack_airtime_factor(), 1.0);
}

TEST(Optimizer, BitsPerSecondScaleRobustness) {
  // Same problem expressed in bits/s (1e6 scale): results scale linearly.
  OptimizerInput in = parking_lot();
  for (int k = 0; k < in.extreme_points.rows(); ++k)
    for (int l = 0; l < in.extreme_points.cols(); ++l)
      in.extreme_points(k, l) *= 1e6;
  const auto r =
      optimize_rates(in, {.objective = Objective::kProportionalFair});
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.y[1], r.y[2], 0.05e6);
  EXPECT_GT(r.y[0], 1e5);
}

// ------------------------------------- water-filling vs the push-only form

/// The push-only water-filling that dual certification replaced, kept as
/// the differential reference: every unfixed flow of every round gets a
/// push LP, and a final LP with every level pinned recovers the schedule
/// weights.
OptimizerResult push_only_water_fill(RegionLp& region) {
  const int flows = region.flows();
  std::vector<bool> fixed(static_cast<std::size_t>(flows), false);
  std::vector<double> level(static_cast<std::size_t>(flows), 0.0);

  for (int round = 0; round < flows; ++round) {
    LpProblem& lp = region.fresh_lp(/*extra_vars=*/1);
    const int t_var = lp.num_vars - 1;
    lp.objective[static_cast<std::size_t>(t_var)] = 1.0;
    for (int f = 0; f < flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) {
        double* row =
            lp.add_row(Relation::kEq, level[static_cast<std::size_t>(f)]);
        row[f] = 1.0;
      } else {
        double* row = lp.add_row(Relation::kGe, 0.0);
        row[f] = 1.0;
        row[t_var] = -1.0;
      }
    }
    const LpSolution sol = region.solve_lp(LpStart::kCold);
    if (sol.status != LpStatus::kOptimal) break;
    const double t = sol.x[static_cast<std::size_t>(t_var)];

    bool progressed = false;
    bool push_stale = true;
    int prev_obj_flow = -1;
    LpProblem* push = nullptr;
    for (int f = 0; f < flows; ++f) {
      if (fixed[static_cast<std::size_t>(f)]) continue;
      if (push_stale) {
        push = &region.fresh_lp(/*extra_vars=*/0);
        for (int g = 0; g < flows; ++g) {
          if (fixed[static_cast<std::size_t>(g)]) {
            double* row = push->add_row(Relation::kEq,
                                        level[static_cast<std::size_t>(g)]);
            row[g] = 1.0;
          } else {
            double* row = push->add_row(Relation::kGe, t);
            row[g] = 1.0;
          }
        }
        prev_obj_flow = -1;
      }
      if (prev_obj_flow >= 0)
        push->objective[static_cast<std::size_t>(prev_obj_flow)] = 0.0;
      push->objective[static_cast<std::size_t>(f)] = 1.0;
      prev_obj_flow = f;
      const LpSolution up = region.solve_lp(push_stale ? LpStart::kCold
                                                       : LpStart::kResolve);
      push_stale = false;
      const double reach = up.status == LpStatus::kOptimal ? up.objective : t;
      if (reach <= t + 1e-7) {
        fixed[static_cast<std::size_t>(f)] = true;
        level[static_cast<std::size_t>(f)] = t;
        progressed = true;
        push_stale = true;
      }
    }
    if (!progressed) {
      for (int f = 0; f < flows; ++f) {
        if (!fixed[static_cast<std::size_t>(f)]) {
          fixed[static_cast<std::size_t>(f)] = true;
          level[static_cast<std::size_t>(f)] = t;
        }
      }
    }
    if (std::all_of(fixed.begin(), fixed.end(), [](bool b) { return b; }))
      break;
  }

  LpProblem& lp = region.fresh_lp(/*extra_vars=*/0);
  for (int f = 0; f < flows; ++f) {
    double* row = lp.add_row(Relation::kGe,
                             level[static_cast<std::size_t>(f)] * (1.0 - 1e-9));
    row[f] = 1.0;
  }
  const LpSolution sol = region.solve_lp(LpStart::kCold);
  OptimizerResult r;
  if (sol.status != LpStatus::kOptimal) return r;
  r.ok = true;
  r.y.resize(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f)
    r.y[static_cast<std::size_t>(f)] =
        level[static_cast<std::size_t>(f)] * region.scale();
  r.alpha_weights.assign(sol.x.begin() + flows, sol.x.end());
  r.objective_value = *std::min_element(r.y.begin(), r.y.end());
  return r;
}

/// A NetworkOptimizer bound to one input that counts its LP solves.
class CountingRegion final : public RegionLp {
 public:
  explicit CountingRegion(const OptimizerInput& in) {
    EXPECT_TRUE(inner_.bind(in));
    flows_ = inner_.flows();
    scale_ = inner_.scale();
  }
  LpProblem& fresh_lp(int extra_vars) override {
    return inner_.fresh_lp(extra_vars);
  }
  LpSolution solve_lp(LpStart start) override {
    ++solves;
    return inner_.solve_lp(start);
  }
  bool region_duals(std::vector<double>& out) const override {
    return inner_.region_duals(out);
  }

  int solves = 0;

 private:
  NetworkOptimizer inner_;
};

/// Random exact-tier region: each flow crosses each link with probability
/// 0.4 (possibly none), each extreme point activates each link with
/// probability 0.6.
OptimizerInput random_region(RngStream& rng) {
  const int links = rng.uniform_int(1, 6);
  const int flows = rng.uniform_int(1, 6);
  const int points = rng.uniform_int(1, 5);
  OptimizerInput in;
  in.routing = DenseMatrix(links, flows, 0.0);
  for (int l = 0; l < links; ++l)
    for (int f = 0; f < flows; ++f)
      if (rng.bernoulli(0.4)) in.routing(l, f) = 1.0;
  in.extreme_points = DenseMatrix(points, links, 0.0);
  for (int k = 0; k < points; ++k)
    for (int l = 0; l < links; ++l)
      if (rng.bernoulli(0.6)) in.extreme_points(k, l) = rng.uniform(0.5e6, 5e6);
  return in;
}

/// Runs both water-fillings on `in` and checks the certified one against
/// the push-only reference: bit-identical levels, valid weights, and at
/// least one LP solve per level plus one fewer.
void expect_matches_push_only(const OptimizerInput& in,
                              const std::string& what) {
  CountingRegion now_region(in), ref_region(in);
  const OptimizerResult now = water_fill(now_region);
  const OptimizerResult ref = push_only_water_fill(ref_region);
  ASSERT_EQ(now.ok, ref.ok) << what;
  if (!ref.ok) return;
  EXPECT_EQ(now.y, ref.y) << what;
  EXPECT_EQ(now.objective_value, ref.objective_value) << what;

  ASSERT_EQ(now.alpha_weights.size(),
            static_cast<std::size_t>(in.extreme_points.rows()))
      << what;
  double wsum = 0.0;
  for (double w : now.alpha_weights) {
    // Simplex round-off leaves basic weights at a degenerate vertex a few
    // ulps below 0 (the reference's pinned LP reaches -4.5e-9 on these
    // regions).
    EXPECT_GE(w, -1e-12) << what;
    wsum += w;
  }
  EXPECT_NEAR(wsum, 1.0, 1e-9) << what;
  const double scale = now_region.scale();
  for (int l = 0; l < in.routing.rows(); ++l) {
    double load = 0.0, budget = 0.0;
    for (std::size_t f = 0; f < now.y.size(); ++f)
      load += in.routing(l, static_cast<int>(f)) * now.y[f];
    for (int k = 0; k < in.extreme_points.rows(); ++k)
      budget += now.alpha_weights[static_cast<std::size_t>(k)] *
                in.extreme_points(k, l);
    EXPECT_LE(load, budget + 1e-9 * scale) << what << " link " << l;
  }

  // Every round's duals fix at least one flow without a push, and the
  // pinned-levels LP is gone: at least one solve per level plus one fewer
  // than the reference, so never more, and fewer wherever >= 2 flows
  // share the first bottleneck.
  std::vector<double> levels = ref.y;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  EXPECT_LE(now_region.solves,
            ref_region.solves - static_cast<int>(levels.size()) - 1)
      << what;
}

TEST(WaterFill, MatchesPushOnlyOnRandomRegions) {
  RngStream rng(83, "water-fill-differential");
  for (int trial = 0; trial < 200; ++trial)
    expect_matches_push_only(random_region(rng),
                             "trial " + std::to_string(trial));
}

TEST(WaterFill, MatchesPushOnlyOnSymmetricBottleneck) {
  // Symmetric flows share link 0 at one level where they also fill private
  // links, so the t-LP is degenerate: its duals may certify the level
  // through either kind of link, and a flow stuck at the level can get a
  // zero dual. With four flows every row gets a nonzero dual; with only
  // flows 1 and 2 on private links, some stuck flow keeps a zero dual and
  // gets a push test.
  OptimizerInput four;
  four.routing = {{1.0, 1.0, 1.0, 1.0},
                  {1.0, 0.0, 0.0, 0.0},
                  {0.0, 1.0, 0.0, 0.0},
                  {0.0, 0.0, 1.0, 0.0},
                  {0.0, 0.0, 0.0, 1.0}};
  four.extreme_points = {{4.0e6, 1.0e6, 1.0e6, 1.0e6, 1.0e6}};
  expect_matches_push_only(four, "four symmetric flows");

  OptimizerInput three;
  three.routing = {{1.0, 1.0, 1.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}};
  three.extreme_points = {{3.0e6, 1.0e6, 1.0e6}};
  CountingRegion region(three);
  ASSERT_TRUE(water_fill(region).ok);
  EXPECT_GT(region.solves, 1);  // zero-dual flows were pushed
  expect_matches_push_only(three, "two symmetric flows on private links");
}

TEST(WaterFill, MatchesPushOnlyWithUnroutedFlow) {
  // Flow 2 crosses no link, so only the unit-cap row bounds it.
  OptimizerInput in;
  in.routing = {{1.0, 1.0, 0.0}};
  in.extreme_points = {{3.0}};
  expect_matches_push_only(in, "unrouted");
}

TEST(WaterFill, MatchesPushOnlyWithZeroCapacityLink) {
  // Flow 0's link never gets capacity, so the first level is t = 0.
  OptimizerInput in;
  in.routing = {{1.0, 0.0}, {0.0, 1.0}};
  in.extreme_points = {{0.0, 1.0e6}};
  CountingRegion region(in);
  const OptimizerResult r = water_fill(region);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.y[0], 0.0);
  EXPECT_NEAR(r.y[1], 1.0e6, 1e-3);
  expect_matches_push_only(in, "zero capacity");
}

TEST(WaterFill, MatchesPushOnlyWithLaterLevel) {
  // Links 0 (capacity 1) and 1 (capacity 4) never interfere. Flows 0 and 1
  // share link 0 at 1/2; flow 2 rises to 4 - 1/2 on link 1 in round two.
  OptimizerInput in;
  in.routing = {{1.0, 1.0, 0.0}, {1.0, 0.0, 1.0}};
  in.extreme_points = {{1.0, 4.0}};
  CountingRegion region(in);
  const OptimizerResult r = water_fill(region);
  ASSERT_TRUE(r.ok);
  EXPECT_NEAR(r.y[0], 0.5, 1e-9);
  EXPECT_NEAR(r.y[2], 3.5, 1e-9);
  expect_matches_push_only(in, "later level");
}

TEST(WaterFill, BottleneckDualsAreNonPositiveAndSumToMinusOne) {
  // max t s.t. y_f - t >= 0 on two flows sharing one unit link: t = 1/2,
  // and tightening either flow's row by one unit lowers t by 1/2.
  NetworkOptimizer region;
  const OptimizerInput in = shared_link_two_flows();
  ASSERT_TRUE(region.bind(in));
  LpProblem& lp = region.fresh_lp(/*extra_vars=*/1);
  const int t_var = lp.num_vars - 1;
  const int first_flow_row = lp.num_constraints();
  lp.objective[static_cast<std::size_t>(t_var)] = 1.0;
  for (int f = 0; f < 2; ++f) {
    double* row = lp.add_row(Relation::kGe, 0.0);
    row[f] = 1.0;
    row[t_var] = -1.0;
  }
  const LpSolution sol = region.solve_lp(LpStart::kCold);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(t_var)], 0.5, 1e-12);
  std::vector<double> duals;
  EXPECT_TRUE(region.region_duals(duals));
  ASSERT_EQ(duals.size(), static_cast<std::size_t>(first_flow_row + 2));
  EXPECT_NEAR(duals[static_cast<std::size_t>(first_flow_row)], -0.5, 1e-12);
  EXPECT_NEAR(duals[static_cast<std::size_t>(first_flow_row + 1)], -0.5,
              1e-12);
}

}  // namespace
}  // namespace meshopt
