// Tests for RUMR (core/rumr.hpp): the phase-split heuristic (design choice
// i), phase hand-off, degenerate cases, and the ablation variants used in
// the paper's Figures 6 and 7.

#include "core/rumr.hpp"

#include <gtest/gtest.h>

#include "config/policies.hpp"
#include "sim/master_worker.hpp"

namespace rumr::core {
namespace {

platform::StarPlatform paperish(std::size_t n = 20, double b_over_n = 1.6, double clat = 0.3,
                                double nlat = 0.2) {
  return platform::StarPlatform::homogeneous(
      {.workers = n, .speed = 1.0, .bandwidth = b_over_n * static_cast<double>(n),
       .comp_latency = clat, .comm_latency = nlat});
}

RumrOptions with_error(double error) {
  RumrOptions options;
  options.known_error = error;
  return options;
}

TEST(RumrSplit, ZeroErrorDefaultsToPureUmr) {
  EXPECT_EQ(rumr_phase2_work(paperish(), 1000.0, with_error(0.0)), 0.0);
  const RumrPolicy policy(paperish(), 1000.0, with_error(0.0));
  EXPECT_EQ(policy.phase2_work(), 0.0);
  EXPECT_GT(policy.phase1_rounds(), 0u);
}

TEST(RumrSplit, ErrorAboveOneDefaultsToPureFactoring) {
  EXPECT_EQ(rumr_phase2_work(paperish(), 1000.0, with_error(1.0)), 1000.0);
  EXPECT_EQ(rumr_phase2_work(paperish(), 1000.0, with_error(2.5)), 1000.0);
  const RumrPolicy policy(paperish(), 1000.0, with_error(1.5));
  EXPECT_EQ(policy.phase2_work(), 1000.0);
  EXPECT_EQ(policy.phase1_rounds(), 0u);
  EXPECT_TRUE(policy.in_phase2());
}

TEST(RumrSplit, ProportionalShareWhenEngaged) {
  // Low-overhead platform: phase 2 engages and gets error * W.
  const platform::StarPlatform p = paperish(20, 1.6, 0.05, 0.01);
  EXPECT_DOUBLE_EQ(rumr_phase2_work(p, 1000.0, with_error(0.3)), 300.0);
}

TEST(RumrSplit, ThresholdDisablesPhase2WhenOverheadDominates) {
  // overhead = cLat + nLat*N = 0.3 + 0.9*20 = 18.3 work units.
  // Condition (a): error^2 * W >= 2 * overhead -> error >= 0.191.
  const platform::StarPlatform p = paperish(20, 1.8, 0.3, 0.9);
  EXPECT_EQ(rumr_phase2_work(p, 1000.0, with_error(0.10)), 0.0);
  EXPECT_EQ(rumr_phase2_work(p, 1000.0, with_error(0.18)), 0.0);
  EXPECT_GT(rumr_phase2_work(p, 1000.0, with_error(0.20)), 0.0);
}

TEST(RumrSplit, PerWorkerOverheadConditionAlsoGates) {
  // Condition (b): error * W / N >= overhead. With N = 50, nLat = 1:
  // overhead = 51; error * 1000 / 50 = 20 * error < 51 for all error < 1.
  const platform::StarPlatform p = paperish(50, 1.5, 1.0, 1.0);
  for (double e : {0.2, 0.4, 0.6, 0.9}) {
    EXPECT_EQ(rumr_phase2_work(p, 1000.0, with_error(e)), 0.0) << "error " << e;
  }
}

TEST(RumrSplit, ThresholdCanBeDisabled) {
  const platform::StarPlatform p = paperish(20, 1.8, 0.3, 0.9);
  RumrOptions options = with_error(0.10);
  options.apply_phase2_threshold = false;
  EXPECT_DOUBLE_EQ(rumr_phase2_work(p, 1000.0, options), 100.0);
}

TEST(RumrSplit, UnknownErrorUsesFixedFraction) {
  RumrOptions options;  // known_error unset.
  options.unknown_error_phase2_fraction = 0.2;
  EXPECT_DOUBLE_EQ(rumr_phase2_work(paperish(), 1000.0, options), 200.0);
  options.unknown_error_phase2_fraction = 0.35;
  EXPECT_DOUBLE_EQ(rumr_phase2_work(paperish(), 1000.0, options), 350.0);
}

TEST(RumrSplit, FixedSplitOptionsMatchFigureSix) {
  for (double percent : {50.0, 60.0, 70.0, 80.0, 90.0}) {
    const RumrOptions options = rumr_fixed_split_options(percent);
    EXPECT_FALSE(options.known_error.has_value());
    EXPECT_FALSE(options.apply_phase2_threshold);
    EXPECT_NEAR(options.unknown_error_phase2_fraction, 1.0 - percent / 100.0, 1e-12);
    EXPECT_DOUBLE_EQ(rumr_phase2_work(paperish(), 1000.0, options),
                     1000.0 * (1.0 - percent / 100.0));
  }
  EXPECT_EQ(rumr_fixed_split_options(80.0).name, "RUMR-80");
}

TEST(RumrPolicy, RejectsBadWorkload) {
  EXPECT_THROW(RumrPolicy(paperish(), 0.0, {}), std::invalid_argument);
  EXPECT_THROW(RumrPolicy(paperish(), -1.0, {}), std::invalid_argument);
}

TEST(RumrPolicy, ConservesWorkAcrossPhases) {
  const platform::StarPlatform p = paperish(20, 1.6, 0.1, 0.05);
  RumrPolicy policy(p, 1000.0, with_error(0.3));
  EXPECT_GT(policy.phase2_work(), 0.0);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.3, 7));
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
  EXPECT_TRUE(policy.finished());
}

TEST(RumrPolicy, MatchesUmrExactlyAtZeroError) {
  const platform::StarPlatform p = paperish();
  RumrPolicy rumr(p, 1000.0, with_error(0.0));
  UmrPolicy umr(p, 1000.0, DispatchOrder::kInOrder);
  EXPECT_DOUBLE_EQ(simulate(p, rumr, sim::SimOptions{}).makespan,
                   simulate(p, umr, sim::SimOptions{}).makespan);
}

TEST(RumrPolicy, PhaseTwoDispatchesAfterPhaseOne) {
  const platform::StarPlatform p = paperish(10, 1.5, 0.1, 0.02);
  RumrPolicy policy(p, 1000.0, with_error(0.4));
  ASSERT_GT(policy.phase2_work(), 0.0);
  EXPECT_FALSE(policy.in_phase2());
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.4, 3));
  EXPECT_TRUE(policy.in_phase2());
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
}

TEST(RumrPolicy, InOrderVariantRunsAndConserves) {
  const platform::StarPlatform p = paperish();
  RumrOptions options = with_error(0.3);
  options.phase1_order = DispatchOrder::kInOrder;
  options.name = "RUMR-inorder";
  RumrPolicy policy(p, 1000.0, std::move(options));
  EXPECT_EQ(policy.name(), "RUMR-inorder");
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.3, 5));
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
}

TEST(RumrPolicy, TimetablePhase1DoesNotDeadlock) {
  // phase1_order = kTimetable makes phase 1 time-gated; RumrPolicy must
  // forward the wake-up times or the engine would stall forever.
  const platform::StarPlatform p = paperish();
  RumrOptions options = with_error(0.3);
  options.phase1_order = DispatchOrder::kTimetable;
  RumrPolicy policy(p, 1000.0, std::move(options));
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.3, 17));
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
  EXPECT_TRUE(policy.finished());
}

TEST(RumrPolicy, HonorsCustomFactoringFactor) {
  const platform::StarPlatform p = paperish(10, 1.5, 0.05, 0.01);
  RumrOptions options = with_error(0.5);
  options.factoring_factor = 3.0;
  RumrPolicy policy(p, 1000.0, std::move(options));
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.5, 11));
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
}

TEST(RumrPolicy, HeterogeneousPhase2WeightsChunksBySpeed) {
  // 4x speed spread: phase 2 must give the fast workers proportionally more
  // work, or the slow ones drag the tail. Verified behaviorally: per-worker
  // completed work roughly tracks speed, and the run conserves.
  const platform::StarPlatform p({{4.0, 40.0, 0.1, 0.05, 0.0},
                                  {4.0, 40.0, 0.1, 0.05, 0.0},
                                  {1.0, 12.0, 0.1, 0.05, 0.0},
                                  {1.0, 12.0, 0.1, 0.05, 0.0}});
  RumrPolicy policy(p, 1000.0, with_error(0.4));
  ASSERT_GT(policy.phase2_work(), 0.0);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.4, 23));
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
  // Fast workers (4x speed) did several times the slow workers' work.
  EXPECT_GT(r.workers[0].work, 2.0 * r.workers[2].work);
}

TEST(RumrPolicy, HeterogeneousBeatsPlainFactoringUnderError) {
  const platform::StarPlatform p({{4.0, 40.0, 0.1, 0.05, 0.0},
                                  {2.0, 24.0, 0.1, 0.05, 0.0},
                                  {1.0, 12.0, 0.1, 0.05, 0.0},
                                  {1.0, 12.0, 0.1, 0.05, 0.0}});
  double rumr_total = 0.0;
  double factoring_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RumrPolicy rumr(p, 1000.0, with_error(0.3));
    rumr_total += simulate(p, rumr, sim::SimOptions::with_error(0.3, seed)).makespan;
    const auto factoring = config::make_policy("factoring", p, 1000.0, 0.3);
    factoring_total += simulate(p, *factoring, sim::SimOptions::with_error(0.3, seed)).makespan;
  }
  EXPECT_LT(rumr_total, factoring_total);
}

TEST(RumrPolicy, ReducesMakespanUnderErrorOnLowLatencyPlatform) {
  // The headline claim, pinned at one config: at substantial error RUMR's
  // mean makespan beats plain UMR's (40 repetitions, paired seeds).
  const platform::StarPlatform p = paperish(20, 1.8, 0.1, 0.1);
  double umr_total = 0.0;
  double rumr_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    UmrPolicy umr(p, 1000.0, DispatchOrder::kInOrder);
    umr_total += simulate(p, umr, sim::SimOptions::with_error(0.4, seed)).makespan;
    RumrPolicy rumr(p, 1000.0, with_error(0.4));
    rumr_total += simulate(p, rumr, sim::SimOptions::with_error(0.4, seed)).makespan;
  }
  EXPECT_LT(rumr_total, umr_total);
}

}  // namespace
}  // namespace rumr::core
