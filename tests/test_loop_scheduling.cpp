// Tests for the loop self-scheduling family (baselines/loop_scheduling.hpp):
// GSS, TSS, CSS, and Weighted Factoring.

#include "baselines/loop_scheduling.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "config/policies.hpp"
#include "sim/master_worker.hpp"

namespace rumr::baselines {
namespace {

platform::StarPlatform paperish(std::size_t n = 8) {
  return platform::StarPlatform::homogeneous(
      {.workers = n, .speed = 1.0, .bandwidth = 1.5 * static_cast<double>(n),
       .comp_latency = 0.2, .comm_latency = 0.1});
}

double total(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

// --- GSS ------------------------------------------------------------------

TEST(Gss, RejectsZeroWorkers) {
  EXPECT_THROW((void)gss_chunks(100.0, 0), std::invalid_argument);
}

TEST(Gss, EmptyForNonPositiveWork) {
  EXPECT_TRUE(gss_chunks(0.0, 4).empty());
}

TEST(Gss, FirstChunkIsRemainingOverN) {
  const auto chunks = gss_chunks(1000.0, 10);
  ASSERT_FALSE(chunks.empty());
  EXPECT_NEAR(chunks[0], 100.0, 1e-9);
  // Second chunk: (1000 - 100) / 10 = 90.
  EXPECT_NEAR(chunks[1], 90.0, 1e-9);
}

TEST(Gss, DecreasesPerDispatchAndConserves) {
  const auto chunks = gss_chunks(1000.0, 10, 1.0);
  for (std::size_t i = 0; i + 2 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i], chunks[i + 1] - 1e-9);
  }
  EXPECT_NEAR(total(chunks), 1000.0, 1e-6);
}

TEST(Gss, RespectsFloor) {
  const auto chunks = gss_chunks(1000.0, 10, 25.0);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) EXPECT_GE(chunks[i], 25.0 - 1e-9);
}

TEST(Gss, PolicyRunsAndConserves) {
  const platform::StarPlatform p = paperish();
  const auto policy = config::make_policy("gss", p, 800.0, 0.0);
  EXPECT_EQ(policy->name(), "GSS");
  const sim::SimResult r = simulate(p, *policy, sim::SimOptions::with_error(0.3, 5));
  EXPECT_NEAR(r.work_dispatched, 800.0, 1e-6);
}

// --- TSS ------------------------------------------------------------------

TEST(Tss, DefaultFirstIsHalfRoundShare) {
  const auto chunks = tss_chunks(1000.0, 10, {});
  ASSERT_FALSE(chunks.empty());
  EXPECT_NEAR(chunks[0], 50.0, 1e-9);  // W / (2N).
}

TEST(Tss, LinearDecayAndConservation) {
  TssOptions options;
  options.first = 40.0;
  options.last = 10.0;
  const auto chunks = tss_chunks(1000.0, 10, options);
  EXPECT_NEAR(total(chunks), 1000.0, 1e-6);
  // Differences between consecutive chunks are (roughly) constant until the
  // floor/absorption kicks in.
  ASSERT_GE(chunks.size(), 4u);
  const double d0 = chunks[0] - chunks[1];
  const double d1 = chunks[1] - chunks[2];
  EXPECT_NEAR(d0, d1, 1e-9);
  EXPECT_GT(d0, 0.0);
}

TEST(Tss, RejectsNonPositiveLastChunk) {
  TssOptions options;
  options.last = 0.0;
  EXPECT_THROW((void)tss_chunks(100.0, 4, options), std::invalid_argument);
}

TEST(Tss, NeverEmitsBelowLastExceptAbsorber) {
  TssOptions options;
  options.first = 30.0;
  options.last = 5.0;
  const auto chunks = tss_chunks(500.0, 6, options);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i], 5.0 - 1e-9);
  }
}

TEST(Tss, PolicyRunsAndConserves) {
  const platform::StarPlatform p = paperish();
  const auto policy = config::make_policy("tss", p, 800.0, 0.0);
  const sim::SimResult r = simulate(p, *policy, sim::SimOptions::with_error(0.2, 9));
  EXPECT_NEAR(r.work_dispatched, 800.0, 1e-6);
}

// --- CSS ------------------------------------------------------------------

TEST(Css, FixedChunksOfRequestedSize) {
  CssPolicy policy(100.0, 4, 30.0);
  const auto& chunks = policy.chunk_sequence();
  ASSERT_EQ(chunks.size(), 4u);  // 30 + 30 + 30 + 10.
  EXPECT_NEAR(chunks[0], 30.0, 1e-12);
  EXPECT_NEAR(chunks[3], 10.0, 1e-9);
  EXPECT_NEAR(policy.total_work(), 100.0, 1e-9);
}

TEST(Css, RejectsNonPositiveChunkSize) {
  EXPECT_THROW(CssPolicy(100.0, 4, 0.0), std::invalid_argument);
}

// --- Weighted Factoring ----------------------------------------------------

TEST(WeightedFactoring, SharesProportionalToWeights) {
  const auto plan = weighted_factoring_chunks(900.0, {1.0, 2.0});
  // First batch schedules 450 units: 150 to worker 0, 300 to worker 1.
  ASSERT_GE(plan.size(), 2u);
  EXPECT_EQ(plan[0].first, 0u);
  EXPECT_NEAR(plan[0].second, 150.0, 1e-9);
  EXPECT_EQ(plan[1].first, 1u);
  EXPECT_NEAR(plan[1].second, 300.0, 1e-9);
}

TEST(WeightedFactoring, ConservesAndCoversAllWorkers) {
  const auto plan = weighted_factoring_chunks(1000.0, {1.0, 3.0, 2.0});
  double sum = 0.0;
  std::vector<double> per_worker(3, 0.0);
  for (const auto& [worker, chunk] : plan) {
    sum += chunk;
    per_worker[worker] += chunk;
  }
  EXPECT_NEAR(sum, 1000.0, 1e-6);
  // Long-run shares track the weights.
  EXPECT_NEAR(per_worker[1] / per_worker[0], 3.0, 0.4);
  EXPECT_NEAR(per_worker[2] / per_worker[0], 2.0, 0.4);
}

TEST(WeightedFactoring, RejectsBadWeights) {
  EXPECT_THROW((void)weighted_factoring_chunks(100.0, {}), std::invalid_argument);
  EXPECT_THROW((void)weighted_factoring_chunks(100.0, {1.0, -2.0}), std::invalid_argument);
}

TEST(WeightedFactoring, PolicyRunsOnHeterogeneousPlatform) {
  const platform::StarPlatform p(
      {{1.0, 8.0, 0.1, 0.05, 0.0}, {3.0, 16.0, 0.1, 0.05, 0.0}, {2.0, 12.0, 0.1, 0.05, 0.0}});
  const auto policy = config::make_policy("wf", p, 600.0, 0.0);
  EXPECT_EQ(policy->name(), "WF");
  const sim::SimResult r = simulate(p, *policy, sim::SimOptions::with_error(0.25, 3));
  EXPECT_NEAR(r.work_dispatched, 600.0, 1e-6);
  // The fast worker computed more than the slow one.
  EXPECT_GT(r.workers[1].work, r.workers[0].work);
}

TEST(WeightedFactoring, SlowWorkerDoesNotStallTheOther) {
  // Equal speeds (so WF assigns equal shares) but worker 0 pays a huge
  // per-chunk start-up cost WF does not know about. The dispatch must let
  // worker 1 race through its pre-assigned chunks instead of waiting for
  // worker 0's batch position.
  const platform::StarPlatform p(
      {{1.0, 10.0, 50.0, 0.0, 0.0}, {1.0, 10.0, 0.0, 0.0, 0.0}});
  WeightedFactoringPolicy policy(p, 500.0);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions{});
  EXPECT_NEAR(r.work_dispatched, 500.0, 1e-6);
  EXPECT_LT(r.workers[1].last_end, 0.5 * r.workers[0].last_end);
  EXPECT_DOUBLE_EQ(r.makespan, r.workers[0].last_end);
}

}  // namespace
}  // namespace rumr::baselines
