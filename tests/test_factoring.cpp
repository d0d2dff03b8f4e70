// Tests for Factoring (baselines/factoring.hpp): chunk-size sequence,
// floors, termination, greedy self-scheduled dispatch, and the empty-round
// overhead helpers shared with RUMR.

#include "baselines/factoring.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "config/policies.hpp"
#include "sim/master_worker.hpp"

namespace rumr::baselines {
namespace {

TEST(EmptyRoundOverhead, HomogeneousFormula) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 20, .speed = 2.0, .bandwidth = 50.0, .comp_latency = 0.3,
       .comm_latency = 0.9});
  // Seconds: cLat + nLat * N = 0.3 + 18 = 18.3; work units: * mean speed.
  EXPECT_NEAR(empty_round_overhead_seconds(p), 18.3, 1e-12);
  EXPECT_NEAR(empty_round_overhead_work(p), 18.3 * 2.0, 1e-12);
}

TEST(EmptyRoundOverhead, HeterogeneousUsesMeans) {
  const platform::StarPlatform p(
      {{1.0, 10.0, 0.2, 0.1, 0.0}, {3.0, 10.0, 0.4, 0.3, 0.0}});
  EXPECT_NEAR(empty_round_overhead_seconds(p), 0.3 + 0.2 * 2.0, 1e-12);
  EXPECT_NEAR(empty_round_overhead_work(p), (0.3 + 0.4) * 2.0, 1e-12);
}

TEST(FactoringChunks, RejectsBadArguments) {
  EXPECT_THROW((void)factoring_chunks(100.0, 0, {}), std::invalid_argument);
  FactoringOptions bad;
  bad.factor = 1.0;
  EXPECT_THROW((void)factoring_chunks(100.0, 4, bad), std::invalid_argument);
}

TEST(FactoringChunks, EmptyForNonPositiveWork) {
  EXPECT_TRUE(factoring_chunks(0.0, 4, {}).empty());
  EXPECT_TRUE(factoring_chunks(-5.0, 4, {}).empty());
}

TEST(FactoringChunks, SumsExactlyToWorkload) {
  for (double w : {1.0, 100.0, 1000.0, 12345.6}) {
    for (std::size_t n : {1u, 4u, 32u}) {
      const auto chunks = factoring_chunks(w, n, {});
      const double total = std::accumulate(chunks.begin(), chunks.end(), 0.0);
      EXPECT_NEAR(total, w, 1e-9 * w) << "w=" << w << " n=" << n;
    }
  }
}

TEST(FactoringChunks, FirstBatchIsHalfTheWorkSplitEvenly) {
  // Classic factor 2: the first N chunks each carry W / (2N).
  const auto chunks = factoring_chunks(1000.0, 10, {});
  ASSERT_GE(chunks.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(chunks[i], 50.0, 1e-9);
  // Second batch halves again.
  EXPECT_NEAR(chunks[10], 25.0, 1e-9);
}

TEST(FactoringChunks, SizesAreNonIncreasingExceptFinalAbsorber) {
  // The last chunk may absorb a sub-floor remainder and exceed its
  // immediate predecessor slightly; everything before it is non-increasing
  // and nothing ever exceeds the first chunk.
  const auto chunks = factoring_chunks(1000.0, 8, {});
  ASSERT_GE(chunks.size(), 3u);
  for (std::size_t i = 0; i + 2 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i], chunks[i + 1] - 1e-9);
  }
  EXPECT_LE(chunks.back(), chunks.front() + 1e-9);
}

TEST(FactoringChunks, RespectsFloor) {
  FactoringOptions options;
  options.min_chunk = 20.0;
  const auto chunks = factoring_chunks(1000.0, 10, options);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i], 20.0 - 1e-9) << "chunk " << i;
  }
  // Only the final remainder chunk may dip below the floor.
  EXPECT_GT(chunks.back(), 0.0);
}

TEST(FactoringChunks, TerminatesWithZeroFloor) {
  const auto chunks = factoring_chunks(1000.0, 4, {});
  EXPECT_LT(chunks.size(), 1000u);  // Bounded by the internal 1e-6*W floor.
}

TEST(FactoringChunks, CustomFactorThree) {
  FactoringOptions options;
  options.factor = 3.0;
  const auto chunks = factoring_chunks(900.0, 10, options);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(chunks[i], 30.0, 1e-9);
}

TEST(FactoringPolicy, GreedyDispatchFeedsOnlyIdleWorkers) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1,
       .comm_latency = 0.1});
  FactoringPolicy policy(400.0, 4);
  sim::SimOptions options;
  options.record_trace = true;
  const sim::SimResult r = simulate(p, policy, options);
  EXPECT_NEAR(r.work_dispatched, 400.0, 1e-6);
  // Self-scheduling: at any time a worker holds at most one outstanding
  // chunk, so compute spans for one worker never overlap and are separated
  // by the request round trips.
  for (std::size_t w = 0; w < 4; ++w) {
    const auto spans = r.trace.for_worker(w);
    double last_end = 0.0;
    for (const auto& s : spans) {
      if (s.kind != sim::SpanKind::kCompute) continue;
      EXPECT_GE(s.start, last_end - 1e-12);
      last_end = s.end;
    }
  }
}

TEST(FactoringPolicy, WorksOnWorkerSubset) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 6, .speed = 1.0, .bandwidth = 12.0});
  FactoringPolicy policy(300.0, std::vector<std::size_t>{1, 3, 5});
  const sim::SimResult r = simulate(p, policy, sim::SimOptions{});
  EXPECT_NEAR(r.work_dispatched, 300.0, 1e-6);
  EXPECT_EQ(r.workers[0].chunks, 0u);
  EXPECT_EQ(r.workers[2].chunks, 0u);
  EXPECT_EQ(r.workers[4].chunks, 0u);
  EXPECT_GT(r.workers[1].chunks, 0u);
  EXPECT_GT(r.workers[3].chunks, 0u);
  EXPECT_GT(r.workers[5].chunks, 0u);
}

TEST(FactoringPolicy, FactoryUsesOverheadFloor) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 10, .speed = 1.0, .bandwidth = 15.0, .comp_latency = 0.5,
       .comm_latency = 0.5});
  const auto policy = config::make_policy("factoring", p, 1000.0, 0.0);
  EXPECT_EQ(policy->name(), "Factoring");
  const auto* self = dynamic_cast<const SelfSchedulingPolicy*>(policy.get());
  ASSERT_NE(self, nullptr);
  // Floor = cLat + nLat*N = 5.5 work units; all but the last chunk respect it.
  const auto& chunks = self->chunk_sequence();
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) EXPECT_GE(chunks[i], 5.5 - 1e-9);
}

TEST(SelfScheduling, RejectsEmptyWorkerSet) {
  EXPECT_THROW(SelfSchedulingPolicy("x", {1.0}, std::vector<std::size_t>{}),
               std::invalid_argument);
}

TEST(SelfScheduling, DropsNonPositiveChunks) {
  SelfSchedulingPolicy policy("x", {1.0, 0.0, -2.0, 3.0}, 2);
  EXPECT_EQ(policy.chunk_sequence().size(), 2u);
  EXPECT_DOUBLE_EQ(policy.total_work(), 4.0);
}

}  // namespace
}  // namespace rumr::baselines
