// Tests for Fixed-Size Chunking (baselines/fsc.hpp).

#include "baselines/fsc.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "config/policies.hpp"
#include "sim/master_worker.hpp"

namespace rumr::baselines {
namespace {

platform::StarPlatform paperish(std::size_t n = 10, double clat = 0.2, double nlat = 0.1) {
  return platform::StarPlatform::homogeneous(
      {.workers = n, .speed = 1.0, .bandwidth = 1.5 * static_cast<double>(n),
       .comp_latency = clat, .comm_latency = nlat});
}

TEST(FscChunkSize, ZeroErrorFallsBackToOneRound) {
  const platform::StarPlatform p = paperish();
  EXPECT_DOUBLE_EQ(fsc_chunk_size(p, 1000.0, 0.0), 100.0);
  EXPECT_DOUBLE_EQ(fsc_chunk_size(p, 1000.0, -1.0), 100.0);
}

TEST(FscChunkSize, MatchesKruskalWeissFormula) {
  const platform::StarPlatform p = paperish(10, 0.2, 0.1);
  const double w = 1000.0;
  const double error = 0.3;
  const double h = 0.2 + 0.1 * 10.0;  // overhead in work units (S = 1).
  const auto n = 10.0;
  const double expected =
      std::pow(std::numbers::sqrt2 * w * h / (error * n * std::sqrt(std::log(n))), 2.0 / 3.0);
  EXPECT_NEAR(fsc_chunk_size(p, w, error), expected, 1e-9);
}

TEST(FscChunkSize, NeverExceedsOneRoundShare) {
  const platform::StarPlatform p = paperish(10, 1.0, 1.0);  // Big overhead.
  EXPECT_LE(fsc_chunk_size(p, 1000.0, 0.05), 100.0 + 1e-12);
}

TEST(FscChunkSize, ShrinksWithGrowingError) {
  const platform::StarPlatform p = paperish();
  double previous = 1e300;
  for (double e : {0.1, 0.2, 0.3, 0.4, 0.5}) {
    const double c = fsc_chunk_size(p, 1000.0, e);
    EXPECT_LE(c, previous + 1e-12) << "error " << e;
    previous = c;
  }
}

TEST(FscChunkSize, ZeroOverheadUsesFinePartition) {
  const platform::StarPlatform p = paperish(10, 0.0, 0.0);
  const double c = fsc_chunk_size(p, 1000.0, 0.3);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 1.0);  // Far below the one-round share.
}

TEST(FscPolicy, ConservesAndRuns) {
  const platform::StarPlatform p = paperish();
  FscPolicy policy(p, 1000.0, 0.3);
  EXPECT_EQ(policy.name(), "FSC");
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.3, 3));
  EXPECT_NEAR(r.work_dispatched, 1000.0, 1e-6);
}

TEST(FscPolicy, AllChunksEqualExceptLast) {
  const platform::StarPlatform p = paperish();
  FscPolicy policy(p, 1000.0, 0.25);
  const auto& chunks = policy.chunk_sequence();
  ASSERT_GE(chunks.size(), 2u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_NEAR(chunks[i], chunks[0], 1e-9);
  }
  EXPECT_LE(chunks.back(), chunks[0] + 1e-9);
}

TEST(FscPolicy, FactoryProducesPolicy) {
  const platform::StarPlatform p = paperish();
  const auto policy = config::make_policy("fsc", p, 500.0, 0.2);
  const sim::SimResult r = simulate(p, *policy, sim::SimOptions{});
  EXPECT_NEAR(r.work_dispatched, 500.0, 1e-6);
}

}  // namespace
}  // namespace rumr::baselines
