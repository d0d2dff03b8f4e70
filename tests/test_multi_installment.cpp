// Tests for the Multi-Installment baseline (baselines/multi_installment.hpp):
// the closed-form MI-1 geometric solution, the just-in-time property of the
// general solution, conservation, and execution.

#include "baselines/multi_installment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "config/policies.hpp"
#include "sim/master_worker.hpp"

namespace rumr::baselines {
namespace {

platform::StarPlatform latency_free(std::size_t n, double s, double b) {
  return platform::StarPlatform::homogeneous({.workers = n, .speed = s, .bandwidth = b});
}

TEST(MultiInstallment, RejectsBadArguments) {
  const platform::StarPlatform p = latency_free(4, 1.0, 6.0);
  EXPECT_THROW((void)solve_multi_installment(p, 1000.0, 0), std::invalid_argument);
  EXPECT_THROW((void)solve_multi_installment(p, 0.0, 1), std::invalid_argument);
}

TEST(MultiInstallment, RejectsSystemsPastTheUnknownsBound) {
  const platform::StarPlatform p = latency_free(4, 1.0, 6.0);
  EXPECT_THROW((void)solve_multi_installment(p, 1000.0, kMaxMiUnknowns / 4 + 1),
               std::invalid_argument);
  // N*x that wraps around 2^64 to a small number is rejected too.
  EXPECT_THROW((void)solve_multi_installment(p, 1000.0, (std::size_t{1} << 62) + 1),
               std::invalid_argument);
}

TEST(MultiInstallment, Mi1MatchesClosedFormGeometricSolution) {
  // One-round divisible load on a homogeneous star: alpha_{i+1}/alpha_i =
  // B/(B+S), sum = W.
  const double w = 1000.0;
  const double b = 6.0;
  const double s = 1.0;
  const MiSchedule mi = solve_multi_installment(latency_free(4, s, b), w, 1);
  EXPECT_FALSE(mi.clamped);
  const double ratio = b / (b + s);
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    EXPECT_NEAR(mi.chunk[0][i + 1] / mi.chunk[0][i], ratio, 1e-9);
  }
  EXPECT_NEAR(mi.total(), w, 1e-6);
}

TEST(MultiInstallment, ConservesWorkloadForAllX) {
  const platform::StarPlatform p = latency_free(10, 1.0, 12.0);
  for (std::size_t x = 1; x <= 4; ++x) {
    const MiSchedule mi = solve_multi_installment(p, 1000.0, x);
    EXPECT_NEAR(mi.total(), 1000.0, 1e-6) << "x=" << x;
    EXPECT_EQ(mi.installments, x);
    EXPECT_FALSE(mi.clamped) << "x=" << x;
  }
}

TEST(MultiInstallment, SatisfiesJustInTimeProperty) {
  // For every worker i and installment j, the arrival of chunk (j+1, i)
  // under the zero-latency model equals the completion of chunk (j, i).
  const std::size_t n = 6;
  const std::size_t x = 3;
  const double b = 9.0;
  const double s = 1.0;
  const MiSchedule mi = solve_multi_installment(latency_free(n, s, b), 600.0, x);
  ASSERT_FALSE(mi.clamped);

  // Serialized arrival times in dispatch order.
  std::vector<std::vector<double>> arrival(x, std::vector<double>(n, 0.0));
  double clock = 0.0;
  for (std::size_t j = 0; j < x; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      clock += mi.chunk[j][i] / b;
      arrival[j][i] = clock;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double finish = arrival[0][i];
    for (std::size_t j = 0; j + 1 < x; ++j) {
      finish += mi.chunk[j][i] / s;
      EXPECT_NEAR(arrival[j + 1][i], finish, 1e-6) << "worker " << i << " installment " << j;
    }
  }
}

TEST(MultiInstallment, AllWorkersFinishSimultaneously) {
  const std::size_t n = 5;
  const std::size_t x = 2;
  const double b = 8.0;
  const MiSchedule mi = solve_multi_installment(latency_free(n, 1.0, b), 500.0, x);
  std::vector<double> arrival0(n, 0.0);
  double clock = 0.0;
  for (std::size_t j = 0; j < x; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      clock += mi.chunk[j][i] / b;
      if (j == 0) arrival0[i] = clock;
    }
  }
  double reference = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    double finish = arrival0[i];
    for (std::size_t j = 0; j < x; ++j) finish += mi.chunk[j][i];
    if (reference < 0.0) reference = finish;
    EXPECT_NEAR(finish, reference, 1e-6) << "worker " << i;
  }
  EXPECT_NEAR(mi.predicted_makespan, reference, 1e-6);
}

TEST(MultiInstallment, MoreInstallmentsReducePredictedMakespan) {
  const platform::StarPlatform p = latency_free(8, 1.0, 12.0);
  double previous = 1e300;
  for (std::size_t x = 1; x <= 4; ++x) {
    const MiSchedule mi = solve_multi_installment(p, 1000.0, x);
    EXPECT_LT(mi.predicted_makespan, previous) << "x=" << x;
    previous = mi.predicted_makespan;
  }
}

TEST(MultiInstallment, HandlesHeterogeneousPlatforms) {
  const platform::StarPlatform p(
      {{2.0, 12.0, 0.0, 0.0, 0.0}, {1.0, 8.0, 0.0, 0.0, 0.0}, {3.0, 18.0, 0.0, 0.0, 0.0}});
  const MiSchedule mi = solve_multi_installment(p, 300.0, 2);
  EXPECT_NEAR(mi.total(), 300.0, 1e-6);
  for (const auto& round : mi.chunk) {
    for (double c : round) EXPECT_GE(c, 0.0);
  }
}

TEST(MultiInstallment, ToPlanPreservesOrderAndMass) {
  const MiSchedule mi = solve_multi_installment(latency_free(3, 1.0, 6.0), 300.0, 2);
  const auto plan = mi.to_plan();
  ASSERT_EQ(plan.size(), 6u);
  // Installment-major, worker-minor order.
  EXPECT_EQ(plan[0].worker, 0u);
  EXPECT_EQ(plan[1].worker, 1u);
  EXPECT_EQ(plan[2].worker, 2u);
  EXPECT_EQ(plan[3].worker, 0u);
  double total = 0.0;
  for (const auto& d : plan) total += d.chunk;
  EXPECT_NEAR(total, 300.0, 1e-9);
}

TEST(MultiInstallment, PolicyExecutesOnLatencyfulPlatform) {
  // MI computes its schedule without latencies but must still run correctly
  // on a platform that has them (the paper's evaluation setup).
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 5, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.3,
       .comm_latency = 0.2});
  const auto policy = config::make_policy("mi-3", p, 500.0, 0.0);
  EXPECT_EQ(policy->name(), "MI-3");
  const sim::SimResult r = simulate(p, *policy, sim::SimOptions{});
  EXPECT_NEAR(r.work_dispatched, 500.0, 1e-6);
  // With latencies the real makespan exceeds MI's zero-latency prediction.
  const MiSchedule mi = solve_multi_installment(p, 500.0, 3);
  EXPECT_GT(r.makespan, mi.predicted_makespan);
}

}  // namespace
}  // namespace rumr::baselines
