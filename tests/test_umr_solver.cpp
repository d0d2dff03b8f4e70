// Tests for the UMR solver (core/umr.hpp): recurrence structure, workload
// conservation, optimality of the round scan, agreement between the two
// solver methods, and — the strongest check — exact agreement between the
// solver's predicted makespan and the independent discrete-event simulation
// at zero error.

#include "core/umr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/umr_policy.hpp"
#include "sim/master_worker.hpp"

namespace rumr::core {
namespace {

platform::StarPlatform paperish(std::size_t n = 10, double b_over_n = 1.5, double clat = 0.2,
                                double nlat = 0.1, double tlat = 0.0) {
  return platform::StarPlatform::homogeneous(
      {.workers = n, .speed = 1.0, .bandwidth = b_over_n * static_cast<double>(n),
       .comp_latency = clat, .comm_latency = nlat, .transfer_latency = tlat});
}

TEST(UmrSolver, RejectsBadWorkload) {
  const platform::StarPlatform p = paperish();
  EXPECT_THROW((void)solve_umr(p, 0.0), std::invalid_argument);
  EXPECT_THROW((void)solve_umr(p, -5.0), std::invalid_argument);
}

TEST(UmrSolver, ConservesWorkload) {
  const platform::StarPlatform p = paperish();
  const UmrSchedule s = solve_umr(p, 1000.0);
  EXPECT_NEAR(s.total(), 1000.0, 1e-6);
}

TEST(UmrSolver, HomogeneousChunksFollowRecurrence) {
  // chunk_{j+1} = theta * chunk_j + gamma with theta = B/(N*S) and
  // gamma = B*(cLat - N*nLat)/N.
  const std::size_t n = 10;
  const double b = 15.0;
  const double clat = 0.2;
  const double nlat = 0.1;
  const platform::StarPlatform p = paperish(n, b / n, clat, nlat);
  const UmrSchedule s = solve_umr(p, 1000.0);
  ASSERT_GE(s.rounds, 2u);
  const double theta = b / static_cast<double>(n);
  const double gamma = b * (clat - static_cast<double>(n) * nlat) / static_cast<double>(n);
  for (std::size_t j = 0; j + 1 < s.rounds; ++j) {
    EXPECT_NEAR(s.chunk[j + 1][0], theta * s.chunk[j][0] + gamma, 1e-6)
        << "round " << j;
  }
  EXPECT_DOUBLE_EQ(s.growth, theta);
}

TEST(UmrSolver, ChunksAreUniformWithinRounds) {
  const platform::StarPlatform p = paperish();
  const UmrSchedule s = solve_umr(p, 1000.0);
  for (const auto& round : s.chunk) {
    for (double c : round) EXPECT_NEAR(c, round[0], 1e-9);
  }
}

TEST(UmrSolver, ChunksIncreaseWhenThetaAboveOne) {
  const platform::StarPlatform p = paperish(10, 1.5);
  const UmrSchedule s = solve_umr(p, 1000.0);
  for (std::size_t j = 0; j + 1 < s.rounds; ++j) {
    EXPECT_GT(s.chunk[j + 1][0], s.chunk[j][0]);
  }
}

TEST(UmrSolver, AllChunksPositive) {
  for (double b_over_n : {1.2, 1.5, 2.0}) {
    for (double clat : {0.0, 0.5, 1.0}) {
      for (double nlat : {0.0, 0.5, 1.0}) {
        const UmrSchedule s = solve_umr(paperish(20, b_over_n, clat, nlat), 1000.0);
        for (const auto& round : s.chunk) {
          for (double c : round) EXPECT_GT(c, 0.0);
        }
      }
    }
  }
}

TEST(UmrSolver, ScanPicksTheIntegerOptimum) {
  const platform::StarPlatform p = paperish();
  const double w = 1000.0;
  const UmrSchedule s = solve_umr(p, w);
  const double chosen = umr_predicted_makespan(p, w, s.rounds);
  for (std::size_t m = 1; m <= 60; ++m) {
    const double e = umr_predicted_makespan(p, w, m);
    if (std::isfinite(e)) {
      EXPECT_GE(e, chosen - 1e-6) << "M=" << m << " beats the scan's choice";
    }
  }
}

TEST(UmrSolver, BisectionAgreesWithScan) {
  for (double b_over_n : {1.2, 1.6, 2.0}) {
    for (double clat : {0.1, 0.5, 1.0}) {
      for (double nlat : {0.1, 0.5}) {
        const platform::StarPlatform p = paperish(15, b_over_n, clat, nlat);
        UmrOptions scan_opt;
        scan_opt.method = UmrSolverMethod::kScan;
        UmrOptions bisect_opt;
        bisect_opt.method = UmrSolverMethod::kBisection;
        const UmrSchedule scan = solve_umr(p, 1000.0, scan_opt);
        const UmrSchedule bisect = solve_umr(p, 1000.0, bisect_opt);
        // Continuous relaxation may land one integer off; makespans must be
        // within a whisker of each other.
        EXPECT_NEAR(bisect.predicted_makespan, scan.predicted_makespan,
                    0.01 * scan.predicted_makespan)
            << "B/N=" << b_over_n << " cLat=" << clat << " nLat=" << nlat;
      }
    }
  }
}

TEST(UmrSolver, SingleRoundFallbackIsProportionalSplit) {
  // With enormous latencies every extra round costs too much: M = 1 and each
  // worker gets W/N.
  const platform::StarPlatform p = paperish(10, 1.5, 20.0, 20.0);
  const UmrSchedule s = solve_umr(p, 1000.0);
  EXPECT_EQ(s.rounds, 1u);
  for (double c : s.chunk[0]) EXPECT_NEAR(c, 100.0, 1e-6);
}

TEST(UmrSolver, ZeroLatencyUsesManyRoundsButTerminates) {
  const platform::StarPlatform p = paperish(10, 1.5, 0.0, 0.0);
  const UmrSchedule s = solve_umr(p, 1000.0);
  EXPECT_GT(s.rounds, 5u);
  EXPECT_LE(s.rounds, 4096u);
  EXPECT_NEAR(s.total(), 1000.0, 1e-6);
}

TEST(UmrSolver, PredictionMatchesSimulationAtZeroError) {
  // The solver's E(M) and the DES engine are written independently; at zero
  // error they must agree to floating-point accuracy. This validates both.
  // tLat > 0 pins E(M)'s trailing max tLat term (DESIGN.md section 4,
  // "UMR (homogeneous)"): the last chunk's tail delays the makespan. E(M)
  // lets a chunk's tail overlap the next send, while the engine's default
  // one-slot receive buffer holds the uplink until the tail lands, so the
  // tLat case runs with unbounded buffers (the paper's model).
  for (double b_over_n : {1.2, 1.5, 2.0}) {
    for (double clat : {0.0, 0.3, 1.0}) {
      for (double nlat : {0.0, 0.3, 1.0}) {
        for (double tlat : {0.0, 0.7}) {
          const platform::StarPlatform p = paperish(10, b_over_n, clat, nlat, tlat);
          const UmrSchedule s = solve_umr(p, 1000.0);
          UmrPolicy policy(s, DispatchOrder::kInOrder);
          sim::SimOptions options;
          if (tlat > 0.0) options.worker_buffer_capacity = std::numeric_limits<std::size_t>::max();
          const sim::SimResult r = simulate(p, policy, options);
          EXPECT_NEAR(r.makespan, s.predicted_makespan, 1e-6 * s.predicted_makespan)
              << "B/N=" << b_over_n << " cLat=" << clat << " nLat=" << nlat
              << " tLat=" << tlat << " M=" << s.rounds;
        }
      }
    }
  }
}

TEST(UmrSolver, HeterogeneousRoundsFinishSimultaneously) {
  // chunk_{j,i} = S_i * (tau_j - cLat_i): within a round every worker's
  // compute time equals tau_j.
  const platform::StarPlatform p({{2.0, 20.0, 0.1, 0.05, 0.0},
                                  {1.0, 15.0, 0.3, 0.10, 0.0},
                                  {4.0, 30.0, 0.2, 0.02, 0.0}});
  const UmrSchedule s = solve_umr(p, 500.0);
  ASSERT_EQ(s.selected_workers.size(), 3u);
  for (std::size_t j = 0; j < s.rounds; ++j) {
    for (std::size_t k = 0; k < 3; ++k) {
      const platform::WorkerSpec& w = p.worker(s.selected_workers[k]);
      const double tcomp = w.comp_latency + s.chunk[j][k] / w.speed;
      EXPECT_NEAR(tcomp, s.round_time[j], 1e-9 * (1.0 + s.round_time[j]));
    }
  }
  EXPECT_NEAR(s.total(), 500.0, 1e-6);
}

TEST(UmrSolver, ResourceSelectionTriggersWhenSaturated) {
  // N*S/B = 20/10 = 2 > 1: the uplink cannot feed everyone.
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 20, .speed = 1.0, .bandwidth = 10.0, .comp_latency = 0.1,
       .comm_latency = 0.1});
  const UmrSchedule s = solve_umr(p, 1000.0);
  EXPECT_TRUE(s.used_resource_selection);
  EXPECT_LT(s.selected_workers.size(), 20u);
  EXPECT_GE(s.selected_workers.size(), 1u);
  EXPECT_NEAR(s.total(), 1000.0, 1e-6);
  // The selected subset satisfies the utilization budget.
  const platform::StarPlatform active = p.subset(s.selected_workers);
  EXPECT_LE(active.utilization_ratio(), 0.95 + 1e-12);
}

TEST(UmrSolver, ResourceSelectionCanBeDisabled) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 20, .speed = 1.0, .bandwidth = 10.0});
  UmrOptions options;
  options.allow_resource_selection = false;
  const UmrSchedule s = solve_umr(p, 1000.0, options);
  EXPECT_FALSE(s.used_resource_selection);
  EXPECT_EQ(s.selected_workers.size(), 20u);
  EXPECT_NEAR(s.total(), 1000.0, 1e-6);
}

TEST(UmrSolver, ToPlanCoversSelectedWorkersEachRound) {
  const platform::StarPlatform p = paperish(8);
  const UmrSchedule s = solve_umr(p, 800.0);
  const auto plan = s.to_plan();
  EXPECT_EQ(plan.size(), s.rounds * 8u);
  double total = 0.0;
  for (const auto& d : plan) {
    EXPECT_LT(d.worker, 8u);
    EXPECT_GT(d.chunk, 0.0);
    total += d.chunk;
  }
  EXPECT_NEAR(total, 800.0, 1e-6);
}

}  // namespace
}  // namespace rumr::core
