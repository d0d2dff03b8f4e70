// Property-based tests: invariants that must hold for EVERY scheduler on
// randomly drawn platforms, workloads, and error levels. Parameterized gtest
// sweeps the whole algorithm line-up through the same checks, including the
// prepare/instance contract: every instance of one prepared plan runs exactly
// as a freshly made policy does, also when instances run concurrently.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ios>
#include <latch>
#include <sstream>
#include <thread>

#include "stats/rng.hpp"
#include "sim/master_worker.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr::sweep {
namespace {

struct PropertyCase {
  std::string name;
  AlgorithmSpec spec;
};

class AllSchedulers : public ::testing::TestWithParam<std::size_t> {
 public:
  /// Every algorithm in the policy registry, each family at its evaluated
  /// members. The first 18 keep the order and labels of the hand-assembled
  /// line-up that preceded the registry (RUMR-80 ran as "RUMR-80fixed"), so
  /// test ids stay stable; registry entries beyond them are appended.
  static const std::vector<PropertyCase>& cases() {
    static const std::vector<PropertyCase> all = [] {
      std::vector<std::string> names = {"rumr", "umr", "mi-1", "mi-2", "mi-3", "mi-4",
                                        "factoring", "fsc", "rumr-adaptive", "rumr-80",
                                        "rumr-inorder", "rumr-50", "rumr-60", "rumr-70",
                                        "rumr-90", "wf", "gss", "tss"};
      for (std::string& name : config::policy_names()) {
        if (std::find(names.begin(), names.end(), name) == names.end()) {
          names.push_back(std::move(name));
        }
      }
      std::vector<PropertyCase> cs;
      for (const std::string& name : names) {
        AlgorithmSpec spec = config::policy_spec(name);
        std::string label = name == "rumr-80" ? "RUMR-80fixed" : spec.name;
        cs.push_back({std::move(label), std::move(spec)});
      }
      return cs;
    }();
    return all;
  }
};

TEST(AllSchedulersLineup, CoversEveryRegistryName) {
  const std::vector<std::string> names = config::policy_names();
  ASSERT_EQ(AllSchedulers::cases().size(), names.size());
  for (const std::string& name : names) {
    const std::string display = config::policy_spec(name).name;
    EXPECT_TRUE(std::any_of(AllSchedulers::cases().begin(), AllSchedulers::cases().end(),
                            [&](const PropertyCase& c) { return c.spec.name == display; }))
        << name;
  }
}

/// Draws a random homogeneous platform inside (a superset of) the Table 1
/// ranges plus a random workload and error.
struct RandomScenario {
  platform::StarPlatform platform;
  double w_total;
  double error;
};

RandomScenario draw_scenario(stats::Rng& rng) {
  const std::size_t n = 2 + rng.uniform_index(30);
  platform::HomogeneousParams params;
  params.workers = n;
  params.speed = rng.uniform(0.5, 4.0);
  params.bandwidth = rng.uniform(1.1, 2.5) * static_cast<double>(n) * params.speed;
  params.comp_latency = rng.uniform(0.0, 1.0);
  params.comm_latency = rng.uniform(0.0, 1.0);
  params.transfer_latency = rng.uniform(0.0, 0.2);
  return {platform::StarPlatform::homogeneous(params), rng.uniform(100.0, 2000.0),
          rng.uniform(0.0, 0.6)};
}

TEST_P(AllSchedulers, ConservesWorkAndRespectsLowerBoundsOnRandomScenarios) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0xabcdef + GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    const RandomScenario s = draw_scenario(rng);
    const auto policy = test_case.spec.make(s.platform, s.w_total, s.error);
    const sim::SimResult r =
        simulate(s.platform, *policy, sim::SimOptions::with_error(s.error, rng.next_u64()));

    // Work conservation (the engine enforces it too; this asserts the
    // outcome reached the result structure intact).
    EXPECT_NEAR(r.work_dispatched, s.w_total, 1e-6 * s.w_total) << test_case.name;
    double computed = 0.0;
    for (const auto& w : r.workers) computed += w.work;
    EXPECT_NEAR(computed, s.w_total, 1e-6 * s.w_total) << test_case.name;

    // Makespan cannot beat the aggregate-compute bound by more than the
    // error model's best case (every ratio at least kMinRatio).
    const double min_compute = s.w_total / s.platform.total_speed();
    EXPECT_GE(r.makespan, min_compute * stats::ErrorModel::kMinRatio) << test_case.name;
    // Nor the first-byte bound: nothing computes before some data arrives.
    EXPECT_GT(r.makespan, 0.0) << test_case.name;

    // Chunk accounting is self-consistent.
    std::size_t chunks = 0;
    for (const auto& w : r.workers) chunks += w.chunks;
    EXPECT_EQ(chunks, r.chunks_dispatched) << test_case.name;
  }
}

TEST_P(AllSchedulers, DeterministicForFixedSeed) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0x5151 + GetParam());
  const RandomScenario s = draw_scenario(rng);
  const auto policy_a = test_case.spec.make(s.platform, s.w_total, 0.3);
  const auto policy_b = test_case.spec.make(s.platform, s.w_total, 0.3);
  const double a = simulate(s.platform, *policy_a, sim::SimOptions::with_error(0.3, 77)).makespan;
  const double b = simulate(s.platform, *policy_b, sim::SimOptions::with_error(0.3, 77)).makespan;
  EXPECT_DOUBLE_EQ(a, b) << test_case.name;
}

TEST_P(AllSchedulers, ZeroErrorRunsAreExactlyReproducible) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0x9191 + GetParam());
  const RandomScenario s = draw_scenario(rng);
  const auto policy_a = test_case.spec.make(s.platform, s.w_total, 0.0);
  const auto policy_b = test_case.spec.make(s.platform, s.w_total, 0.0);
  sim::SimOptions opt_a;
  opt_a.seed = 1;
  sim::SimOptions opt_b;
  opt_b.seed = 2;  // Seed must be irrelevant without an error model.
  EXPECT_DOUBLE_EQ(simulate(s.platform, *policy_a, opt_a).makespan,
                   simulate(s.platform, *policy_b, opt_b).makespan)
      << test_case.name;
}

TEST_P(AllSchedulers, MakespanGrowsWithWorkload) {
  const PropertyCase& test_case = cases()[GetParam()];
  stats::Rng rng(0x7777 + GetParam());
  const RandomScenario s = draw_scenario(rng);
  const auto small = test_case.spec.make(s.platform, 500.0, 0.2);
  const auto large = test_case.spec.make(s.platform, 1500.0, 0.2);
  const double m_small =
      simulate(s.platform, *small, sim::SimOptions::with_error(0.2, 5)).makespan;
  const double m_large =
      simulate(s.platform, *large, sim::SimOptions::with_error(0.2, 5)).makespan;
  EXPECT_GT(m_large, m_small) << test_case.name;
}

// --- Prepared plans -----------------------------------------------------------

/// A homogeneous and a heterogeneous platform: RUMR's phase 2 is plain
/// Factoring on the first and Weighted Factoring on the second.
std::vector<platform::StarPlatform> plan_platforms() {
  return {platform::StarPlatform::homogeneous({.workers = 6,
                                               .speed = 1.0,
                                               .bandwidth = 9.0,
                                               .comp_latency = 0.2,
                                               .comm_latency = 0.05,
                                               .transfer_latency = 0.01}),
          platform::StarPlatform({{2.0, 20.0, 0.1, 0.05, 0.01},
                                  {1.0, 12.0, 0.3, 0.02, 0.0},
                                  {0.5, 10.0, 0.2, 0.1, 0.02},
                                  {1.5, 15.0, 0.0, 0.05, 0.01},
                                  {1.0, 8.0, 0.4, 0.0, 0.0}})};
}

/// Everything a run reports that its policy decides, in exact (hex) form:
/// makespan, event count, per-worker outcomes and every trace span.
std::string run_fingerprint(const platform::StarPlatform& p, sim::SchedulerPolicy& policy,
                            double error, std::uint64_t seed) {
  sim::SimOptions options = sim::SimOptions::with_error(error, seed);
  options.record_trace = true;
  const sim::SimResult r = sim::simulate(p, policy, options);
  std::ostringstream out;
  out << std::hexfloat << r.makespan << " events=" << r.events << '\n';
  for (const sim::WorkerOutcome& w : r.workers) {
    out << w.work << ' ' << w.chunks << ' ' << w.busy_time << ' ' << w.first_start << ' '
        << w.last_end << '\n';
  }
  for (const sim::TraceSpan& span : r.trace.spans()) {
    out << static_cast<int>(span.kind) << ' ' << span.worker << ' ' << span.chunk << ' '
        << span.start << ' ' << span.end << '\n';
  }
  return out.str();
}

TEST_P(AllSchedulers, InstancesOfOnePreparedPlanReproduceFreshPolicies) {
  const PropertyCase& test_case = cases()[GetParam()];
  constexpr double kWork = 300.0;
  for (const platform::StarPlatform& p : plan_platforms()) {
    for (const double error : {0.0, 0.1, 0.3, 1.0}) {
      const PreparedPolicy prepared = test_case.spec.prepare(p, kWork, error);
      // Three live instances of one plan, run out of creation order and
      // interleaved with fresh policies, each under its own seed.
      std::vector<std::unique_ptr<sim::SchedulerPolicy>> instances;
      for (int k = 0; k < 3; ++k) instances.push_back(prepared());
      for (const std::size_t k : {2, 0, 1}) {
        const std::uint64_t seed = 1000 + k;
        const auto fresh = test_case.spec.make(p, kWork, error);
        EXPECT_EQ(run_fingerprint(p, *instances[k], error, seed),
                  run_fingerprint(p, *fresh, error, seed))
            << test_case.name << " on " << p.size() << " workers, error " << error
            << ", instance " << k;
      }
    }
  }
}

TEST_P(AllSchedulers, ConcurrentInstancesOfOnePlanMatchSerialRuns) {
  // The TSan target: eight threads instantiate and simulate from one shared
  // plan at the same time.
  const PropertyCase& test_case = cases()[GetParam()];
  constexpr std::size_t kThreads = 8;
  constexpr double kWork = 300.0;
  constexpr double kError = 0.3;
  const platform::StarPlatform p = plan_platforms()[1];
  std::vector<std::string> expected(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto fresh = test_case.spec.make(p, kWork, kError);
    expected[t] = run_fingerprint(p, *fresh, kError, 50 + t);
  }

  const PreparedPolicy prepared = test_case.spec.prepare(p, kWork, kError);
  std::vector<std::string> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const auto policy = prepared();
      got[t] = run_fingerprint(p, *policy, kError, 50 + t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], expected[t]) << test_case.name << ", thread " << t;
  }
}

std::string case_name(const ::testing::TestParamInfo<std::size_t>& info) {
  std::string name = AllSchedulers::cases()[info.param].name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Lineup, AllSchedulers,
                         ::testing::Range<std::size_t>(0, AllSchedulers::cases().size()),
                         case_name);

}  // namespace
}  // namespace rumr::sweep
