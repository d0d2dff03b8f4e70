// Determinism tests: the DES kernel's FIFO tie-break promise
// (des/simulator.hpp) and byte-identical replay of every scheduler in the
// evaluation. The tools/determinism_check binary runs the same audits at
// larger scale; these tests gate them in ctest.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/des_audit.hpp"
#include "check/trace_audit.hpp"
#include "des/simulator.hpp"
#include "platform/platform.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace_json.hpp"
#include "stats/rng.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr {
namespace {

// --- DES tie-break under shuffled insertion jitter --------------------------

TEST(Determinism, EqualTimeEventsFollowInsertionOrderUnderJitter) {
  // Insert events whose timestamps collide heavily, in a seeded-shuffled
  // order; execution must follow (time, insertion sequence) exactly.
  for (const std::uint64_t seed : {3u, 11u, 2026u}) {
    stats::Rng rng(seed);
    constexpr std::size_t kCount = 500;

    std::vector<double> times(kCount);
    for (double& t : times) t = static_cast<double>(rng.uniform_index(5));

    std::vector<std::size_t> order(kCount);
    for (std::size_t i = 0; i < kCount; ++i) order[i] = i;
    for (std::size_t i = kCount; i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_index(i))]);
    }

    des::Simulator sim;
    check::SimulatorAuditor auditor;
    auditor.attach(sim);

    std::vector<std::pair<double, std::size_t>> executed;
    std::size_t seq = 0;
    for (const std::size_t idx : order) {
      const double t = times[idx];
      sim.schedule_at(t, [&executed, t, s = seq++] { executed.emplace_back(t, s); });
    }
    sim.run();
    auditor.verify_drained(sim);
    ASSERT_TRUE(auditor.report().ok()) << auditor.report().summary();

    ASSERT_EQ(executed.size(), kCount);
    for (std::size_t k = 1; k < executed.size(); ++k) {
      ASSERT_TRUE(executed[k - 1].first < executed[k].first ||
                  (executed[k - 1].first == executed[k].first &&
                   executed[k - 1].second < executed[k].second))
          << "tie-break broke at event " << k << " (seed " << seed << ")";
    }
  }
}

// --- Byte-identical scheduler replay ----------------------------------------

std::string fingerprint(const sweep::AlgorithmSpec& spec, const platform::StarPlatform& p,
                        double w_total, double error, std::uint64_t seed) {
  auto policy = spec.make(p, w_total, error);
  sim::SimOptions options = sim::SimOptions::with_error(error, seed);
  options.record_trace = true;
  const sim::SimResult result = sim::simulate(p, *policy, options);

  // Every run must also pass the work-conservation audit.
  const check::AuditReport audit = check::audit_sim_result(result, p, w_total);
  EXPECT_TRUE(audit.ok()) << spec.name << ": " << audit.summary();

  std::ostringstream out;
  out << std::setprecision(17) << "makespan=" << result.makespan
      << " events=" << result.events << '\n'
      << sim::to_chrome_tracing(result.trace);
  return out.str();
}

TEST(Determinism, EverySchedulerReplaysByteIdentically) {
  const auto p = platform::StarPlatform::homogeneous({.workers = 8, .speed = 1.0,
                                                      .bandwidth = 12.0, .comp_latency = 0.05,
                                                      .comm_latency = 0.02,
                                                      .transfer_latency = 0.01});
  for (const std::string& name : config::policy_names()) {
    const sweep::AlgorithmSpec spec = config::policy_spec(name);
    const std::string first = fingerprint(spec, p, 500.0, 0.3, 42);
    const std::string second = fingerprint(spec, p, 500.0, 0.3, 42);
    EXPECT_EQ(first, second) << spec.name << " replay diverged";
    EXPECT_FALSE(first.empty());
  }
}

TEST(Determinism, DifferentSeedsProduceDifferentRunsUnderError) {
  // Guard against a fingerprint that ignores the simulation: with nonzero
  // error, different seeds must perturb the trace.
  const auto p = platform::StarPlatform::homogeneous({.workers = 8, .speed = 1.0,
                                                      .bandwidth = 12.0, .comp_latency = 0.05});
  const sweep::AlgorithmSpec spec = sweep::rumr_spec();
  EXPECT_NE(fingerprint(spec, p, 500.0, 0.3, 1), fingerprint(spec, p, 500.0, 0.3, 2));
}

}  // namespace
}  // namespace rumr
