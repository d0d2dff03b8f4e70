// Determinism self-check harness.
//
// Codifies the kernel's determinism promise (des/simulator.hpp: equal-time
// events run FIFO by insertion order, so every simulation is fully
// reproducible) and checks it end to end:
//
//   1. DES tie-break audit: batches of events inserted in seeded-shuffled
//      order, with many equal timestamps, must execute in (time, insertion
//      sequence) order — and the kernel must pass a SimulatorAuditor
//      (monotonicity, no-schedule-in-the-past, event conservation at drain).
//   2. Scheduler replay audit: every algorithm in the policy registry (each
//      family at its evaluated members) runs twice on the same run
//      description, and twice more as two instances of one prepared plan
//      (AlgorithmSpec::prepare); the JSON traces and result fingerprints must
//      match byte for byte. The first run is additionally passed through the
//      rumr::check work-conservation auditor.
//   3. Multi-job replay audit: the open-system engine (rumr::jobs) runs the
//      same Poisson stream twice under each platform-sharing policy; the
//      per-job CSV plus summary JSON must match byte for byte, and every run
//      must pass check::audit_service_result.
//
// Exit status 0 iff every check passes; intended for CI (see ci.sh) and for
// local use after touching src/des, src/sim, or any policy.

#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/des_audit.hpp"
#include "check/service_audit.hpp"
#include "check/trace_audit.hpp"
#include "des/simulator.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/job_stream.hpp"
#include "platform/platform.hpp"
#include "report/jobs_io.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace_json.hpp"
#include "stats/rng.hpp"
#include "sweep/scheduler_factory.hpp"

namespace {

int g_failures = 0;

void report(const std::string& what, bool ok, const std::string& detail = "") {
  std::cout << (ok ? "  ok    " : "  FAIL  ") << what << '\n';
  if (!ok) {
    if (!detail.empty()) std::cout << "        " << detail << '\n';
    ++g_failures;
  }
}

// --- 1. DES tie-break audit -------------------------------------------------

/// Schedules `count` events whose timestamps collide heavily, inserted in a
/// seeded-shuffled order, and verifies execution follows (time, insertion
/// sequence) exactly.
void des_jitter_round(std::uint64_t seed, std::size_t count) {
  rumr::stats::Rng rng(seed);

  // A small time alphabet forces equal-timestamp ties on almost every event.
  std::vector<double> times(count);
  for (double& t : times) t = static_cast<double>(rng.uniform_index(8)) * 0.5;

  // Shuffle the *insertion* order (Fisher-Yates on an index permutation).
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.uniform_index(i))]);
  }

  rumr::des::Simulator sim;
  rumr::check::SimulatorAuditor auditor;
  auditor.attach(sim);

  // executed[k] = (time, insertion sequence) of the k-th handler to run.
  std::vector<std::pair<double, std::size_t>> executed;
  executed.reserve(count);
  std::size_t seq = 0;
  for (std::size_t idx : order) {
    const double t = times[idx];
    const std::size_t this_seq = seq++;
    sim.schedule_at(t, [&executed, t, this_seq] { executed.emplace_back(t, this_seq); });
  }
  sim.run();
  auditor.verify_drained(sim);

  bool ordered = executed.size() == count;
  for (std::size_t k = 1; ordered && k < executed.size(); ++k) {
    const auto& [t_prev, s_prev] = executed[k - 1];
    const auto& [t_k, s_k] = executed[k];
    // Strict promise: later time, or same time and later insertion.
    ordered = t_prev < t_k || (t_prev == t_k && s_prev < s_k);
  }

  std::ostringstream label;
  label << "des tie-break, seed " << seed << ", " << count << " events";
  report(label.str(), ordered && auditor.report().ok(),
         ordered ? auditor.report().summary() : "execution order broke the FIFO tie-break");
}

// --- 2. Scheduler replay audit ----------------------------------------------

/// Runs one policy once and reduces the run to a byte-comparable string:
/// the Chrome-tracing JSON plus every result scalar at full precision.
std::string run_fingerprint(rumr::sim::SchedulerPolicy& policy,
                            const rumr::platform::StarPlatform& platform, double w_total,
                            double error, std::uint64_t seed, std::string* audit_out) {
  rumr::sim::SimOptions options = rumr::sim::SimOptions::with_error(error, seed);
  options.record_trace = true;
  const rumr::sim::SimResult result = rumr::sim::simulate(platform, policy, options);

  const rumr::check::AuditReport audit = rumr::check::audit_run(result, platform, w_total, options);
  if (!audit.ok() && audit_out != nullptr) *audit_out = audit.summary();

  std::ostringstream out;
  out << std::setprecision(17);
  out << "makespan=" << result.makespan << " chunks=" << result.chunks_dispatched
      << " work=" << result.work_dispatched << " uplink=" << result.uplink_busy_time
      << " events=" << result.events << '\n';
  for (const rumr::sim::WorkerOutcome& w : result.workers) {
    out << "worker work=" << w.work << " chunks=" << w.chunks << " busy=" << w.busy_time
        << " first=" << w.first_start << " last=" << w.last_end << '\n';
  }
  out << rumr::sim::to_chrome_tracing(result.trace);
  return out.str();
}

/// Each scheduler runs twice from make() and twice more from one prepared
/// plan; all four runs must be byte-identical.
void scheduler_replay_round(const rumr::platform::StarPlatform& platform, const char* label,
                            double w_total, double error, std::uint64_t seed) {
  for (const std::string& name : rumr::config::policy_names()) {
    const rumr::sweep::AlgorithmSpec spec = rumr::config::policy_spec(name);
    const auto fingerprint = [&](rumr::sim::SchedulerPolicy& policy, std::string* audit_out) {
      return run_fingerprint(policy, platform, w_total, error, seed, audit_out);
    };
    std::string audit_detail;
    const std::string first = fingerprint(*spec.make(platform, w_total, error), &audit_detail);
    const std::string second = fingerprint(*spec.make(platform, w_total, error), nullptr);
    const rumr::sweep::PreparedPolicy prepared = spec.prepare(platform, w_total, error);
    const std::string planned_a = fingerprint(*prepared(), nullptr);
    const std::string planned_b = fingerprint(*prepared(), nullptr);
    const bool identical = first == second;
    const bool plan_identical = planned_a == first && planned_b == first;
    const bool audited = audit_detail.empty();

    std::ostringstream what;
    what << spec.name << " on " << label << " (W=" << w_total << ", error=" << error << ", seed "
         << seed << ")";
    std::string detail;
    if (!identical) detail = "replay produced a different trace";
    if (!plan_identical) {
      detail += (detail.empty() ? "" : "; ") +
                std::string("a run from the prepared plan differs from make()'s");
    }
    if (!audited) detail += (detail.empty() ? "" : "; ") + ("audit: " + audit_detail);
    report(what.str(), identical && plan_identical && audited, detail);
  }
}

// --- 3. Multi-job replay audit ------------------------------------------------

/// Runs the open system once and reduces it to a byte-comparable string:
/// the per-job CSV plus the summary JSON (both at full precision).
std::string jobs_fingerprint(const rumr::platform::StarPlatform& platform,
                             const rumr::jobs::JobsOptions& options, std::string* audit_out) {
  const rumr::jobs::ServiceResult result = rumr::jobs::run_jobs(platform, options);

  const rumr::check::AuditReport audit =
      rumr::check::audit_service_result(result, platform, options);
  if (!audit.ok() && audit_out != nullptr) *audit_out = audit.summary();

  return rumr::report::jobs_csv(result) + rumr::report::jobs_summary_json(result);
}

void jobs_replay_round(const rumr::platform::StarPlatform& platform, double load,
                       std::uint64_t seed) {
  for (const rumr::jobs::SharingPolicy sharing :
       {rumr::jobs::SharingPolicy::kExclusive, rumr::jobs::SharingPolicy::kPartitioned,
        rumr::jobs::SharingPolicy::kFractional}) {
    rumr::jobs::JobsOptions options;
    options.sharing = sharing;
    options.partitions = 2;
    options.stream = rumr::jobs::JobStreamSpec::poisson(
        rumr::jobs::JobStreamSpec::rate_for_load(platform, load, 300.0), 30, 300.0);
    options.stream.size_dist = rumr::jobs::SizeDistribution::kUniform;
    options.stream.size_spread = 0.4;
    options.known_error = 0.2;
    options.sim = rumr::sim::SimOptions::with_error(0.2, seed);

    std::string audit_detail;
    const std::string first = jobs_fingerprint(platform, options, &audit_detail);
    const std::string second = jobs_fingerprint(platform, options, nullptr);
    const bool identical = first == second;
    const bool audited = audit_detail.empty();

    std::ostringstream what;
    what << "jobs/" << rumr::jobs::to_string(sharing) << " (load=" << load << ", seed " << seed
         << ")";
    std::string detail;
    if (!identical) detail = "replay produced a different service record";
    if (!audited) detail += (detail.empty() ? "" : "; ") + ("audit: " + audit_detail);
    report(what.str(), identical && audited, detail);
  }
}

}  // namespace

int main() {
  std::cout << "determinism_check: DES tie-break audit\n";
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) des_jitter_round(seed, 2000);

  std::cout << "determinism_check: scheduler replay audit\n";
  const auto homogeneous = rumr::platform::StarPlatform::homogeneous(
      {.workers = 10, .speed = 1.0, .bandwidth = 15.0, .comp_latency = 0.05,
       .comm_latency = 0.02, .transfer_latency = 0.01});
  scheduler_replay_round(homogeneous, "homogeneous-10", 1000.0, 0.3, 42);

  // A lopsided platform exercises the heterogeneous code paths of every
  // policy (per-worker fractions, weighted chunk sizing, resource order).
  const rumr::platform::StarPlatform lopsided({
      {2.0, 20.0, 0.05, 0.02, 0.01},
      {1.0, 12.0, 0.05, 0.02, 0.01},
      {0.5, 8.0, 0.05, 0.02, 0.01},
      {1.5, 16.0, 0.05, 0.02, 0.01},
  });
  scheduler_replay_round(lopsided, "heterogeneous-4", 400.0, 0.2, 7);

  std::cout << "determinism_check: multi-job replay audit\n";
  jobs_replay_round(homogeneous, 0.7, 17);

  if (g_failures != 0) {
    std::cout << "determinism_check: " << g_failures << " check(s) FAILED\n";
    return 1;
  }
  std::cout << "determinism_check: all checks passed\n";
  return 0;
}
