/// \file test_faults.cpp
/// Fault-model timelines and the failure-aware master-worker engine:
/// graceful degradation, exactly-once re-dispatch, fencing, backoff/rejoin,
/// and determinism of faulty runs.

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/factoring.hpp"
#include "baselines/loop_scheduling.hpp"
#include "baselines/multi_installment.hpp"
#include "check/trace_audit.hpp"
#include "config/policies.hpp"
#include "core/rumr.hpp"
#include "core/umr_policy.hpp"
#include "faults/fault_model.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace_json.hpp"
#include "stats/rng.hpp"

namespace rumr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

platform::StarPlatform uniform_platform(std::size_t workers, double bandwidth = 100.0) {
  return platform::StarPlatform::homogeneous(
      {.workers = workers, .speed = 1.0, .bandwidth = bandwidth});
}

// ---------------------------------------------------------------------------
// FaultTimeline unit tests
// ---------------------------------------------------------------------------

TEST(FaultTimeline, NoneNeverFails) {
  faults::FaultTimeline timeline(faults::FaultSpec::none(), 4, 42);
  for (std::size_t w = 0; w < 4; ++w) {
    EXPECT_FALSE(timeline.next_outage(w, 0.0).has_value());
    EXPECT_TRUE(timeline.alive_at(w, 0.0));
    EXPECT_TRUE(timeline.alive_at(w, 1.0e9));
  }
}

TEST(FaultTimeline, ScriptedOutagesAreHalfOpenAndOrdered) {
  auto spec = faults::FaultSpec::scripted({
      {1, {10.0, 20.0}},
      {1, {2.0, 5.0}},  // Out of order on purpose; sorted on construction.
  });
  faults::FaultTimeline timeline(spec, 2, 7);

  EXPECT_TRUE(timeline.alive_at(1, 1.9));
  EXPECT_FALSE(timeline.alive_at(1, 2.0));
  EXPECT_FALSE(timeline.alive_at(1, 4.9));
  EXPECT_TRUE(timeline.alive_at(1, 5.0));  // Half-open: alive at recovery instant.
  EXPECT_FALSE(timeline.alive_at(1, 15.0));
  EXPECT_TRUE(timeline.alive_at(1, 20.0));

  const auto first = timeline.next_outage(1, 0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->down, 2.0);
  EXPECT_DOUBLE_EQ(first->up, 5.0);

  const auto second = timeline.next_outage(1, 5.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->down, 10.0);

  EXPECT_FALSE(timeline.next_outage(1, 20.0).has_value());
  EXPECT_FALSE(timeline.next_outage(0, 0.0).has_value());  // Unscripted worker.
}

TEST(FaultTimeline, RejectsInvalidSpecs) {
  EXPECT_THROW(faults::FaultTimeline(faults::FaultSpec::fail_stop(-1.0), 2, 1),
               std::invalid_argument);
  EXPECT_THROW(faults::FaultTimeline(faults::FaultSpec::fail_stop(100.0, 1.5), 2, 1),
               std::invalid_argument);
  EXPECT_THROW(faults::FaultTimeline(faults::FaultSpec::transient(100.0, -1.0), 2, 1),
               std::invalid_argument);
  // Worker index out of range.
  EXPECT_THROW(
      faults::FaultTimeline(faults::FaultSpec::scripted({{5, {1.0, 2.0}}}), 2, 1),
      std::invalid_argument);
  // up <= down.
  EXPECT_THROW(faults::FaultTimeline(faults::FaultSpec::scripted({{0, {3.0, 3.0}}}), 2, 1),
               std::invalid_argument);
}

TEST(FaultTimeline, TransientMttrZeroMeansInstantRepair) {
  // mttr = 0 is legal: outages are zero-length point events. The worker is
  // never observed down (intervals are half-open and empty), but the outage
  // record still exists, so an in-progress computation straddling it aborts.
  faults::FaultTimeline timeline(faults::FaultSpec::transient(10.0, 0.0), 2, 11);
  const auto outage = timeline.next_outage(0, 0.0);
  ASSERT_TRUE(outage.has_value());
  EXPECT_DOUBLE_EQ(outage->down, outage->up);
  EXPECT_TRUE(timeline.alive_at(0, outage->down));  // [t, t) contains nothing.
}

TEST(FaultTimeline, ScriptedOverlappingOutagesCoalesce) {
  // Overlapping and touching intervals merge into one: a down worker going
  // down again is still just down, and downtime must not be double-counted.
  auto spec = faults::FaultSpec::scripted({
      {0, {1.0, 5.0}},
      {0, {4.0, 6.0}},   // Overlaps the first.
      {0, {6.0, 8.0}},   // Touches the merged interval.
      {0, {10.0, 11.0}}, // Disjoint; survives as its own outage.
  });
  faults::FaultTimeline timeline(spec, 1, 3);

  const auto first = timeline.next_outage(0, 0.0);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->down, 1.0);
  EXPECT_DOUBLE_EQ(first->up, 8.0);

  const auto second = timeline.next_outage(0, 8.0);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->down, 10.0);
  EXPECT_DOUBLE_EQ(second->up, 11.0);
  EXPECT_FALSE(timeline.next_outage(0, 11.0).has_value());

  // A permanent outage absorbs everything that starts inside or after it.
  auto perm = faults::FaultSpec::scripted({{0, {2.0, kInf}}, {0, {3.0, 4.0}}});
  faults::FaultTimeline permanent(perm, 1, 3);
  const auto only = permanent.next_outage(0, 0.0);
  ASSERT_TRUE(only.has_value());
  EXPECT_DOUBLE_EQ(only->down, 2.0);
  EXPECT_TRUE(only->permanent());
}

TEST(FaultTimeline, FailStopIsPermanentAndDeterministic) {
  const auto spec = faults::FaultSpec::fail_stop(50.0);
  faults::FaultTimeline a(spec, 3, 99);
  faults::FaultTimeline b(spec, 3, 99);

  // Query `b` in reverse worker order: per-worker streams make the timelines
  // independent of query order.
  std::vector<double> downs_a;
  std::vector<double> downs_b;
  for (std::size_t w = 0; w < 3; ++w) {
    const auto outage = a.next_outage(w, 0.0);
    ASSERT_TRUE(outage.has_value());
    EXPECT_TRUE(outage->permanent());
    downs_a.push_back(outage->down);
  }
  for (std::size_t w = 3; w-- > 0;) {
    const auto outage = b.next_outage(w, 0.0);
    ASSERT_TRUE(outage.has_value());
    downs_b.push_back(outage->down);
  }
  for (std::size_t w = 0; w < 3; ++w) EXPECT_DOUBLE_EQ(downs_a[w], downs_b[2 - w]);

  // Different seed, different failure times (overwhelmingly likely).
  faults::FaultTimeline c(spec, 3, 100);
  const auto outage = c.next_outage(0, 0.0);
  ASSERT_TRUE(outage.has_value());
  EXPECT_NE(outage->down, downs_a[0]);
}

TEST(FaultTimeline, FailStopProbabilityZeroNeverFails) {
  faults::FaultTimeline timeline(faults::FaultSpec::fail_stop(10.0, 0.0), 8, 5);
  for (std::size_t w = 0; w < 8; ++w) {
    EXPECT_FALSE(timeline.next_outage(w, 0.0).has_value()) << "worker " << w;
  }
}

TEST(FaultTimeline, TransientOutagesAlternateAndReplay) {
  const auto spec = faults::FaultSpec::transient(30.0, 5.0);
  faults::FaultTimeline a(spec, 2, 11);
  faults::FaultTimeline b(spec, 2, 11);

  double t = 0.0;
  for (int i = 0; i < 5; ++i) {
    const auto oa = a.next_outage(0, t);
    const auto ob = b.next_outage(0, t);
    ASSERT_TRUE(oa.has_value());
    ASSERT_TRUE(ob.has_value());
    EXPECT_DOUBLE_EQ(oa->down, ob->down);
    EXPECT_DOUBLE_EQ(oa->up, ob->up);
    EXPECT_LT(oa->down, oa->up);
    EXPECT_GE(oa->down, t);  // Disjoint, increasing intervals.
    EXPECT_FALSE(oa->permanent());
    t = oa->up;
  }
}

TEST(SampleExponential, HasRequestedMean) {
  stats::Rng rng(123);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = faults::sample_exponential(4.0, rng);
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 4.0, 0.15);
}

// ---------------------------------------------------------------------------
// Engine semantics under faults
// ---------------------------------------------------------------------------

sim::SimOptions fault_options(faults::FaultSpec spec, std::uint64_t seed = 1) {
  sim::SimOptions options;
  options.seed = seed;
  options.record_trace = true;
  options.faults = std::move(spec);
  return options;
}

TEST(FaultSim, ScriptedFailStopCompletesOnSurvivors) {
  const auto platform = uniform_platform(4);
  baselines::FactoringPolicy policy(100.0, 4);
  // Worker 0 dies at t=1, mid first chunk, and never comes back.
  const auto options = fault_options(faults::FaultSpec::scripted({{0, {1.0, kInf}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_EQ(result.faults.failures, 1u);
  EXPECT_EQ(result.faults.recoveries, 0u);
  EXPECT_EQ(result.faults.suspicions, 1u);
  EXPECT_GT(result.faults.chunks_lost, 0u);
  EXPECT_EQ(result.faults.chunks_lost, result.faults.chunks_redispatched);
  EXPECT_NEAR(result.faults.work_lost, result.faults.work_redispatched, 1e-9);

  // Work ends up fully computed by the survivors.
  double survivor_work = 0.0;
  for (std::size_t w = 1; w < 4; ++w) survivor_work += result.workers[w].work;
  EXPECT_NEAR(survivor_work + result.workers[0].work, 100.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 100.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, OverlappingScriptedOutagesDoNotDoubleCountDowntime) {
  const auto platform = uniform_platform(3);
  baselines::FactoringPolicy policy(90.0, 3);
  // Three overlapping scripts for one worker; coalesced to [1, 6). The
  // metrics audit partitions each worker's time over [0, makespan], so any
  // double-counted down_time trips the identity check.
  const auto options = fault_options(faults::FaultSpec::scripted(
      {{0, {1.0, 5.0}}, {0, {2.0, 4.0}}, {0, {4.5, 6.0}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_EQ(result.faults.failures, 1u);
  EXPECT_EQ(result.faults.recoveries, 1u);
  EXPECT_NEAR(result.metrics.engine.workers[0].down_time, 5.0, 1e-9);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 90.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, TransientInstantRepairCompletesAndAudits) {
  const auto platform = uniform_platform(3);
  baselines::FactoringPolicy policy(90.0, 3);
  // mttr = 0: every outage is a zero-length point event. Workers are never
  // observed down, so the run must complete with zero recorded downtime and
  // a clean audit whatever the failure rate.
  const auto options = fault_options(faults::FaultSpec::transient(5.0, 0.0), 17);

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_EQ(result.faults.failures, result.faults.recoveries);
  for (const obs::WorkerSpans& spans : result.metrics.engine.workers) {
    EXPECT_DOUBLE_EQ(spans.down_time, 0.0);
  }
  double total = 0.0;
  for (const auto& w : result.workers) total += w.work;
  EXPECT_NEAR(total, 90.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 90.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, DeadWorkerNeverCompletesAfterOutage) {
  const auto platform = uniform_platform(3);
  baselines::FactoringPolicy policy(60.0, 3);
  const auto options = fault_options(faults::FaultSpec::scripted({{2, {0.5, kInf}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  // No compute span of worker 2 may end inside or after its outage.
  for (const sim::TraceSpan& span : result.trace.filter(sim::SpanKind::kCompute)) {
    if (span.worker == 2) {
      EXPECT_LE(span.end, 0.5 + 1e-9);
    }
  }
  // The abort is visible in the trace.
  bool saw_aborted = false;
  for (const sim::TraceSpan& span : result.trace.for_worker(2)) {
    if (span.kind == sim::SpanKind::kAborted) {
      saw_aborted = true;
      EXPECT_NEAR(span.end, 0.5, 1e-9);
    }
  }
  EXPECT_TRUE(saw_aborted);
  // And the run still audits clean.
  const check::AuditReport audit = check::audit_sim_result(result, platform, 60.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, UmrRedistributesDeadWorkersShare) {
  const auto platform = uniform_platform(4, 10.0);
  core::UmrPolicy policy(platform, 200.0, core::DispatchOrder::kInOrder);
  const auto options = fault_options(faults::FaultSpec::scripted({{1, {2.0, kInf}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_GT(result.faults.chunks_redispatched, 0u);
  double total = 0.0;
  for (const auto& w : result.workers) total += w.work;
  EXPECT_NEAR(total, 200.0, 1e-6);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 200.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, RumrCompletesUnderFailStop) {
  const auto platform = uniform_platform(4, 10.0);
  core::RumrPolicy policy(platform, 200.0);
  const auto options = fault_options(faults::FaultSpec::scripted({{3, {1.0, kInf}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  double total = 0.0;
  for (const auto& w : result.workers) total += w.work;
  EXPECT_NEAR(total, 200.0, 1e-6);
  const check::AuditReport audit = check::audit_sim_result(result, platform, 200.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, MultiInstallmentFallsBackToSurvivors) {
  const auto platform = uniform_platform(3, 10.0);
  const auto policy = config::make_policy("mi-3", platform, 120.0, 0.0);
  const auto options = fault_options(faults::FaultSpec::scripted({{0, {1.0, kInf}}}));

  const sim::SimResult result = simulate(platform, *policy, options);

  double total = 0.0;
  for (const auto& w : result.workers) total += w.work;
  EXPECT_NEAR(total, 120.0, 1e-6);
  const check::AuditReport audit = check::audit_sim_result(result, platform, 120.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, AllWorkersDeadRaisesDiagnosticSimError) {
  const auto platform = uniform_platform(2);
  baselines::FactoringPolicy policy(50.0, 2);
  const auto options = fault_options(
      faults::FaultSpec::scripted({{0, {0.5, kInf}}, {1, {0.5, kInf}}}));

  try {
    (void)simulate(platform, policy, options);
    FAIL() << "expected SimError: every worker is dead with work remaining";
  } catch (const sim::SimError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("Factoring"), std::string::npos) << message;
    EXPECT_NE(message.find("dead or unreachable"), std::string::npos) << message;
    EXPECT_NE(message.find("worker 0"), std::string::npos) << message;
    EXPECT_NE(message.find("worker 1"), std::string::npos) << message;
    EXPECT_NE(message.find("re-dispatch"), std::string::npos) << message;
  }
}

TEST(FaultSim, TransientWorkerRejoinsAndContributes) {
  const auto platform = uniform_platform(2);
  // Long workload in small fixed chunks so the timeout (slack * ~5 s) fires
  // well before the run drains and the recovered worker gets fed again.
  baselines::CssPolicy policy(300.0, 2, 5.0);
  const auto options = fault_options(faults::FaultSpec::scripted({{0, {2.0, 30.0}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_EQ(result.faults.failures, 1u);
  EXPECT_EQ(result.faults.recoveries, 1u);
  EXPECT_GE(result.faults.suspicions, 1u);
  EXPECT_GE(result.faults.rejoins, 1u);

  // Worker 0 computes again after its recovery at t=30.
  bool computed_after_recovery = false;
  for (const sim::TraceSpan& span : result.trace.filter(sim::SpanKind::kCompute)) {
    if (span.worker == 0 && span.start >= 30.0) computed_after_recovery = true;
  }
  EXPECT_TRUE(computed_after_recovery);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 300.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, FlapperIsFencedRepeatedly) {
  const auto platform = uniform_platform(2);
  baselines::CssPolicy policy(300.0, 2, 5.0);
  // Two separated outages: fenced after the first, re-admitted, fenced again.
  const auto options =
      fault_options(faults::FaultSpec::scripted({{0, {2.0, 30.0}}, {0, {40.0, 70.0}}}));

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_EQ(result.faults.failures, 2u);
  EXPECT_GE(result.faults.suspicions, 2u);
  EXPECT_GE(result.faults.rejoins, 2u);
  const check::AuditReport audit = check::audit_sim_result(result, platform, 300.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, BackoffExhaustedFlapperRejoinsMidPhase2WithFloorSizedChunk) {
  // A worker fenced repeatedly enough to drive its blacklist backoff to
  // backoff_max must, on its final rejoin during RUMR's phase 2, be fed a
  // real factoring chunk (>= the phase-2 chunk floor), not dust — flapping
  // history must not degrade what the policy offers a re-admitted worker.
  const auto platform = platform::StarPlatform::homogeneous({.workers = 4,
                                                             .speed = 1.0,
                                                             .bandwidth = 6.0,
                                                             .comp_latency = 0.2,
                                                             .comm_latency = 0.1});
  // known_error 0.9 puts 360 of 400 units in phase 2; factoring_factor 8
  // makes every phase-2 batch floor-sized, so the floor is the binding chunk
  // size throughout: clamp(overhead/error, W2/(8N), W/N) = W2/(8N) = 11.25.
  core::RumrOptions rumr_options;
  rumr_options.known_error = 0.9;
  rumr_options.factoring_factor = 8.0;
  const double phase2 = core::rumr_phase2_work(platform, 400.0, rumr_options);
  const double floor_chunk = phase2 / (8.0 * 4.0);
  core::RumrPolicy policy(platform, 400.0, std::move(rumr_options));

  // Three separated outages of worker 0, all during phase 2 (phase 1's 40
  // units drain in ~13 s). Each aborts a computation, the watchdog fences,
  // and the worker rejoins after backoff: by the third fence the schedule
  // min(backoff_max, base * factor^(k-1)) = min(0.2, 0.05 * 16) has been
  // capped at backoff_max.
  auto options = fault_options(faults::FaultSpec::scripted(
      {{0, {15.0, 16.0}}, {0, {35.0, 36.0}}, {0, {55.0, 57.0}}}));
  options.fault_tolerance.timeout_slack = 1.25;
  options.fault_tolerance.backoff_base = 0.05;
  options.fault_tolerance.backoff_factor = 4.0;
  options.fault_tolerance.backoff_max = 0.2;

  const sim::SimResult result = simulate(platform, policy, options);

  EXPECT_EQ(result.faults.failures, 3u);
  EXPECT_GE(result.faults.suspicions, 3u);
  EXPECT_GE(result.faults.rejoins, 3u);

  // After its last recovery the worker computes again, and the first chunk
  // it is handed respects the phase-2 floor.
  des::SimTime last_down_end = 0.0;
  for (const sim::TraceSpan& span : result.trace.for_worker(0)) {
    if (span.kind == sim::SpanKind::kDown) last_down_end = std::max(last_down_end, span.end);
  }
  EXPECT_DOUBLE_EQ(last_down_end, 57.0);
  const auto computes = result.trace.filter(sim::SpanKind::kCompute);
  const sim::TraceSpan* first_after_rejoin = nullptr;
  for (const sim::TraceSpan& span : computes) {
    if (span.worker != 0 || span.start < last_down_end) continue;
    if (first_after_rejoin == nullptr || span.start < first_after_rejoin->start) {
      first_after_rejoin = &span;
    }
  }
  ASSERT_NE(first_after_rejoin, nullptr);
  EXPECT_GE(first_after_rejoin->chunk, floor_chunk - 1e-9);

  const check::AuditReport audit = check::audit_sim_result(result, platform, 400.0);
  EXPECT_TRUE(audit.ok()) << audit.summary();
}

TEST(FaultSim, FaultyRunsReplayByteIdentical) {
  const auto platform = uniform_platform(4);
  const auto spec = faults::FaultSpec::transient(40.0, 8.0);

  auto run = [&] {
    baselines::FactoringPolicy policy(200.0, 4);
    sim::SimOptions options = sim::SimOptions::with_error(0.2, 77);
    options.record_trace = true;
    options.faults = spec;
    return simulate(platform, policy, options);
  };

  const sim::SimResult a = run();
  const sim::SimResult b = run();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.faults.failures, b.faults.failures);
  EXPECT_EQ(a.faults.suspicions, b.faults.suspicions);
  EXPECT_EQ(sim::to_chrome_tracing(a.trace), sim::to_chrome_tracing(b.trace));
}

TEST(FaultSim, TransientOutagesAuditCleanUnderRumrUmrAndFactoring) {
  // The harshest point of the robustness study: MTBF 200 s, MTTR 20 s, on a
  // Table 1-style platform. Every traced run completes and passes the span
  // audit: no completion from a down worker, each lost chunk re-sent once.
  const platform::StarPlatform platform = platform::StarPlatform::homogeneous(
      {.workers = 10, .speed = 1.0, .bandwidth = 16.0, .comp_latency = 0.3,
       .comm_latency = 0.3});
  for (const char* name : {"rumr", "umr", "factoring"}) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      sim::SimOptions options =
          sim::SimOptions::with_error(0.1, stats::mix_seed(0x0B057ULL, rep, 200000));
      options.record_trace = true;
      options.faults = faults::FaultSpec::transient(200.0, 20.0);
      const auto policy = config::make_policy(name, platform, 1000.0, 0.1);
      const sim::SimResult result = simulate(platform, *policy, options);
      EXPECT_GT(result.faults.failures, 0u) << name;
      const check::AuditReport audit = check::audit_run(result, platform, 1000.0, options);
      EXPECT_TRUE(audit.ok()) << name << " rep " << rep << ": " << audit.summary();
    }
  }
}

TEST(FaultSim, EnabledButQuietFaultLayerMatchesBaseline) {
  const auto platform = uniform_platform(3);

  auto run = [&](bool enable_quiet_faults) {
    baselines::FactoringPolicy policy(90.0, 3);
    sim::SimOptions options = sim::SimOptions::with_error(0.1, 5);
    options.record_trace = true;
    // Scripted model with an empty script: the fault layer is armed (watchdog
    // timers run) but no outage ever happens.
    if (enable_quiet_faults) options.faults = faults::FaultSpec::scripted({});
    return simulate(platform, policy, options);
  };

  const sim::SimResult baseline = run(false);
  const sim::SimResult quiet = run(true);

  // No false positives: the watchdog never fences a healthy worker ...
  EXPECT_EQ(quiet.faults.suspicions, 0u);
  EXPECT_EQ(quiet.faults.chunks_lost, 0u);
  // ... and the schedule is untouched.
  EXPECT_DOUBLE_EQ(quiet.makespan, baseline.makespan);
  EXPECT_EQ(sim::to_chrome_tracing(quiet.trace), sim::to_chrome_tracing(baseline.trace));
}

/// A policy that ignores WorkerStatus::alive and keeps targeting worker 0.
class StubbornPolicy final : public sim::SchedulerPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "Stubborn"; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override {
    if (sent_ >= 5 || ctx.worker_status(0).outstanding > 0) return std::nullopt;
    ++sent_;
    return sim::Dispatch{0, 10.0};
  }
  [[nodiscard]] bool finished() const override { return sent_ >= 5; }
  [[nodiscard]] double total_work() const override { return 50.0; }

 private:
  std::size_t sent_ = 0;
};

TEST(FaultSim, DispatchToFencedWorkerIsRejected) {
  const auto platform = uniform_platform(2);
  StubbornPolicy policy;
  const auto options = fault_options(faults::FaultSpec::scripted({{0, {1.0, kInf}}}));

  try {
    (void)simulate(platform, policy, options);
    FAIL() << "expected SimError: dispatch to a fenced worker";
  } catch (const sim::SimError& error) {
    EXPECT_NE(std::string(error.what()).find("fenced"), std::string::npos) << error.what();
  }
}

/// Counts the engine's down/up notifications, delegating the real work.
class HookCountingPolicy final : public sim::SchedulerPolicy {
 public:
  HookCountingPolicy(double w_total, std::size_t workers, double chunk)
      : inner_(w_total, workers, chunk) {}

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override {
    return inner_.next_dispatch(ctx);
  }
  [[nodiscard]] bool finished() const override { return inner_.finished(); }
  [[nodiscard]] double total_work() const override { return inner_.total_work(); }
  void on_worker_down(const sim::MasterContext& ctx, std::size_t worker) override {
    inner_.on_worker_down(ctx, worker);
    ++downs_;
  }
  void on_worker_up(const sim::MasterContext& ctx, std::size_t worker) override {
    inner_.on_worker_up(ctx, worker);
    ++ups_;
  }

  std::size_t downs() const { return downs_; }
  std::size_t ups() const { return ups_; }

 private:
  baselines::CssPolicy inner_;
  std::size_t downs_ = 0;
  std::size_t ups_ = 0;
};

TEST(FaultSim, PolicyHooksFireOnFenceAndRejoin) {
  const auto platform = uniform_platform(2);
  HookCountingPolicy policy(300.0, 2, 5.0);
  const auto options = fault_options(faults::FaultSpec::scripted({{0, {2.0, 30.0}}}));

  const sim::SimResult result = simulate(platform, policy, options);
  (void)result;
  EXPECT_GE(policy.downs(), 1u);
  EXPECT_GE(policy.ups(), 1u);
}

TEST(FaultSim, NoFaultRunCarriesZeroFaultStats) {
  const auto platform = uniform_platform(2);
  baselines::FactoringPolicy policy(40.0, 2);
  const sim::SimResult result = simulate(platform, policy, sim::SimOptions{});
  EXPECT_EQ(result.faults.failures, 0u);
  EXPECT_EQ(result.faults.suspicions, 0u);
  EXPECT_EQ(result.faults.chunks_lost, 0u);
  EXPECT_DOUBLE_EQ(result.faults.work_redispatched, 0.0);
}

}  // namespace
}  // namespace rumr
