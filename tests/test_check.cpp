// Tests for the rumr::check invariant layer: the RUMR_CHECK macros, the
// kernel auditor (monotonicity / schedule-in-the-past / event conservation),
// and the work-conservation trace auditor. Each invariant gets a negative
// test: violate it deliberately in a toy harness and assert the auditor
// fires.

#include "check/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "check/des_audit.hpp"
#include "check/trace_audit.hpp"
#include "des/simulator.hpp"
#include "platform/platform.hpp"
#include "sim/master_worker.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr::check {
namespace {

// --- RUMR_CHECK macro ------------------------------------------------------

TEST(CheckMacro, PassingConditionIsSilent) {
  EXPECT_NO_THROW(RUMR_CHECK(1 + 1 == 2, "arithmetic"));
  EXPECT_NO_THROW(RUMR_CHECK_EXPENSIVE(true, "tautology"));
}

TEST(CheckMacro, FailingCheapCheckThrowsWithContext) {
#if RUMR_CHECK_LEVEL >= 1
  try {
    RUMR_CHECK(2 < 1, "two is not less than one");
    FAIL() << "RUMR_CHECK did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("two is not less than one"), std::string::npos);
    EXPECT_NE(what.find("2 < 1"), std::string::npos);
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos);
  }
#else
  EXPECT_NO_THROW(RUMR_CHECK(2 < 1, "compiled out at level 0"));
#endif
}

TEST(CheckMacro, ExpensiveTierFollowsCheckLevel) {
#if RUMR_CHECK_LEVEL >= 2
  EXPECT_THROW(RUMR_CHECK_EXPENSIVE(false, "expensive tier on"), CheckError);
#else
  EXPECT_NO_THROW(RUMR_CHECK_EXPENSIVE(false, "expensive tier off"));
#endif
  EXPECT_EQ(level(), RUMR_CHECK_LEVEL);
}

TEST(CheckMacro, ConditionIsNotEvaluatedTwice) {
  int evaluations = 0;
  RUMR_CHECK([&] {
    ++evaluations;
    return true;
  }(), "side-effecting condition");
#if RUMR_CHECK_LEVEL >= 1
  EXPECT_EQ(evaluations, 1);
#else
  EXPECT_EQ(evaluations, 0);
#endif
}

// --- SimulatorAuditor on a healthy kernel ----------------------------------

TEST(SimulatorAuditor, CleanRunPasses) {
  des::Simulator sim;
  SimulatorAuditor auditor;
  auditor.attach(sim);

  sim.schedule_at(1.0, [] {});
  sim.schedule_at(1.0, [] {});
  const des::EventId doomed = sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [&sim] { sim.schedule_in(0.5, [] {}); });
  sim.cancel(doomed);
  sim.run();

  auditor.verify_drained(sim);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().summary();
  EXPECT_EQ(auditor.scheduled(), 5u);
  EXPECT_EQ(auditor.executed(), 4u);
  EXPECT_EQ(auditor.cancelled(), 1u);
  EXPECT_NO_THROW(auditor.report().throw_if_failed());
  EXPECT_EQ(auditor.report().summary(), "ok");
}

TEST(SimulatorAuditor, ResetForgetsObservations) {
  SimulatorAuditor auditor;
  auditor.on_schedule(1, 5.0, 9.0);  // In the past: records a violation.
  EXPECT_FALSE(auditor.report().ok());
  auditor.reset();
  EXPECT_TRUE(auditor.report().ok());
  EXPECT_EQ(auditor.scheduled(), 0u);
}

// --- Negative tests: drive the auditor with broken event sequences ---------

TEST(SimulatorAuditor, FiresOnTimeGoingBackwards) {
  SimulatorAuditor auditor;
  auditor.on_execute(1, 5.0);
  auditor.on_execute(2, 4.0);  // Causality violation.
  EXPECT_FALSE(auditor.report().ok());
  EXPECT_NE(auditor.report().summary().find("time went backwards"), std::string::npos);
  EXPECT_THROW(auditor.report().throw_if_failed(), CheckError);
}

TEST(SimulatorAuditor, FiresOnScheduleInThePast) {
  SimulatorAuditor auditor;
  auditor.on_schedule(1, 2.0, 10.0);  // Requested before the clock.
  EXPECT_FALSE(auditor.report().ok());
  EXPECT_NE(auditor.report().summary().find("schedule-in-the-past"), std::string::npos);
}

TEST(SimulatorAuditor, FiresOnEventNonConservation) {
  des::Simulator sim;  // Untouched: all kernel counters stay 0.
  SimulatorAuditor auditor;
  auditor.on_schedule(1, 1.0, 0.0);  // One phantom event, never executed.
  auditor.verify_drained(sim);
  EXPECT_FALSE(auditor.report().ok());
  EXPECT_NE(auditor.report().summary().find("event conservation"), std::string::npos);
}

TEST(SimulatorAuditor, FiresWhenKernelCountersDisagree) {
  des::Simulator sim;
  sim.schedule_at(1.0, [] {});
  sim.run();
  SimulatorAuditor auditor;  // Attached too late: saw none of the events.
  auditor.verify_drained(sim);
  EXPECT_FALSE(auditor.report().ok());
}

// --- Kernel schedule-in-the-past detection ---------------------------------

TEST(SimulatorKernel, SchedulingInThePastTrips) {
  des::Simulator sim;
  sim.schedule_at(5.0, [&sim] {
    // now() == 5; asking for t=1 is a causality bug in the caller.
    sim.schedule_at(1.0, [] {});
  });
#if RUMR_CHECK_LEVEL >= 1
  EXPECT_THROW(sim.run(), CheckError);
#else
  sim.run();
#endif
}

// --- Work-conservation trace auditor ---------------------------------------

platform::StarPlatform two_workers() {
  return platform::StarPlatform::homogeneous({.workers = 2, .speed = 1.0, .bandwidth = 4.0});
}

/// A minimal, physically consistent hand-built result: one chunk per worker,
/// uplink serialized, compute after arrival.
sim::SimResult toy_result() {
  sim::SimResult r;
  r.makespan = 12.0;
  r.chunks_dispatched = 2;
  r.work_dispatched = 16.0;
  r.uplink_busy_time = 4.0;
  r.workers.resize(2);
  r.workers[0] = {8.0, 1, 8.0, 2.0, 10.0};
  r.workers[1] = {8.0, 1, 8.0, 4.0, 12.0};
  r.trace.add({sim::SpanKind::kUplink, 0, 8.0, 0.0, 2.0});
  r.trace.add({sim::SpanKind::kUplink, 1, 8.0, 2.0, 4.0});
  r.trace.add({sim::SpanKind::kCompute, 0, 8.0, 2.0, 10.0});
  r.trace.add({sim::SpanKind::kCompute, 1, 8.0, 4.0, 12.0});
  return r;
}

TEST(TraceAudit, ConsistentResultPasses) {
  const AuditReport report = audit_sim_result(toy_result(), two_workers(), 16.0);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TraceAudit, FiresOnDispatchShortfall) {
  // The run "lost" workload: dispatched != workload total.
  const AuditReport report = audit_sim_result(toy_result(), two_workers(), 20.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("bytes dispatched"), std::string::npos);
}

TEST(TraceAudit, FiresOnBusyTimeExceedingMakespan) {
  sim::SimResult r = toy_result();
  r.workers[1].busy_time = 50.0;  // A worker cannot compute longer than the run.
  const AuditReport report = audit_sim_result(r, two_workers(), 16.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("busy time"), std::string::npos);
}

TEST(TraceAudit, FiresOnOverlappingComputeSpans) {
  sim::SimResult r = toy_result();
  // Worker 0 "computes" two chunks at once on its single CPU.
  r.trace.add({sim::SpanKind::kCompute, 0, 1.0, 3.0, 4.0});
  r.workers[0].work += 1.0;
  r.workers[0].chunks += 1;
  r.workers[0].busy_time += 1.0;
  r.work_dispatched += 1.0;
  r.chunks_dispatched += 1;
  const AuditReport report = audit_sim_result(r, two_workers(), 17.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("compute overlap"), std::string::npos);
}

TEST(TraceAudit, FiresOnOverlappingUplinkSpans) {
  sim::SimResult r = toy_result();
  sim::SimResult broken;
  broken.makespan = r.makespan;
  broken.chunks_dispatched = r.chunks_dispatched;
  broken.work_dispatched = r.work_dispatched;
  broken.workers = r.workers;
  // Both transfers start at t=0 on a single-channel uplink.
  broken.trace.add({sim::SpanKind::kUplink, 0, 8.0, 0.0, 2.0});
  broken.trace.add({sim::SpanKind::kUplink, 1, 8.0, 1.0, 3.0});
  broken.trace.add({sim::SpanKind::kCompute, 0, 8.0, 2.0, 10.0});
  broken.trace.add({sim::SpanKind::kCompute, 1, 8.0, 4.0, 12.0});
  const AuditReport report = audit_sim_result(broken, two_workers(), 16.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("uplink overlap"), std::string::npos);

  // The same trace is legal on a two-channel master.
  TraceAuditOptions options;
  options.uplink_channels = 2;
  EXPECT_TRUE(audit_sim_result(broken, two_workers(), 16.0, options).ok());
}

TEST(TraceAudit, FiresOnChunkCountMismatch) {
  sim::SimResult r = toy_result();
  r.chunks_dispatched = 3;  // Claims a chunk nobody computed.
  const AuditReport report = audit_sim_result(r, two_workers(), 16.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("chunk conservation"), std::string::npos);
}

TEST(TraceAudit, FiresOnMalformedSpan) {
  sim::SimResult r = toy_result();
  r.trace.add({sim::SpanKind::kTail, 0, 0.0, 5.0, 4.0});  // end < start.
  const AuditReport report = audit_sim_result(r, two_workers(), 16.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("malformed span"), std::string::npos);
}

// --- observability-identity audit ------------------------------------------

// A real run whose metrics the tests below corrupt one field at a time.
sim::SimResult metrics_run() {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  auto spec = sweep::umr_spec();
  auto policy = spec.make(p, 200.0, 0.0);
  return sim::simulate(p, *policy, sim::SimOptions::with_error(0.3, 21));
}

TEST(MetricsAudit, PassesOnAnUntouchedRun) {
  const sim::SimResult result = metrics_run();
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  EXPECT_TRUE(audit_sim_result(result, p, 200.0).ok());
}

TEST(MetricsAudit, FiresOnUplinkOccupancyMismatch) {
  sim::SimResult result = metrics_run();
  result.metrics.engine.uplink_busy_time += 1.0;  // busy + idle no longer tiles the run
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  const AuditReport report = audit_sim_result(result, p, 200.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("uplink busy + idle vs makespan"), std::string::npos);
}

TEST(MetricsAudit, FiresOnWorkerSpanPartitionMismatch) {
  sim::SimResult result = metrics_run();
  result.metrics.engine.workers[0].idle_time -= 0.5;  // spans no longer partition the makespan
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  const AuditReport report = audit_sim_result(result, p, 200.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("compute + aborted + idle + down vs makespan"),
            std::string::npos);
}

TEST(MetricsAudit, FailingPerWorkerIdentityNamesItsWorker) {
  // Labels are formatted only when a check fails; a failure must still name
  // the worker it belongs to, and only that worker.
  sim::SimResult result = metrics_run();
  result.metrics.engine.workers[3].idle_time -= 0.5;
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  const std::string summary = audit_sim_result(result, p, 200.0).summary();
  EXPECT_NE(summary.find("worker 3 compute + aborted + idle + down vs makespan"),
            std::string::npos)
      << summary;
  EXPECT_EQ(summary.find("worker 0"), std::string::npos) << summary;
}

TEST(TraceAudit, FailingPerWorkerSpanCheckNamesItsWorker) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  auto policy = sweep::umr_spec().make(p, 200.0, 0.0);
  sim::SimOptions options = sim::SimOptions::with_error(0.3, 21);
  options.record_trace = true;
  sim::SimResult result = sim::simulate(p, *policy, options);
  ASSERT_TRUE(audit_sim_result(result, p, 200.0).ok());
  // An empty compute span at t=0, recorded after worker 3's real ones: it
  // overlaps them and is one span more than worker 3's chunk count.
  result.trace.add({sim::SpanKind::kCompute, 3, 0.0, 0.0, 0.0});
  const std::string summary = audit_sim_result(result, p, 200.0).summary();
  EXPECT_NE(summary.find("worker 3 compute overlap"), std::string::npos) << summary;
  EXPECT_NE(summary.find("worker 3 has "), std::string::npos) << summary;
  EXPECT_EQ(summary.find("worker 0"), std::string::npos) << summary;
}

TEST(MetricsAudit, FiresOnDesEventLedgerMismatch) {
  sim::SimResult result = metrics_run();
  result.metrics.des.events_scheduled += 1;  // conservation: scheduled != executed + cancelled
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  const AuditReport report = audit_sim_result(result, p, 200.0);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("des events"), std::string::npos);
}

TEST(MetricsAudit, SkipsHandBuiltResultsWithoutMetrics) {
  // Legacy hand-assembled results carry no metrics record; the audit must not
  // report phantom violations for them.
  const sim::SimResult r = toy_result();
  EXPECT_TRUE(r.metrics.engine.workers.empty());
  EXPECT_TRUE(audit_sim_result(r, two_workers(), 16.0).ok());
}

TEST(TraceAudit, AuditsARealEngineRun) {
  // End-to-end: a real simulate() under heavy prediction error must still
  // conserve work and respect the platform's resource constraints.
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1, .comm_latency = 0.05});
  auto spec = sweep::fsc_spec();
  auto policy = spec.make(p, 200.0, 0.4);
  sim::SimOptions options = sim::SimOptions::with_error(0.4, 99);
  options.record_trace = true;
  const sim::SimResult result = sim::simulate(p, *policy, options);
  const AuditReport report = audit_sim_result(result, p, 200.0);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace rumr::check
