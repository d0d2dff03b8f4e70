// Integration-grade unit tests for the master-worker engine
// (sim/master_worker.hpp): timing semantics, conservation, blocking sends,
// error injection, and misbehaving-policy detection.

#include "sim/master_worker.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/static_sequence.hpp"

namespace rumr::sim {
namespace {

using baselines::StaticSequencePolicy;

platform::StarPlatform one_worker(double s = 1.0, double b = 2.0, double clat = 0.0,
                                  double nlat = 0.0, double tlat = 0.0) {
  return platform::StarPlatform({{s, b, clat, nlat, tlat}});
}

TEST(Engine, SingleChunkMakespanIsAnalytic) {
  // makespan = nLat + c/B + tLat + cLat + c/S.
  const platform::StarPlatform p = one_worker(2.0, 4.0, 0.5, 0.25, 0.125);
  StaticSequencePolicy policy("one", {{0, 8.0}});
  const SimResult r = simulate(p, policy, SimOptions{});
  EXPECT_DOUBLE_EQ(r.makespan, 0.25 + 8.0 / 4.0 + 0.125 + 0.5 + 8.0 / 2.0);
  EXPECT_EQ(r.chunks_dispatched, 1u);
  EXPECT_DOUBLE_EQ(r.work_dispatched, 8.0);
}

TEST(Engine, BackToBackChunksOverlapCommunication) {
  // Two chunks to one worker: with a front end the second transfer proceeds
  // while the first computes, so makespan = first arrival + both computes
  // (transfer of chunk 2 is shorter than compute of chunk 1).
  const platform::StarPlatform p = one_worker(1.0, 10.0, 0.0, 0.0, 0.0);
  StaticSequencePolicy policy("two", {{0, 10.0}, {0, 10.0}});
  const SimResult r = simulate(p, policy, SimOptions{});
  EXPECT_DOUBLE_EQ(r.makespan, 1.0 + 10.0 + 10.0);
}

TEST(Engine, TwoWorkersSerializeOnUplink) {
  // Equal chunks to two workers: worker 1's transfer starts only after
  // worker 0's serial part completes.
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 2, .speed = 1.0, .bandwidth = 4.0});
  StaticSequencePolicy policy("pair", {{0, 8.0}, {1, 8.0}});
  const SimResult r = simulate(p, policy, SimOptions{});
  // Worker 1: arrival at 2+2 = 4, compute 8 -> 12. Worker 0: 2 + 8 = 10.
  EXPECT_DOUBLE_EQ(r.makespan, 12.0);
  EXPECT_DOUBLE_EQ(r.workers[0].work, 8.0);
  EXPECT_DOUBLE_EQ(r.workers[1].work, 8.0);
}

TEST(Engine, TailLatencyOverlapsNextTransfer) {
  // tLat does not occupy the uplink: with tLat = 5 the second worker's
  // serial transfer still starts at t = 1.
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 2, .speed = 1.0, .bandwidth = 4.0, .transfer_latency = 5.0});
  StaticSequencePolicy policy("pair", {{0, 4.0}, {1, 4.0}});
  const SimResult r = simulate(p, policy, SimOptions{});
  // Worker 1: serial done at 2, +tail 5 -> arrival 7, compute 4 -> 11.
  EXPECT_DOUBLE_EQ(r.makespan, 11.0);
}

TEST(Engine, ZeroErrorIsDeterministicAcrossSeeds) {
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 3, .bandwidth = 9.0});
  StaticSequencePolicy a("s", {{0, 5.0}, {1, 5.0}, {2, 5.0}});
  StaticSequencePolicy b("s", {{0, 5.0}, {1, 5.0}, {2, 5.0}});
  SimOptions opt_a;
  opt_a.seed = 1;
  SimOptions opt_b;
  opt_b.seed = 999;
  EXPECT_DOUBLE_EQ(simulate(p, a, opt_a).makespan, simulate(p, b, opt_b).makespan);
}

TEST(Engine, SameSeedSameRunUnderError) {
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 3, .bandwidth = 9.0});
  StaticSequencePolicy a("s", {{0, 5.0}, {1, 5.0}, {2, 5.0}});
  StaticSequencePolicy b("s", {{0, 5.0}, {1, 5.0}, {2, 5.0}});
  EXPECT_DOUBLE_EQ(simulate(p, a, SimOptions::with_error(0.3, 42)).makespan,
                   simulate(p, b, SimOptions::with_error(0.3, 42)).makespan);
}

TEST(Engine, DifferentSeedsDifferUnderError) {
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 3, .bandwidth = 9.0});
  StaticSequencePolicy a("s", {{0, 5.0}, {1, 5.0}, {2, 5.0}});
  StaticSequencePolicy b("s", {{0, 5.0}, {1, 5.0}, {2, 5.0}});
  EXPECT_NE(simulate(p, a, SimOptions::with_error(0.3, 1)).makespan,
            simulate(p, b, SimOptions::with_error(0.3, 2)).makespan);
}

TEST(Engine, MakespanNeverBelowComputeLowerBound) {
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 4, .bandwidth = 8.0});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    StaticSequencePolicy policy("s", {{0, 25.0}, {1, 25.0}, {2, 25.0}, {3, 25.0}});
    const SimResult r = simulate(p, policy, SimOptions::with_error(0.0, seed));
    EXPECT_GE(r.makespan, 100.0 / p.total_speed());
  }
}

TEST(Engine, TraceRecordsWhenRequested) {
  const platform::StarPlatform p = one_worker(1.0, 2.0, 0.1, 0.1, 0.1);
  StaticSequencePolicy policy("s", {{0, 2.0}});
  SimOptions options;
  options.record_trace = true;
  const SimResult r = simulate(p, policy, options);
  EXPECT_EQ(r.trace.filter(SpanKind::kUplink).size(), 1u);
  EXPECT_EQ(r.trace.filter(SpanKind::kTail).size(), 1u);
  EXPECT_EQ(r.trace.filter(SpanKind::kCompute).size(), 1u);
  EXPECT_DOUBLE_EQ(r.trace.end_time(), r.makespan);

  StaticSequencePolicy policy2("s", {{0, 2.0}});
  const SimResult r2 = simulate(p, policy2, SimOptions{});
  EXPECT_TRUE(r2.trace.empty());
}

TEST(Engine, RejectsDispatchToUnknownWorker) {
  const platform::StarPlatform p = one_worker();
  StaticSequencePolicy policy("bad", {{5, 1.0}});
  EXPECT_THROW((void)simulate(p, policy, SimOptions{}), SimError);
}

namespace {
/// A policy that claims more work than it dispatches (conservation violation).
struct LyingPolicy : SchedulerPolicy {
  bool sent = false;
  std::string_view name() const override { return "liar"; }
  std::optional<Dispatch> next_dispatch(const MasterContext&) override {
    if (sent) return std::nullopt;
    sent = true;
    return Dispatch{0, 1.0};
  }
  bool finished() const override { return sent; }
  double total_work() const override { return 100.0; }
};

/// A policy that never finishes but stops dispatching (deadlock).
struct StallingPolicy : SchedulerPolicy {
  std::string_view name() const override { return "staller"; }
  std::optional<Dispatch> next_dispatch(const MasterContext&) override { return std::nullopt; }
  bool finished() const override { return false; }
  double total_work() const override { return 10.0; }
};
}  // namespace

TEST(Engine, DetectsWorkNonConservation) {
  const platform::StarPlatform p = one_worker();
  LyingPolicy policy;
  EXPECT_THROW((void)simulate(p, policy, SimOptions{}), SimError);
}

TEST(Engine, DetectsDeadlock) {
  const platform::StarPlatform p = one_worker();
  StallingPolicy policy;
  EXPECT_THROW((void)simulate(p, policy, SimOptions{}), SimError);
}

TEST(Engine, RejectsZeroBufferCapacity) {
  const platform::StarPlatform p = one_worker();
  StaticSequencePolicy policy("s", {{0, 1.0}});
  SimOptions options;
  options.worker_buffer_capacity = 0;
  EXPECT_THROW((void)simulate(p, policy, options), SimError);
}

TEST(Engine, BoundedBufferBlocksUplink) {
  // Three chunks to worker 0, then one to worker 1. Worker 0 is slow
  // (compute 10 each, transfers 1 each). With capacity 1 the third send to
  // worker 0 must wait until worker 0 starts its second chunk (t = 10),
  // delaying worker 1's chunk; with unbounded buffers it sails through.
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 2, .speed = 1.0, .bandwidth = 10.0});
  const std::vector<Dispatch> plan = {{0, 10.0}, {0, 10.0}, {0, 10.0}, {1, 10.0}};

  StaticSequencePolicy bounded("s", plan);
  SimOptions opt_bounded;
  opt_bounded.worker_buffer_capacity = 1;
  const SimResult r_bounded = simulate(p, bounded, opt_bounded);

  StaticSequencePolicy unbounded("s", plan);
  SimOptions opt_unbounded;
  opt_unbounded.worker_buffer_capacity = SIZE_MAX;
  const SimResult r_unbounded = simulate(p, unbounded, opt_unbounded);

  // Unbounded: worker 1's chunk arrives at 4, computes until 14.
  EXPECT_DOUBLE_EQ(r_unbounded.makespan, 30.0 + 1.0);  // worker 0: arrival 1 + 30.
  // Bounded: the third send to worker 0 blocks until worker 0 pops its
  // buffered chunk at t = 11, then transfers 11->12; worker 1's send runs
  // 12->13, arrives at 13 and computes to 23 — strictly later than the
  // unbounded case's 14.
  const double w1_end_bounded = r_bounded.workers[1].last_end;
  const double w1_end_unbounded = r_unbounded.workers[1].last_end;
  EXPECT_DOUBLE_EQ(w1_end_unbounded, 14.0);
  EXPECT_DOUBLE_EQ(w1_end_bounded, 23.0);
}

TEST(Engine, UplinkBusyTimeAccountsSerialParts) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 2, .speed = 1.0, .bandwidth = 5.0, .comm_latency = 0.5});
  StaticSequencePolicy policy("s", {{0, 5.0}, {1, 5.0}});
  const SimResult r = simulate(p, policy, SimOptions{});
  EXPECT_DOUBLE_EQ(r.uplink_busy_time, 2.0 * (0.5 + 1.0));
}

TEST(Engine, WorkerOutcomeAccounting) {
  const platform::StarPlatform p = one_worker(2.0, 4.0, 0.25, 0.0, 0.0);
  StaticSequencePolicy policy("s", {{0, 4.0}, {0, 4.0}});
  const SimResult r = simulate(p, policy, SimOptions{});
  EXPECT_EQ(r.workers[0].chunks, 2u);
  EXPECT_DOUBLE_EQ(r.workers[0].work, 8.0);
  EXPECT_DOUBLE_EQ(r.workers[0].busy_time, 2.0 * (0.25 + 2.0));
  EXPECT_GT(r.mean_worker_utilization(), 0.5);
}

TEST(PaperRule, ErrorScalesTheWholeComputeTime) {
  // DESIGN.md section 3: the error's ratio multiplies the whole computation,
  // cLat + chunk/S, not chunk/S alone. A seed draws the same ratio whatever
  // cLat is, so the compute span over its prediction is that one ratio both
  // with cLat = 0 and with cLat = 4.
  const auto realised_ratio = [](double clat) {
    const platform::StarPlatform p = one_worker(2.0, 8.0, clat, 0.1, 0.0);
    StaticSequencePolicy policy("one", {{0, 6.0}});
    SimOptions options = SimOptions::with_error(0.4, 77);
    options.record_trace = true;
    const SimResult r = simulate(p, policy, options);
    for (const TraceSpan& span : r.trace.spans()) {
      if (span.kind == SpanKind::kCompute) return (span.end - span.start) / (clat + 6.0 / 2.0);
    }
    return 0.0;
  };
  const double ratio = realised_ratio(0.0);
  EXPECT_GT(std::abs(ratio - 1.0), 1e-3);  // The error did perturb the run.
  EXPECT_NEAR(realised_ratio(4.0), ratio, 1e-12);
}

TEST(Engine, ErrorInjectionPerturbsMakespan) {
  const platform::StarPlatform p =
      platform::StarPlatform::homogeneous({.workers = 2, .bandwidth = 6.0});
  StaticSequencePolicy exact("s", {{0, 10.0}, {1, 10.0}});
  const double clean = simulate(p, exact, SimOptions{}).makespan;
  int differs = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    StaticSequencePolicy noisy("s", {{0, 10.0}, {1, 10.0}});
    if (simulate(p, noisy, SimOptions::with_error(0.3, seed)).makespan != clean) ++differs;
  }
  EXPECT_EQ(differs, 10);
}

}  // namespace
}  // namespace rumr::sim
