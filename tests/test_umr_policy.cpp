// Tests for the UMR execution policy (core/umr_policy.hpp): dispatch order,
// bookkeeping, and the out-of-order revision used in RUMR phase 1.

#include "core/umr_policy.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/master_worker.hpp"
#include "stub_context.hpp"

namespace rumr::core {
namespace {

platform::StarPlatform small_platform() {
  return platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 6.0, .comp_latency = 0.1,
       .comm_latency = 0.05});
}

using test_support::StubContext;

TEST(UmrPolicy, InOrderIsStrictRoundRobin) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kInOrder);
  StubContext ctx(p);
  const std::size_t rounds = policy.schedule().rounds;
  for (std::size_t j = 0; j < rounds; ++j) {
    for (std::size_t i = 0; i < 4; ++i) {
      const auto d = policy.next_dispatch(ctx);
      ASSERT_TRUE(d.has_value());
      EXPECT_EQ(d->worker, i) << "round " << j;
      EXPECT_NEAR(d->chunk, policy.schedule().chunk[j][i], 1e-12);
    }
  }
  EXPECT_TRUE(policy.finished());
  EXPECT_FALSE(policy.next_dispatch(ctx).has_value());
}

TEST(UmrPolicy, OutOfOrderMatchesInOrderWhenNobodyIsIdle) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kOutOfOrder);
  StubContext ctx(p);
  // All workers busy (outstanding > 0): order stays round-robin.
  for (auto& st : ctx.status_) st.outstanding = 1;
  std::vector<std::size_t> order;
  for (int i = 0; i < 8; ++i) {
    const auto d = policy.next_dispatch(ctx);
    ASSERT_TRUE(d.has_value());
    order.push_back(d->worker);
  }
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(UmrPolicy, OutOfOrderServesPrematurelyIdleWorkerFirst) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kOutOfOrder);
  StubContext ctx(p);
  for (auto& st : ctx.status_) st.outstanding = 1;
  // Consume round 0 completely.
  for (int i = 0; i < 4; ++i) (void)policy.next_dispatch(ctx);
  // Worker 2 finished everything it was sent — it jumps the round-1 queue.
  ctx.status_[2].outstanding = 0;
  ctx.status_[2].completed_chunks = 1;
  ctx.status_[2].last_completion = 5.0;
  const auto d = policy.next_dispatch(ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->worker, 2u);
}

TEST(UmrPolicy, OutOfOrderPrefersEarliestCompletionAmongIdle) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kOutOfOrder);
  StubContext ctx(p);
  for (auto& st : ctx.status_) st.outstanding = 1;
  for (int i = 0; i < 4; ++i) (void)policy.next_dispatch(ctx);
  ctx.status_[1].outstanding = 0;
  ctx.status_[1].completed_chunks = 1;
  ctx.status_[1].last_completion = 7.0;
  ctx.status_[3].outstanding = 0;
  ctx.status_[3].completed_chunks = 1;
  ctx.status_[3].last_completion = 5.0;  // Idle longer.
  const auto d = policy.next_dispatch(ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->worker, 3u);
}

TEST(PaperRule, OutOfOrderPhase1SkipsWorkersThatNeverCompletedAChunk) {
  // DESIGN.md section 4, "Out-of-order phase 1" (core/umr_policy.cpp): a
  // worker jumps the round-robin order only when it finished prematurely —
  // nothing outstanding *and* at least one chunk completed. A worker with
  // nothing outstanding that has never completed a chunk is not idle early.
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kOutOfOrder);
  StubContext ctx(p);
  for (auto& st : ctx.status_) st.outstanding = 1;
  for (int i = 0; i < 4; ++i) (void)policy.next_dispatch(ctx);  // Round 0.
  ctx.status_[1].outstanding = 0;  // Never completed a chunk; last_completion 0.
  ctx.status_[3].outstanding = 0;
  ctx.status_[3].completed_chunks = 1;
  ctx.status_[3].last_completion = 5.0;
  auto d = policy.next_dispatch(ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->worker, 3u);  // The prematurely idle worker, not worker 1.
  ctx.status_[3].outstanding = 1;
  d = policy.next_dispatch(ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->worker, 0u);  // Nobody idle early: round-robin order resumes.
}

TEST(UmrPolicy, OutOfOrderAvoidsBlockedWorkers) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kOutOfOrder);
  StubContext ctx(p);
  for (auto& st : ctx.status_) st.outstanding = 2;
  ctx.receivable_ = {false, false, true, true};
  const auto d = policy.next_dispatch(ctx);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->worker, 2u);  // First receivable, since nobody is idle.
}

TEST(UmrPolicy, TotalWorkMatchesSchedule) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 123.0);
  EXPECT_NEAR(policy.total_work(), 123.0, 1e-9);
}

TEST(UmrPolicy, RunsToCompletionInSimulation) {
  const platform::StarPlatform p = small_platform();
  for (const DispatchOrder order : {DispatchOrder::kInOrder, DispatchOrder::kOutOfOrder}) {
    UmrPolicy policy(p, 400.0, order);
    const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.3, 99));
    EXPECT_NEAR(r.work_dispatched, 400.0, 1e-6);
    EXPECT_TRUE(policy.finished());
  }
}

TEST(UmrPolicy, AllDisciplinesIdenticalAtZeroError) {
  // With perfect predictions the planned timetable coincides with eager
  // dispatch, and nobody ever finishes prematurely.
  const platform::StarPlatform p = small_platform();
  UmrPolicy in_order(p, 400.0, DispatchOrder::kInOrder);
  UmrPolicy out_of_order(p, 400.0, DispatchOrder::kOutOfOrder);
  UmrPolicy timetable(p, 400.0, DispatchOrder::kTimetable);
  const double m1 = simulate(p, in_order, sim::SimOptions{}).makespan;
  const double m2 = simulate(p, out_of_order, sim::SimOptions{}).makespan;
  const double m3 = simulate(p, timetable, sim::SimOptions{}).makespan;
  EXPECT_DOUBLE_EQ(m1, m2);
  EXPECT_NEAR(m3, m1, 1e-9 * m1);
}

TEST(UmrPolicy, TimetableRequiresPlatformConstructor) {
  const platform::StarPlatform p = small_platform();
  UmrSchedule schedule = core::solve_umr(p, 400.0);
  EXPECT_THROW(UmrPolicy(std::move(schedule), DispatchOrder::kTimetable),
               std::invalid_argument);
}

TEST(UmrPolicy, TimetableNeverDispatchesEarly) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kTimetable);
  StubContext ctx(p);
  ctx.now_ = 0.0;
  // First send is planned at t = 0: available immediately.
  EXPECT_TRUE(policy.next_dispatch(ctx).has_value());
  // Second send is planned strictly later: declined now, with the planned
  // time exposed through next_poll_time().
  EXPECT_FALSE(policy.next_dispatch(ctx).has_value());
  const auto poll = policy.next_poll_time();
  ASSERT_TRUE(poll.has_value());
  EXPECT_GT(*poll, 0.0);
  ctx.now_ = *poll;
  EXPECT_TRUE(policy.next_dispatch(ctx).has_value());
}

TEST(UmrPolicy, TimetableConservesUnderError) {
  const platform::StarPlatform p = small_platform();
  UmrPolicy policy(p, 400.0, DispatchOrder::kTimetable);
  const sim::SimResult r = simulate(p, policy, sim::SimOptions::with_error(0.4, 31));
  EXPECT_NEAR(r.work_dispatched, 400.0, 1e-6);
  EXPECT_TRUE(policy.finished());
}

TEST(UmrPolicy, TimetableAndEagerStayCloseOnAverage) {
  // The two disciplines diverge only by whether the master may run ahead of
  // its planned send times; on a single small platform their mean makespans
  // stay within a few percent (the systematic timetable penalty emerges on
  // large parameter sweeps — see bench_ablation_buffering).
  const platform::StarPlatform p = small_platform();
  double eager_total = 0.0;
  double timed_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    UmrPolicy eager(p, 400.0, DispatchOrder::kInOrder);
    eager_total += simulate(p, eager, sim::SimOptions::with_error(0.35, seed)).makespan;
    UmrPolicy timed(p, 400.0, DispatchOrder::kTimetable);
    timed_total += simulate(p, timed, sim::SimOptions::with_error(0.35, seed)).makespan;
  }
  EXPECT_NEAR(eager_total / timed_total, 1.0, 0.05);
}

}  // namespace
}  // namespace rumr::core
