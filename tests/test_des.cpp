// Unit tests for the discrete-event simulation kernel (des/simulator.hpp).

#include "des/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rumr::des {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  const Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.events_processed(), 0u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, EqualTimesRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.schedule_at(2.0, [&] {
    sim.schedule_in(1.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.schedule_in(1.0, recurse);
  };
  sim.schedule_at(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(0));
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, DoubleCancelReportsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  const std::size_t executed = sim.run_until(2.5);
  EXPECT_EQ(executed, 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  // Events at exactly the deadline run.
  sim.run_until(3.0);
  EXPECT_EQ(fired.back(), 3.0);
  sim.run();
  EXPECT_EQ(fired.back(), 4.0);
}

TEST(Simulator, RunUntilSkipsCancelledHeads) {
  Simulator sim;
  bool fired = false;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [&] { fired = true; });
  sim.cancel(a);
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, MaxEventsGuardStopsRunawayLoops) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule_in(1.0, forever); };
  sim.schedule_at(0.0, forever);
  const std::size_t executed = sim.run(1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.events_pending(), 1u);
}

TEST(Simulator, TracksQueueDepthHighWater) {
  Simulator sim;
  // Three pending at once; the cancel leaves the queue at once, and the
  // high-water mark survives the drain.
  sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  const EventId cancelled = sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.queue_depth_high_water(), 3u);
  sim.cancel(cancelled);
  EXPECT_EQ(sim.events_pending(), 2u);
  sim.run();
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.queue_depth_high_water(), 3u);
}

}  // namespace
}  // namespace rumr::des
