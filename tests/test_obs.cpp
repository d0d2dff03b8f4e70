// Tests for the observability layer (obs/): metric primitives, the live
// probes, the identities the collected RunMetrics must satisfy on real
// simulated runs, and the JSON/CSV exporters.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/rumr.hpp"
#include "core/umr_policy.hpp"
#include "obs/accumulators.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "platform/platform.hpp"
#include "sim/master_worker.hpp"

namespace rumr {
namespace {

platform::StarPlatform test_platform(std::size_t workers = 5) {
  platform::HomogeneousParams params;
  params.workers = workers;
  params.speed = 1.0;
  params.bandwidth = 15.0;
  params.comp_latency = 0.2;
  params.comm_latency = 0.1;
  return platform::StarPlatform::homogeneous(params);
}

TEST(Counter, StartsAtZeroAndAccumulates) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, TracksHighWaterMark) {
  obs::Gauge g;
  g.set(3.0);
  g.set(7.5);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 7.5);
}

TEST(Histogram, RejectsNonAscendingEdges) {
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::exponential(0.0, 2.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::exponential(1.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, BucketsSamplesWithOverflow) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.add(0.5);   // bucket 0
  h.add(1.0);   // bucket 0 (edges are inclusive upper bounds)
  h.add(1.5);   // bucket 1
  h.add(3.0);   // bucket 2
  h.add(100.0); // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.0);
  EXPECT_DOUBLE_EQ(h.mean(), 106.0 / 5.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
}

TEST(Histogram, EmptyReportsZeroExtrema) {
  obs::Histogram h({1.0});
  EXPECT_EQ(h.total(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, MergeRejectsMismatchedButCompatibleLayouts) {
  // Same bucket COUNT, different edges: structurally compatible vectors, but
  // merging them would silently mis-bucket every sample — must throw with a
  // message naming the requirement, not crash or merge garbage.
  obs::Histogram linear({1.0, 2.0, 3.0});
  linear.add(1.5);
  obs::Histogram geometric({1.0, 2.0, 4.0});
  geometric.add(1.5);
  try {
    linear.merge(geometric);
    FAIL() << "merge of mismatched edges did not throw";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("identical upper edges"), std::string::npos);
  }
  // The failed merge must not have corrupted the target.
  EXPECT_EQ(linear.total(), 1u);
  EXPECT_DOUBLE_EQ(linear.sum(), 1.5);
}

TEST(QuantileSketch, EmptySketchReportsZeroes) {
  const obs::QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(sketch.quantile(q), 0.0);
  }
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
}

TEST(QuantileSketch, SingleSampleIsEveryQuantile) {
  obs::QuantileSketch sketch;
  sketch.add(3.7);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(sketch.quantile(q), 3.7);
  }
}

TEST(QuantileSketch, DuplicateHeavyInputResolvesToTheDuplicate) {
  // 990 copies of one value plus a few outliers, all inside the default
  // comb's resolved span (min_edge * growth^buckets): every interior
  // quantile must land in the duplicated value's bucket, i.e. within the
  // comb's 5% relative error, and the extreme quantiles must stay pinned to
  // the buckets of the observed min and max.
  obs::QuantileSketch sketch;
  for (int i = 0; i < 990; ++i) sketch.add(0.1);
  for (int i = 0; i < 5; ++i) sketch.add(0.002);
  for (int i = 0; i < 5; ++i) sketch.add(0.4);
  EXPECT_NEAR(sketch.quantile(0.0), 0.002, 0.002 * 0.06);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 0.4);  // bucket_hi clamps to max.
  for (const double q : {0.05, 0.5, 0.95}) {
    EXPECT_NEAR(sketch.quantile(q), 0.1, 0.1 * 0.06);
  }
}

TEST(Histogram, ExponentialEdgesGrowGeometrically) {
  const obs::Histogram h = obs::Histogram::exponential(1.0, 2.0, 4);
  ASSERT_EQ(h.upper_edges().size(), 4u);
  EXPECT_DOUBLE_EQ(h.upper_edges()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.upper_edges()[1], 2.0);
  EXPECT_DOUBLE_EQ(h.upper_edges()[2], 4.0);
  EXPECT_DOUBLE_EQ(h.upper_edges()[3], 8.0);
}

TEST(EngineProbe, PartitionsWorkerTime) {
  obs::EngineProbe probe(1);
  probe.compute_begin(0, 1.0);   // idle [0, 1)
  probe.compute_end(0, 3.0);     // compute [1, 3)
  probe.compute_begin(0, 4.0);   // idle [3, 4)
  probe.compute_abort(0, 5.0);   // aborted [4, 5)
  probe.worker_down(0, 6.0);     // idle [5, 6)
  probe.worker_up(0, 8.0);       // down [6, 8)
  const std::vector<obs::WorkerSpans> spans = probe.finish(10.0);  // idle [8, 10)
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_NEAR(spans[0].compute_time, 2.0, 1e-12);
  EXPECT_NEAR(spans[0].aborted_time, 1.0, 1e-12);
  EXPECT_NEAR(spans[0].down_time, 2.0, 1e-12);
  EXPECT_NEAR(spans[0].idle_time, 5.0, 1e-12);
  EXPECT_NEAR(spans[0].compute_time + spans[0].aborted_time + spans[0].idle_time +
                  spans[0].down_time,
              10.0, 1e-12);
}

TEST(EngineProbe, AccountsUplinkOccupancyAndBlocking) {
  obs::EngineProbe probe(1);
  probe.uplink_channels(1, 2.0);  // idle [0, 2)
  probe.uplink_channels(2, 3.0);  // busy [2, 3)
  probe.uplink_channels(1, 5.0);  // busy [3, 5)
  probe.uplink_channels(0, 6.0);  // busy [5, 6)
  probe.block_begin(2.5);
  probe.block_end(3.5);
  (void)probe.finish(8.0);  // idle [6, 8)
  EXPECT_NEAR(probe.uplink_busy_time(), 4.0, 1e-12);
  EXPECT_NEAR(probe.uplink_idle_time(), 4.0, 1e-12);
  EXPECT_NEAR(probe.hol_blocking_time(), 1.0, 1e-12);
}

// The audited identities on real runs: the engine-side bookkeeping must tile
// the makespan exactly, whatever the scenario throws at it.
void expect_identities(const sim::SimResult& result) {
  const obs::RunMetrics& m = result.metrics;
  EXPECT_DOUBLE_EQ(m.makespan, result.makespan);
  EXPECT_NEAR(m.engine.uplink_busy_time + m.engine.uplink_idle_time, m.makespan, 1e-9);
  ASSERT_EQ(m.engine.workers.size(), result.workers.size());
  for (const obs::WorkerSpans& w : m.engine.workers) {
    EXPECT_NEAR(w.compute_time + w.aborted_time + w.idle_time + w.down_time, m.makespan, 1e-9);
  }
  EXPECT_EQ(m.des.events_scheduled, m.des.events_executed + m.des.events_cancelled);
  EXPECT_EQ(m.des.events_executed, result.events);
  EXPECT_GE(m.des.queue_depth_high_water, 1u);
  EXPECT_EQ(m.engine.chunk_sizes.total(), m.engine.dispatches);
}

TEST(RunMetricsIdentities, HoldOnPerfectUmrRun) {
  const platform::StarPlatform p = test_platform();
  core::UmrPolicy policy(p, 500.0);
  const sim::SimResult result = sim::simulate(p, policy, sim::SimOptions{});
  expect_identities(result);
  // Perfect predictions on a single channel: no blocking, no faults.
  EXPECT_DOUBLE_EQ(result.metrics.engine.hol_blocking_time, 0.0);
  EXPECT_EQ(result.metrics.faults.failures, 0u);
  EXPECT_NEAR(result.metrics.engine.uplink_busy_time, result.metrics.engine.uplink_transfer_time,
              1e-9);
  EXPECT_GT(result.metrics.engine.uplink_utilization, 0.0);
  EXPECT_LE(result.metrics.engine.uplink_utilization, 1.0);
}

TEST(RunMetricsIdentities, HoldUnderErrorAndTightBuffers) {
  const platform::StarPlatform p = test_platform();
  core::UmrPolicy policy(p, 500.0);
  sim::SimOptions options = sim::SimOptions::with_error(0.5, 77);
  options.worker_buffer_capacity = 1;
  const sim::SimResult result = sim::simulate(p, policy, options);
  expect_identities(result);
}

TEST(RunMetricsIdentities, HoldWithMultipleUplinkChannels) {
  const platform::StarPlatform p = test_platform();
  core::UmrPolicy policy(p, 500.0);
  sim::SimOptions options = sim::SimOptions::with_error(0.3, 5);
  options.uplink_channels = 2;
  const sim::SimResult result = sim::simulate(p, policy, options);
  expect_identities(result);
  // With overlap, per-transfer totals can exceed occupancy time.
  EXPECT_GE(result.metrics.engine.uplink_transfer_time,
            result.metrics.engine.uplink_busy_time - 1e-9);
}

TEST(RunMetricsIdentities, HoldUnderFaults) {
  const platform::StarPlatform p = test_platform();
  core::RumrPolicy policy(p, 500.0, core::RumrOptions{.known_error = 0.2});
  sim::SimOptions options = sim::SimOptions::with_error(0.2, 99);
  options.faults = faults::FaultSpec::transient(300.0, 30.0);
  const sim::SimResult result = sim::simulate(p, policy, options);
  expect_identities(result);
  EXPECT_EQ(result.metrics.faults.failures, result.faults.failures);
  EXPECT_EQ(result.metrics.faults.chunks_redispatched, result.faults.chunks_redispatched);
  EXPECT_LE(result.metrics.faults.false_suspicions, result.metrics.faults.fencings);
}

TEST(RunMetricsExport, JsonContainsStableKeysAndBalancedBraces) {
  const platform::StarPlatform p = test_platform();
  core::UmrPolicy policy(p, 500.0);
  const sim::SimResult result = sim::simulate(p, policy, sim::SimOptions{});
  const std::string json = obs::to_json(result.metrics);
  EXPECT_NE(json.find("\"makespan\""), std::string::npos);
  EXPECT_NE(json.find("\"uplink_busy_time\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth_high_water\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(RunMetricsExport, CsvHasHeaderAndPerWorkerRows) {
  const platform::StarPlatform p = test_platform(3);
  core::UmrPolicy policy(p, 300.0);
  const sim::SimResult result = sim::simulate(p, policy, sim::SimOptions{});
  const std::string csv = obs::to_csv(result.metrics);
  EXPECT_NE(csv.find("metric,value"), std::string::npos);
  EXPECT_NE(csv.find("makespan,"), std::string::npos);
  EXPECT_NE(csv.find("worker0."), std::string::npos);
  EXPECT_NE(csv.find("worker2."), std::string::npos);
}

TEST(SimOptionsValidate, AcceptsDefaultsAndFlagsNonsense) {
  EXPECT_TRUE(sim::SimOptions{}.validate().empty());
  sim::SimOptions bad;
  bad.worker_buffer_capacity = 0;
  bad.uplink_channels = 0;
  bad.output_ratio = -0.5;
  const std::vector<std::string> errors = bad.validate();
  EXPECT_GE(errors.size(), 3u);
}

}  // namespace
}  // namespace rumr
