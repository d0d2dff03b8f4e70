/// \file test_sweep_sharded.cpp
/// The sharded streaming sweep engine's determinism contract: byte-identical
/// results for any thread count, shard-order independence at 1e-9, exactly-
/// once cell emission, seed-lane separation, and the mergeable-accumulator
/// algebra (associativity/commutativity) everything above rests on.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "check/merge_audit.hpp"
#include "jobs/job_stream.hpp"
#include "obs/accumulators.hpp"
#include "obs/metrics.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "sweep/scheduler_factory.hpp"

namespace {

using namespace rumr;

std::vector<sweep::SweepPlatform> tiny_platforms() {
  return {sweep::SweepPlatform::from_config({10, 1.5, 0.1, 0.05}),
          sweep::SweepPlatform::from_config({4, 2.0, 0.3, 0.1})};
}

std::vector<sweep::AlgorithmSpec> tiny_lineup() {
  return {sweep::rumr_spec(), sweep::umr_spec(), sweep::factoring_spec()};
}

sweep::SweepOptions tiny_options() {
  sweep::SweepOptions options;
  options.errors = {0.0, 0.3};
  options.repetitions = 8;
  options.rep_block = 2;  // 4 shards per site.
  options.w_total = 200.0;
  return options;
}

/// Collects a streamed sweep into an index-keyed map (emission order across
/// sites is unspecified, so tests key by indices rather than arrival order).
using CellKey = std::tuple<std::size_t, std::size_t, std::size_t>;

std::map<CellKey, sweep::SweepCell> collect(const std::vector<sweep::SweepPlatform>& platforms,
                                            const std::vector<sweep::AlgorithmSpec>& algorithms,
                                            const sweep::SweepOptions& options) {
  std::map<CellKey, sweep::SweepCell> cells;
  sweep::run_sweep_streaming(platforms, algorithms, options, [&](const sweep::SweepCell& cell) {
    cells[{cell.platform_index, cell.error_index, cell.algorithm_index}] = cell;
  });
  return cells;
}

/// Exact (bitwise-value) equality of two cells — the byte-identity claim.
void expect_cells_identical(const sweep::CellStats& a, const sweep::CellStats& b) {
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.ref_wins, b.ref_wins);
  EXPECT_EQ(a.ref_wins_by_10pct, b.ref_wins_by_10pct);
  EXPECT_EQ(a.makespan.count(), b.makespan.count());
  EXPECT_EQ(a.makespan.mean(), b.makespan.mean());
  EXPECT_EQ(a.makespan.variance(), b.makespan.variance());
  EXPECT_EQ(a.makespan.min(), b.makespan.min());
  EXPECT_EQ(a.makespan.max(), b.makespan.max());
  EXPECT_EQ(a.uplink_utilization.mean(), b.uplink_utilization.mean());
  EXPECT_EQ(a.worker_utilization.variance(), b.worker_utilization.variance());
  EXPECT_EQ(a.events.sum(), b.events.sum());
  EXPECT_EQ(a.hol_blocking_time.mean(), b.hol_blocking_time.mean());
  EXPECT_EQ(a.work_redispatched.mean(), b.work_redispatched.mean());
  EXPECT_EQ(a.makespan_quantiles.bucket_counts(), b.makespan_quantiles.bucket_counts());
  EXPECT_EQ(a.makespan_quantiles.sum(), b.makespan_quantiles.sum());
}

TEST(ShardedSweep, ByteIdenticalAcrossThreadCounts) {
  const auto platforms = tiny_platforms();
  const auto algorithms = tiny_lineup();
  sweep::SweepOptions options = tiny_options();

  options.threads = 1;
  const auto serial = collect(platforms, algorithms, options);
  ASSERT_EQ(serial.size(), platforms.size() * options.errors.size() * algorithms.size());

  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{8}}) {
    options.threads = threads;
    const auto parallel = collect(platforms, algorithms, options);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (const auto& [key, cell] : serial) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " cell=" + cell.platform_label + "/" +
                   cell.algorithm);
      expect_cells_identical(parallel.at(key).stats, cell.stats);
    }
  }
}

TEST(ShardedSweep, RepBlockVariantsAgreeWithinMergeTolerance) {
  // Different rep_block values build different merge trees, so the results
  // are NOT byte-identical — but audit_cell_merge pins them within 1e-9.
  const auto platforms = tiny_platforms();
  const auto algorithms = tiny_lineup();
  sweep::SweepOptions options = tiny_options();

  options.rep_block = options.repetitions;  // One shard: the serial reference.
  const auto serial = collect(platforms, algorithms, options);

  for (const std::size_t block : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    options.rep_block = block;
    const auto sharded = collect(platforms, algorithms, options);
    check::AuditReport report;
    for (const auto& [key, cell] : serial) {
      sweep::audit_cell_merge("rep_block=" + std::to_string(block), sharded.at(key).stats,
                              cell.stats, report);
    }
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(ShardedSweep, StreamsEveryCellExactlyOnce) {
  const auto platforms = tiny_platforms();
  const auto algorithms = tiny_lineup();
  sweep::SweepOptions options = tiny_options();
  options.threads = 4;

  std::map<CellKey, int> seen;
  sweep::run_sweep_streaming(platforms, algorithms, options,
                             [&](const sweep::SweepCell& cell) {
                               ++seen[{cell.platform_index, cell.error_index,
                                       cell.algorithm_index}];
                               EXPECT_EQ(cell.stats.reps, options.repetitions);
                             });
  EXPECT_EQ(seen.size(), platforms.size() * options.errors.size() * algorithms.size());
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1);
}

TEST(ShardedSweep, ShardsPerSiteIsThreadIndependent) {
  // Auto mode: up to 8 shards regardless of anything else.
  EXPECT_EQ(sweep::shards_per_site(40, 0), 8u);
  EXPECT_EQ(sweep::shards_per_site(8, 0), 8u);
  EXPECT_EQ(sweep::shards_per_site(3, 0), 3u);
  EXPECT_EQ(sweep::shards_per_site(1, 0), 1u);
  // Explicit blocks: ceil(reps / block), clamped.
  EXPECT_EQ(sweep::shards_per_site(8, 2), 4u);
  EXPECT_EQ(sweep::shards_per_site(7, 2), 4u);
  EXPECT_EQ(sweep::shards_per_site(8, 100), 1u);
}

TEST(ShardedSweep, DeriveRepSeedSeparatesLanes) {
  const std::uint64_t base = 0x5eed5eed5eedULL;
  const std::uint64_t s = sweep::derive_rep_seed(base, "N=10 B=1.5", 0.3, 2);
  EXPECT_EQ(s, sweep::derive_rep_seed(base, "N=10 B=1.5", 0.3, 2));  // Deterministic.
  EXPECT_NE(s, sweep::derive_rep_seed(base, "N=10 B=1.5", 0.3, 3));  // Rep lane.
  EXPECT_NE(s, sweep::derive_rep_seed(base, "N=10 B=1.5", 0.4, 2));  // Axis lane.
  EXPECT_NE(s, sweep::derive_rep_seed(base, "N=10 B=2.0", 0.3, 2));  // Platform lane.
  EXPECT_NE(s, sweep::derive_rep_seed(base + 1, "N=10 B=1.5", 0.3, 2));
  // The axis value is quantized to its Table 1 lattice (1e-3), so FP noise
  // in axis generation cannot shift the seed.
  EXPECT_EQ(s, sweep::derive_rep_seed(base, "N=10 B=1.5", 0.3 + 1e-9, 2));
}

TEST(ShardedSweep, ValidateListsEveryProblemAtOnce) {
  sweep::SweepOptions options;
  options.errors = {};
  options.repetitions = 0;
  options.w_total = -1.0;
  const std::vector<std::string> problems = options.validate();
  EXPECT_EQ(problems.size(), 3u);
}

// --- open-system sweeps ------------------------------------------------------

jobs::JobsOptions tiny_jobs_base() {
  jobs::JobsOptions base;
  base.stream = jobs::JobStreamSpec::poisson(1.0, 6, 120.0);
  base.stream.size_dist = jobs::SizeDistribution::kUniform;
  base.stream.size_spread = 0.3;
  base.known_error = 0.2;
  base.sim = sim::SimOptions::with_error(0.2, 1);
  return base;
}

sweep::JobsSweepOptions tiny_jobs_options() {
  sweep::JobsSweepOptions options;
  options.loads = {0.4, 0.8};
  options.repetitions = 4;
  options.rep_block = 2;
  options.base = tiny_jobs_base();
  return options;
}

void expect_jobs_cells_identical(const sweep::JobsCellStats& a, const sweep::JobsCellStats& b) {
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.manager_events, b.manager_events);
  EXPECT_EQ(a.oracle_runs, b.oracle_runs);
  EXPECT_EQ(a.oracle_events, b.oracle_events);
  EXPECT_EQ(a.reps, b.reps);
  EXPECT_EQ(a.mean_response.mean(), b.mean_response.mean());
  EXPECT_EQ(a.mean_slowdown.variance(), b.mean_slowdown.variance());
  EXPECT_EQ(a.utilization.mean(), b.utilization.mean());
  EXPECT_EQ(a.horizon.sum(), b.horizon.sum());
  EXPECT_EQ(a.response_times.bucket_counts(), b.response_times.bucket_counts());
  EXPECT_EQ(a.slowdowns.bucket_counts(), b.slowdowns.bucket_counts());
}

TEST(JobsSweep, ByteIdenticalAcrossThreadCounts) {
  const std::vector<sweep::SweepPlatform> platforms = {
      sweep::SweepPlatform::from_config({10, 1.5, 0.1, 0.05})};
  sweep::JobsSweepOptions options = tiny_jobs_options();

  std::map<CellKey, sweep::JobsSweepCell> serial;
  options.threads = 1;
  sweep::run_jobs_sweep(platforms, options, [&](const sweep::JobsSweepCell& cell) {
    serial[{cell.platform_index, cell.load_index, 0}] = cell;
  });
  ASSERT_EQ(serial.size(), options.loads.size());

  options.threads = 8;
  std::map<CellKey, sweep::JobsSweepCell> parallel;
  sweep::run_jobs_sweep(platforms, options, [&](const sweep::JobsSweepCell& cell) {
    parallel[{cell.platform_index, cell.load_index, 0}] = cell;
  });
  ASSERT_EQ(parallel.size(), serial.size());
  for (const auto& [key, cell] : serial) {
    SCOPED_TRACE("load=" + std::to_string(cell.load));
    expect_jobs_cells_identical(parallel.at(key).stats, cell.stats);
  }
}

TEST(JobsSweep, StreamingModeMatchesRetainedAggregates) {
  // retain_jobs = false drops per-job records as they depart; every
  // aggregate the sweep folds must be unaffected.
  const std::vector<sweep::SweepPlatform> platforms = {
      sweep::SweepPlatform::from_config({10, 1.5, 0.1, 0.05})};
  sweep::JobsSweepOptions options = tiny_jobs_options();
  options.threads = 1;

  std::map<CellKey, sweep::JobsSweepCell> retained;
  options.base.retain_jobs = true;
  sweep::run_jobs_sweep(platforms, options, [&](const sweep::JobsSweepCell& cell) {
    retained[{cell.platform_index, cell.load_index, 0}] = cell;
  });

  // Streamed at any width, too.
  options.base.retain_jobs = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    options.threads = threads;
    std::map<CellKey, sweep::JobsSweepCell> streamed;
    sweep::run_jobs_sweep(platforms, options, [&](const sweep::JobsSweepCell& cell) {
      streamed[{cell.platform_index, cell.load_index, 0}] = cell;
    });

    ASSERT_EQ(streamed.size(), retained.size());
    for (const auto& [key, cell] : retained) {
      expect_jobs_cells_identical(streamed.at(key).stats, cell.stats);
    }
  }
}

TEST(JobsSweep, ValidateCatchesBadAxisAndStream) {
  sweep::JobsSweepOptions options = tiny_jobs_options();
  options.loads = {0.5, -0.1};
  options.repetitions = 0;
  const std::vector<std::string> problems = options.validate();
  EXPECT_GE(problems.size(), 2u);
}

// --- the accumulator algebra the engine rests on -----------------------------

std::vector<double> sample_data() {
  std::vector<double> xs;
  double v = 0.37;
  for (int i = 0; i < 200; ++i) {
    v = v * 1.07 + 0.11;
    if (v > 50.0) v *= 0.013;
    xs.push_back(v);
  }
  return xs;
}

TEST(MergeAlgebra, AccumulatorMergeMatchesSerialAtEverySplit) {
  const std::vector<double> xs = sample_data();
  stats::Accumulator serial;
  for (double x : xs) serial.add(x);

  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{97}, xs.size()}) {
    stats::Accumulator left;
    stats::Accumulator right;
    for (std::size_t i = 0; i < xs.size(); ++i) (i < split ? left : right).add(xs[i]);
    left.merge(right);
    check::AuditReport report;
    check::audit_accumulator_merge("split=" + std::to_string(split), left, serial, report);
    EXPECT_TRUE(report.ok()) << report.summary();
  }
}

TEST(MergeAlgebra, AccumulatorMergeIsCommutativeWithinTolerance) {
  const std::vector<double> xs = sample_data();
  stats::Accumulator a;
  stats::Accumulator b;
  for (std::size_t i = 0; i < xs.size(); ++i) (i % 2 == 0 ? a : b).add(xs[i]);
  stats::Accumulator ab = a;
  ab.merge(b);
  stats::Accumulator ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-9 * ab.mean());
  EXPECT_NEAR(ab.variance(), ba.variance(), 1e-9 * (1.0 + ab.variance()));
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
}

TEST(MergeAlgebra, QuantileSketchMergeIsExactOnCountsAndAssociative) {
  const std::vector<double> xs = sample_data();
  obs::QuantileSketch serial;
  obs::QuantileSketch a;
  obs::QuantileSketch b;
  obs::QuantileSketch c;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    serial.add(xs[i]);
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(xs[i]);
  }

  obs::QuantileSketch left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  obs::QuantileSketch right = b;  // a + (b + c)
  right.merge(c);
  obs::QuantileSketch right_total = a;
  right_total.merge(right);

  EXPECT_EQ(left.bucket_counts(), serial.bucket_counts());
  EXPECT_EQ(left.bucket_counts(), right_total.bucket_counts());
  EXPECT_EQ(left.count(), serial.count());
  EXPECT_EQ(left.min(), serial.min());
  EXPECT_EQ(left.max(), serial.max());
  EXPECT_NEAR(left.sum(), serial.sum(), 1e-9 * serial.sum());
  // Quantiles resolve from integer bucket state, so they agree exactly.
  EXPECT_EQ(left.quantile(0.5), right_total.quantile(0.5));
}

TEST(MergeAlgebra, HistogramMergeIsExactlyAssociative) {
  const std::vector<double> xs = sample_data();
  const auto make = [] { return obs::Histogram::exponential(0.5, 2.0, 12); };
  obs::Histogram serial = make();
  obs::Histogram a = make();
  obs::Histogram b = make();
  obs::Histogram c = make();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    serial.add(xs[i]);
    (i % 3 == 0 ? a : (i % 3 == 1 ? b : c)).add(xs[i]);
  }
  obs::Histogram left = a;
  left.merge(b);
  left.merge(c);
  obs::Histogram bc = b;
  bc.merge(c);
  obs::Histogram right = a;
  right.merge(bc);
  EXPECT_EQ(left.bucket_counts(), serial.bucket_counts());
  EXPECT_EQ(left.bucket_counts(), right.bucket_counts());
  EXPECT_EQ(left.total(), right.total());
  check::AuditReport report;
  check::audit_histogram_merge("assoc", left, serial, report);
  check::audit_histogram_merge("assoc-right", right, serial, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(MergeAlgebra, CounterMergeIsCommutative) {
  obs::Counter a;
  obs::Counter b;
  a.increment(3);
  b.increment(39);
  obs::Counter ab = a;
  ab.merge(b);
  obs::Counter ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.value(), 42u);
  EXPECT_EQ(ab.value(), ba.value());
}

TEST(MergeAlgebra, EmptyAccumulatorIsMergeIdentity) {
  const std::vector<double> xs = sample_data();
  stats::Accumulator filled;
  for (double x : xs) filled.add(x);
  stats::Accumulator left = filled;
  left.merge(stats::Accumulator{});
  stats::Accumulator right;
  right.merge(filled);
  EXPECT_EQ(left.count(), filled.count());
  EXPECT_EQ(left.mean(), filled.mean());
  EXPECT_EQ(left.variance(), filled.variance());
  EXPECT_EQ(right.count(), filled.count());
  EXPECT_EQ(right.mean(), filled.mean());
  EXPECT_EQ(right.variance(), filled.variance());

  obs::QuantileSketch sketch_filled;
  for (double x : xs) sketch_filled.add(x);
  obs::QuantileSketch sketch_empty;
  sketch_empty.merge(sketch_filled);
  EXPECT_EQ(sketch_empty.bucket_counts(), sketch_filled.bucket_counts());
  EXPECT_EQ(sketch_empty.min(), sketch_filled.min());
}

}  // namespace
