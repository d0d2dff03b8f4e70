// Tests for the public API facade (api/rumr.hpp): the Run builder, its
// execution paths, self-auditing, and file loading.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "api/rumr.hpp"
#include "check/service_audit.hpp"

namespace rumr {
namespace {

platform::StarPlatform small_platform() {
  platform::HomogeneousParams params;
  params.workers = 4;
  params.speed = 1.0;
  params.bandwidth = 15.0;
  params.comp_latency = 0.2;
  params.comm_latency = 0.1;
  return platform::StarPlatform::homogeneous(params);
}

TEST(RunBuilder, SettersRoundTripIntoDescription) {
  rumr::Run run = rumr::Run()
                .platform(small_platform())
                .workload(250.0)
                .algorithm("umr-eager")
                .known_error(0.25)
                .error(0.3)
                .seed(123)
                .repetitions(7);
  const config::RunDescription& desc = run.description();
  EXPECT_EQ(desc.platform.size(), 4u);
  EXPECT_DOUBLE_EQ(desc.w_total, 250.0);
  EXPECT_EQ(desc.algorithm, "umr-eager");
  EXPECT_DOUBLE_EQ(desc.known_error, 0.25);
  EXPECT_EQ(desc.sim_options.seed, 123u);
  EXPECT_EQ(desc.repetitions, 7u);
}

TEST(RunBuilder, FaultAndLinkSettersRoundTripAndExecuteAudited) {
  rumr::Run run = rumr::Run()
                      .platform(small_platform())
                      .workload(200.0)
                      .algorithm("factoring")
                      .link_faults(faults::LinkFaultSpec::lossy(0.05))
                      .retransmit()
                      .checkpoint_interval(0.5)
                      .seed(7);
  const sim::SimOptions& o = run.description().sim_options;
  EXPECT_DOUBLE_EQ(o.link.loss, 0.05);
  EXPECT_TRUE(o.retransmit.enabled);
  EXPECT_DOUBLE_EQ(o.checkpoint.interval, 0.5);

  // A faulty run executes through the facade and passes its self-audit
  // (execute() raises check::CheckError on any violation).
  const RunResult result = run.execute();
  EXPECT_GT(result.makespan, 0.0);
  double computed = 0.0;
  for (const auto& w : result.sim.workers) computed += w.work;
  EXPECT_NEAR(computed + result.sim.faults.work_banked, 200.0, 1e-6);
}

TEST(RunBuilder, DefaultConstructedRunExecutes) {
  // The default description must be a valid, audited run out of the box.
  rumr::Run run = rumr::Run().workload(200.0);
  const RunResult result = run.execute();
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_DOUBLE_EQ(result.metrics.makespan, result.makespan);
}

TEST(RunExecute, ProducesAuditedMetricsAndOptionalTrace) {
  rumr::Run run =
      rumr::Run().platform(small_platform()).workload(300.0).algorithm("rumr").known_error(0.2).error(
          0.2);
  const RunResult untraced = run.execute();
  EXPECT_TRUE(untraced.trace.spans().empty());
  EXPECT_FALSE(untraced.metrics.engine.workers.empty());
  EXPECT_NEAR(untraced.metrics.engine.uplink_busy_time + untraced.metrics.engine.uplink_idle_time,
              untraced.makespan, 1e-9);

  const RunResult traced = run.record_trace().execute();
  EXPECT_FALSE(traced.trace.spans().empty());
  EXPECT_DOUBLE_EQ(traced.makespan, untraced.makespan);
}

TEST(RunExecute, IsDeterministicAtFixedSeed) {
  rumr::Run run = rumr::Run().platform(small_platform()).workload(300.0).error(0.4).seed(9);
  const RunResult a = run.execute();
  const RunResult b = run.execute();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.metrics.des.events_executed, b.metrics.des.events_executed);
  EXPECT_EQ(a.metrics.engine.dispatches, b.metrics.engine.dispatches);
}

TEST(RunExecuteAll, DerivesDistinctSeedsPerRepetition) {
  rumr::Run run = rumr::Run().platform(small_platform()).workload(300.0).error(0.4).seed(9).repetitions(3);
  const std::vector<RunResult> results = run.execute_all();
  ASSERT_EQ(results.size(), 3u);
  // Independent error draws: at least two repetitions should differ.
  EXPECT_TRUE(results[0].makespan != results[1].makespan ||
              results[1].makespan != results[2].makespan);
}

TEST(RunExecuteAll, TracesOnlyLastRepetition) {
  rumr::Run run =
      rumr::Run().platform(small_platform()).workload(300.0).error(0.2).repetitions(3).record_trace();
  const std::vector<RunResult> results = run.execute_all();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].trace.spans().empty());
  EXPECT_TRUE(results[1].trace.spans().empty());
  EXPECT_FALSE(results[2].trace.spans().empty());
}

TEST(RunExecute, InvalidOptionsThrowSimError) {
  rumr::Run run = rumr::Run().platform(small_platform()).workload(300.0);
  run.description().sim_options.worker_buffer_capacity = 0;
  EXPECT_THROW((void)run.execute(), sim::SimError);
}

TEST(RunExecute, UnknownAlgorithmThrowsConfigError) {
  rumr::Run run = rumr::Run().platform(small_platform()).workload(300.0).algorithm("definitely-not-real");
  EXPECT_THROW((void)run.execute(), config::ConfigError);
}

TEST(RunFromFile, LoadsDescriptionAndExecutes) {
  const std::string path = ::testing::TempDir() + "api_facade_test.rumr";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "[platform]\n"
           "workers = 4\n"
           "bandwidth = 15\n"
           "comp_latency = 0.2\n"
           "comm_latency = 0.1\n"
           "\n"
           "[workload]\n"
           "total = 300\n"
           "\n"
           "[schedule]\n"
           "algorithm = rumr\n"
           "error = 0.2\n"
           "\n"
           "[simulation]\n"
           "error = 0.2\n"
           "seed = 42\n"
           "repetitions = 2\n";
  }
  rumr::Run run = rumr::Run::from_file(path);
  EXPECT_EQ(run.description().algorithm, "rumr");
  EXPECT_EQ(run.description().repetitions, 2u);
  const std::vector<RunResult> results = run.execute_all();
  EXPECT_EQ(results.size(), 2u);
  std::remove(path.c_str());
}

TEST(RunFromFile, MissingFileThrows) {
  EXPECT_THROW((void)rumr::Run::from_file("/nonexistent/nowhere.rumr"), config::ConfigError);
}

TEST(JobsRunFacade, BuildsExecutesAndSelfAudits) {
  const jobs::ServiceResult result = rumr::Run()
                                         .platform(small_platform())
                                         .algorithm("rumr")
                                         .known_error(0.2)
                                         .error(0.2)
                                         .seed(7)
                                         .jobs()
                                         .poisson_load(0.6, 20, 150.0)
                                         .sharing(jobs::SharingPolicy::kFractional)
                                         .execute();
  EXPECT_EQ(result.arrived, 20u);
  EXPECT_EQ(result.completed, 20u);
  EXPECT_GE(result.mean_slowdown(), 1.0);
  // Run::jobs() carried the per-job scheduler settings over.
  EXPECT_NEAR(result.offered_load, 0.6, 0.4);  // Realized load tracks the target.
}

TEST(JobsRunFacade, FaultStackFlowsThroughRunJobsAndPassesServiceAudit) {
  // The whole fault stack configured on a Run — worker crashes, link loss,
  // retransmit protocol, partial-work checkpointing — must survive the
  // Run::jobs() handoff into the open-system engine, and a faulty multi-job
  // run must still satisfy every service identity.
  rumr::Run base = rumr::Run()
                       .platform(small_platform())
                       .algorithm("rumr")
                       .known_error(0.2)
                       .error(0.2)
                       .faults(faults::FaultSpec::transient(200.0, 20.0))
                       .link_faults(faults::LinkFaultSpec::lossy(0.05))
                       .retransmit()
                       .checkpoint_interval(0.5)
                       .seed(21);
  rumr::JobsRun jobs_run = base.jobs();
  EXPECT_DOUBLE_EQ(jobs_run.options().sim.link.loss, 0.05);
  EXPECT_DOUBLE_EQ(jobs_run.options().sim.faults.mtbf, 200.0);
  EXPECT_TRUE(jobs_run.options().sim.retransmit.enabled);
  EXPECT_DOUBLE_EQ(jobs_run.options().sim.checkpoint.interval, 0.5);

  const jobs::ServiceResult result = jobs_run.poisson_load(0.5, 10, 100.0)
                                         .sharing(jobs::SharingPolicy::kFractional)
                                         .execute();
  EXPECT_EQ(result.arrived, 10u);
  EXPECT_EQ(result.completed, 10u);
  const check::AuditReport report =
      check::audit_service_result(result, small_platform(), jobs_run.options());
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(JobsRunFacade, InvalidOptionsThrowAtExecute) {
  rumr::JobsRun run;
  run.algorithm("definitely-not-real");
  EXPECT_THROW((void)run.execute(), std::invalid_argument);
}

TEST(JobsRunFacade, FromFileLoadsTheJobsSchema) {
  const std::string path = ::testing::TempDir() + "api_jobs_test.rumr";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "[platform]\n"
           "workers = 4\n"
           "bandwidth = 15\n"
           "\n"
           "[schedule]\n"
           "algorithm = factoring\n"
           "\n"
           "[simulation]\n"
           "seed = 5\n"
           "\n"
           "[jobs]\n"
           "load = 0.5\n"
           "jobs = 8\n"
           "mean_size = 120\n"
           "sharing = partitioned\n"
           "partitions = 2\n";
  }
  rumr::JobsRun run = rumr::JobsRun::from_file(path);
  EXPECT_EQ(run.options().algorithm, "factoring");
  EXPECT_EQ(run.options().sharing, jobs::SharingPolicy::kPartitioned);
  const jobs::ServiceResult result = run.execute();
  EXPECT_EQ(result.completed, 8u);
  std::remove(path.c_str());
}

// --- rumr::Sweep -------------------------------------------------------------

/// True when some problem string mentions `needle`.
bool mentions(const std::vector<std::string>& problems, const std::string& needle) {
  for (const std::string& p : problems) {
    if (p.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(SweepFacade, ValidateListsEveryProblemIncludingCrossFieldConflicts) {
  rumr::Sweep sweep;  // No platforms yet.
  sweep.policies(std::vector<std::string>{"rumr", "not-a-policy"})
      .reps(2)
      .rep_block(5)     // Larger than reps: shards cannot exceed a cell.
      .threads(64)      // Far more threads than shards.
      .buffer(false);   // ...and no on_cell consumer.
  const std::vector<std::string> problems = sweep.validate();
  EXPECT_TRUE(mentions(problems, "platform axis is empty")) << problems.size();
  EXPECT_TRUE(mentions(problems, "not-a-policy"));
  EXPECT_TRUE(mentions(problems, "buffering is disabled"));
  EXPECT_TRUE(mentions(problems, "shards cannot be larger"));
}

TEST(SweepFacade, ValidateFlagsWrongModeConsumerAndIdleThreads) {
  rumr::Sweep sweep;
  sweep.platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}})
      .errors({0.2})
      .reps(2)
      .rep_block(2)  // One shard total, so 8 threads would mostly idle.
      .threads(8)
      .on_cell(sweep::JobsCellConsumer([](const sweep::JobsSweepCell&) {}));
  const std::vector<std::string> problems = sweep.validate();
  EXPECT_TRUE(mentions(problems, "open-system on_cell consumer"));
  EXPECT_TRUE(mentions(problems, "threads"));
}

TEST(SweepFacade, ExecuteRejectsTheWrongMode) {
  rumr::Sweep closed;
  closed.platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}});
  EXPECT_THROW((void)closed.execute_jobs(), std::invalid_argument);

  rumr::Sweep open;
  jobs::JobsOptions base;
  base.stream = jobs::JobStreamSpec::poisson(1.0, 4, 100.0);
  open.platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}}).jobs(base);
  EXPECT_THROW((void)open.execute(), std::invalid_argument);
}

TEST(SweepFacade, BufferedCellsArriveSortedAndStreamToTheConsumerToo) {
  std::size_t streamed = 0;
  rumr::Sweep sweep;
  const std::vector<sweep::SweepCell> cells =
      sweep.platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}, {4, 2.0, 0.3, 0.1}})
          .errors({0.0, 0.3})
          .policies(std::vector<std::string>{"rumr", "umr"})
          .workload(150.0)
          .reps(3)
          .threads(2)
          .on_cell(sweep::CellConsumer([&](const sweep::SweepCell&) { ++streamed; }))
          .execute();
  ASSERT_EQ(cells.size(), 2u * 2u * 2u);
  EXPECT_EQ(streamed, cells.size());
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const auto key = [](const sweep::SweepCell& c) {
      return std::tuple{c.platform_index, c.error_index, c.algorithm_index};
    };
    EXPECT_LT(key(cells[i - 1]), key(cells[i]));
  }
  for (const sweep::SweepCell& cell : cells) {
    EXPECT_EQ(cell.stats.reps, 3u);
    EXPECT_GT(cell.stats.makespan.mean(), 0.0);
  }
}

TEST(SweepFacade, UnbufferedSweepStreamsEveryCellExactlyOnce) {
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>, int> seen;
  rumr::Sweep sweep;
  const std::vector<sweep::SweepCell> cells =
      sweep.platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}, {4, 2.0, 0.3, 0.1}})
          .errors({0.1, 0.4})
          .policies(std::vector<std::string>{"rumr", "umr", "factoring"})
          .workload(150.0)
          .reps(4)
          .rep_block(2)
          .threads(4)
          .buffer(false)
          .on_cell(sweep::CellConsumer([&seen](const sweep::SweepCell& cell) {
            ++seen[{cell.platform_index, cell.error_index, cell.algorithm_index}];
          }))
          .execute();
  EXPECT_TRUE(cells.empty());
  EXPECT_EQ(seen.size(), 2u * 2u * 3u);
  for (const auto& [key, count] : seen) EXPECT_EQ(count, 1);
}

TEST(SweepFacade, OpenSystemModeSweepsTheLoadAxis) {
  jobs::JobsOptions base;
  base.stream = jobs::JobStreamSpec::poisson(1.0, 5, 100.0);
  base.known_error = 0.1;
  base.sim = sim::SimOptions::with_error(0.1, 3);
  base.retain_jobs = false;  // Streaming mode end-to-end through the facade.

  rumr::Sweep sweep;
  const std::vector<sweep::JobsSweepCell> cells =
      sweep.platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}})
          .jobs(base)
          .loads({0.4, 0.7})
          .reps(2)
          .threads(2)
          .execute_jobs();
  ASSERT_EQ(cells.size(), 2u);
  for (const sweep::JobsSweepCell& cell : cells) {
    EXPECT_EQ(cell.stats.reps, 2u);
    EXPECT_EQ(cell.stats.completed, cell.stats.admitted);
    EXPECT_GT(cell.stats.horizon.mean(), 0.0);
  }
}

TEST(SweepFacade, MatchesTheRawEngineByteForByte) {
  // The facade is a description builder, not a second engine: its cells must
  // be bitwise-identical to run_sweep_streaming with the same description.
  const std::vector<sweep::PlatformConfig> configs = {{10, 1.5, 0.1, 0.05}};
  rumr::Sweep sweep;
  const std::vector<sweep::SweepCell> via_facade =
      sweep.platforms(configs)
          .errors({0.2})
          .policies(std::vector<std::string>{"rumr", "factoring"})
          .workload(200.0)
          .reps(4)
          .seed(77)
          .execute();

  sweep::SweepOptions options;
  options.errors = {0.2};
  options.repetitions = 4;
  options.w_total = 200.0;
  options.base_seed = 77;
  std::vector<sweep::SweepCell> raw;
  sweep::run_sweep_streaming(
      sweep::wrap_grid(configs),
      {sweep::rumr_spec(), sweep::factoring_spec()}, options,
      [&](const sweep::SweepCell& cell) { raw.push_back(cell); });
  std::sort(raw.begin(), raw.end(), [](const sweep::SweepCell& a, const sweep::SweepCell& b) {
    return a.algorithm_index < b.algorithm_index;
  });

  ASSERT_EQ(via_facade.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(via_facade[i].stats.makespan.mean(), raw[i].stats.makespan.mean());
    EXPECT_EQ(via_facade[i].stats.makespan.variance(), raw[i].stats.makespan.variance());
    EXPECT_EQ(via_facade[i].stats.ref_wins, raw[i].stats.ref_wins);
  }
}

}  // namespace
}  // namespace rumr
