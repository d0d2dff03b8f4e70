// Tests for the multi-job open-system engine: stream determinism, admission,
// queue disciplines, the three sharing policies, the service-identity
// auditor, and the [jobs] configuration bridge.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "check/service_audit.hpp"
#include "config/config_file.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/job_stream.hpp"
#include "jobs/jobs_config.hpp"
#include "platform/platform.hpp"
#include "report/jobs_io.hpp"
#include "util/json_lite.hpp"

namespace rumr {
namespace {

platform::StarPlatform test_platform(std::size_t workers = 10) {
  platform::HomogeneousParams params;
  params.workers = workers;
  params.bandwidth = 1.5 * static_cast<double>(workers);
  params.comp_latency = 0.1;
  params.comm_latency = 0.05;
  return platform::StarPlatform::homogeneous(params);
}

std::vector<jobs::Job> trace_jobs(std::initializer_list<std::pair<double, double>> spec) {
  std::vector<jobs::Job> out;
  for (const auto& [arrival, size] : spec) {
    jobs::Job job;
    job.arrival = arrival;
    job.size = size;
    out.push_back(job);
  }
  return out;
}

void expect_audit_clean(const jobs::ServiceResult& result,
                        const platform::StarPlatform& platform,
                        const jobs::JobsOptions& options) {
  const check::AuditReport report = check::audit_service_result(result, platform, options);
  EXPECT_TRUE(report.ok()) << report.summary();
}

// --- JobStream -------------------------------------------------------------

TEST(JobStream, PoissonReplaysByteIdentically) {
  jobs::JobStreamSpec spec = jobs::JobStreamSpec::poisson(0.05, 40, 250.0);
  spec.size_dist = jobs::SizeDistribution::kExponential;
  spec.max_weight = 4.0;
  jobs::JobStream a(spec, 99);
  jobs::JobStream b(spec, 99);
  for (std::size_t i = 0; i < 40; ++i) {
    const auto ja = a.next();
    const auto jb = b.next();
    ASSERT_TRUE(ja.has_value());
    ASSERT_TRUE(jb.has_value());
    EXPECT_EQ(ja->id, i);
    EXPECT_EQ(ja->arrival, jb->arrival);  // Bitwise: same draws, same order.
    EXPECT_EQ(ja->size, jb->size);
    EXPECT_EQ(ja->weight, jb->weight);
  }
  EXPECT_FALSE(a.next().has_value());
  EXPECT_EQ(a.emitted(), 40u);
}

TEST(JobStream, SeedsProduceDifferentArrivals) {
  const jobs::JobStreamSpec spec = jobs::JobStreamSpec::poisson(0.05, 10, 250.0);
  jobs::JobStream a(spec, 1);
  jobs::JobStream b(spec, 2);
  bool any_different = false;
  for (std::size_t i = 0; i < 10; ++i) {
    if (a.next()->arrival != b.next()->arrival) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(JobStream, ArrivalsAreMonotoneAndSizesRespectTheDistribution) {
  jobs::JobStreamSpec spec = jobs::JobStreamSpec::poisson(0.1, 100, 200.0);
  spec.size_dist = jobs::SizeDistribution::kUniform;
  spec.size_spread = 0.5;
  spec.max_weight = 3.0;
  jobs::JobStream stream(spec, 7);
  double last_arrival = 0.0;
  while (auto job = stream.next()) {
    EXPECT_GE(job->arrival, last_arrival);
    last_arrival = job->arrival;
    EXPECT_GE(job->size, 100.0);
    EXPECT_LT(job->size, 300.0);
    EXPECT_GE(job->weight, 1.0);
    EXPECT_LT(job->weight, 3.0);
  }
}

TEST(JobStream, TraceReassignsIdsInStreamOrder) {
  auto jobs_list = trace_jobs({{1.0, 100.0}, {2.0, 200.0}, {2.0, 300.0}});
  jobs_list[0].id = 17;  // Ignored: ids are stream positions.
  jobs::JobStream stream(jobs::JobStreamSpec::from_trace(jobs_list), 1);
  EXPECT_EQ(stream.length(), 3u);
  EXPECT_EQ(stream.next()->id, 0u);
  EXPECT_EQ(stream.next()->id, 1u);
  EXPECT_EQ(stream.next()->id, 2u);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(JobStream, ValidateListsEveryProblem) {
  jobs::JobStreamSpec spec;
  spec.arrival_rate = 0.0;
  spec.max_jobs = 0;
  spec.mean_size = -1.0;
  spec.size_spread = 1.5;
  spec.max_weight = 0.5;
  const std::vector<std::string> problems = spec.validate();
  EXPECT_GE(problems.size(), 5u);
  EXPECT_THROW(jobs::JobStream(spec, 1), std::invalid_argument);
}

TEST(JobStream, RateForLoadOffersTheRequestedFraction) {
  const platform::StarPlatform platform = test_platform(10);  // Aggregate speed 10.
  const double rate = jobs::JobStreamSpec::rate_for_load(platform, 0.8, 400.0);
  // rate * mean_size == load * total_speed.
  EXPECT_NEAR(rate * 400.0, 0.8 * 10.0, 1e-12);
}

// --- options validation ----------------------------------------------------

TEST(JobsOptions, ValidateCatchesBadAlgorithmAndPartitions) {
  jobs::JobsOptions options;
  options.algorithm = "quantum-annealing";
  options.sharing = jobs::SharingPolicy::kPartitioned;
  options.partitions = 99;
  const std::vector<std::string> problems = options.validate(10);
  EXPECT_EQ(problems.size(), 2u);
  EXPECT_THROW((void)jobs::run_jobs(test_platform(), options), std::invalid_argument);
}

// --- exclusive sharing -----------------------------------------------------

TEST(RunJobs, WellSeparatedJobsNeverWait) {
  const platform::StarPlatform platform = test_platform();
  jobs::JobsOptions options;
  options.stream =
      jobs::JobStreamSpec::from_trace(trace_jobs({{0.0, 300.0}, {500.0, 300.0}, {1000.0, 300.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.completed, 3u);
  for (const jobs::JobOutcome& job : result.jobs) {
    EXPECT_TRUE(job.completed);
    EXPECT_DOUBLE_EQ(job.queue_wait, 0.0);
    EXPECT_GT(job.service_time, 0.0);
    EXPECT_GE(job.slowdown, 1.0);  // Lower bound really is a lower bound.
    ASSERT_EQ(job.segments.size(), 1u);
    EXPECT_EQ(job.segments[0].num_workers, platform.size());
  }
  // Identical jobs on an idle platform get identical (deterministic) service.
  EXPECT_DOUBLE_EQ(result.jobs[0].service_time, result.jobs[1].service_time);
  expect_audit_clean(result, platform, options);
}

TEST(RunJobs, ExclusiveBackToBackJobsQueueInOrder) {
  const platform::StarPlatform platform = test_platform();
  jobs::JobsOptions options;
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 400.0}, {1.0, 400.0}, {2.0, 400.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.completed, 3u);
  EXPECT_GT(result.jobs[1].queue_wait, 0.0);
  EXPECT_GT(result.jobs[2].queue_wait, result.jobs[1].queue_wait);
  // Serial service: one job at a time holds the whole platform.
  EXPECT_LE(result.jobs[0].departure, result.jobs[1].start + 1e-9);
  EXPECT_LE(result.jobs[1].departure, result.jobs[2].start + 1e-9);
  expect_audit_clean(result, platform, options);
}

// --- queue disciplines -----------------------------------------------------

TEST(RunJobs, SjfServesTheShortWaitingJobFirst) {
  const platform::StarPlatform platform = test_platform();
  // Job 0 occupies the platform; jobs 1 (long) and 2 (short) wait.
  const auto stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 500.0}, {1.0, 800.0}, {2.0, 100.0}}));

  jobs::JobsOptions fcfs;
  fcfs.stream = stream;
  const jobs::ServiceResult in_order = jobs::run_jobs(platform, fcfs);
  EXPECT_LT(in_order.jobs[1].start, in_order.jobs[2].start);

  jobs::JobsOptions sjf = fcfs;
  sjf.discipline = jobs::QueueDiscipline::kSjf;
  const jobs::ServiceResult shortest = jobs::run_jobs(platform, sjf);
  EXPECT_LT(shortest.jobs[2].start, shortest.jobs[1].start);
  expect_audit_clean(shortest, platform, sjf);
}

TEST(RunJobs, PriorityServesTheHeavyWeightFirst) {
  const platform::StarPlatform platform = test_platform();
  auto jobs_list = trace_jobs({{0.0, 500.0}, {1.0, 300.0}, {2.0, 300.0}});
  jobs_list[1].weight = 1.0;
  jobs_list[2].weight = 5.0;  // More latency-sensitive, arrives later.
  jobs::JobsOptions options;
  options.stream = jobs::JobStreamSpec::from_trace(jobs_list);
  options.discipline = jobs::QueueDiscipline::kPriority;
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);
  EXPECT_LT(result.jobs[2].start, result.jobs[1].start);
  expect_audit_clean(result, platform, options);
}

// --- admission -------------------------------------------------------------

TEST(RunJobs, ZeroCapacityQueueRejectsWhileBusy) {
  const platform::StarPlatform platform = test_platform();
  jobs::JobsOptions options;
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 800.0}, {1.0, 100.0}, {2.0, 100.0}}));
  options.queue_capacity = 0;
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.completed, 1u);
  EXPECT_EQ(result.rejected, 2u);
  EXPECT_TRUE(result.jobs[1].rejected);
  EXPECT_TRUE(result.jobs[2].rejected);
  EXPECT_DOUBLE_EQ(result.jobs[1].departure, result.jobs[1].arrival);
  expect_audit_clean(result, platform, options);
}

TEST(RunJobs, ShedOldestDropsTheLongestWaitingJob) {
  const platform::StarPlatform platform = test_platform();
  jobs::JobsOptions options;
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 800.0}, {1.0, 100.0}, {2.0, 100.0}}));
  options.queue_capacity = 1;
  options.admission = jobs::AdmissionPolicy::kShedOldest;
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.shed, 1u);
  EXPECT_TRUE(result.jobs[1].shed);       // Queued at t=1, shed at t=2.
  EXPECT_TRUE(result.jobs[2].completed);  // Took the shed job's slot.
  EXPECT_DOUBLE_EQ(result.jobs[1].departure, 2.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].queue_wait, 1.0);
  expect_audit_clean(result, platform, options);
}

// --- partitioned sharing ---------------------------------------------------

TEST(RunJobs, PartitionsServeJobsConcurrentlyOnDisjointShares) {
  const platform::StarPlatform platform = test_platform(10);
  jobs::JobsOptions options;
  options.sharing = jobs::SharingPolicy::kPartitioned;
  options.partitions = 2;
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 300.0}, {0.0, 300.0}, {1.0, 300.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.completed, 3u);
  // The first two start immediately on different halves.
  EXPECT_DOUBLE_EQ(result.jobs[0].start, 0.0);
  EXPECT_DOUBLE_EQ(result.jobs[1].start, 0.0);
  ASSERT_EQ(result.jobs[0].segments.size(), 1u);
  ASSERT_EQ(result.jobs[1].segments.size(), 1u);
  EXPECT_EQ(result.jobs[0].segments[0].num_workers, 5u);
  EXPECT_EQ(result.jobs[1].segments[0].num_workers, 5u);
  EXPECT_NE(result.jobs[0].segments[0].first_worker, result.jobs[1].segments[0].first_worker);
  expect_audit_clean(result, platform, options);
}

TEST(RunJobs, UnevenPartitionCountsCoverEveryWorker) {
  const platform::StarPlatform platform = test_platform(10);
  jobs::JobsOptions options;
  options.sharing = jobs::SharingPolicy::kPartitioned;
  options.partitions = 3;  // Blocks of 4, 3, 3.
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 200.0}, {0.0, 200.0}, {0.0, 200.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);
  std::size_t covered = 0;
  for (const jobs::JobOutcome& job : result.jobs) covered += job.segments.at(0).num_workers;
  EXPECT_EQ(covered, 10u);
  expect_audit_clean(result, platform, options);
}

// --- fractional sharing ----------------------------------------------------

TEST(RunJobs, FractionalArrivalSplitsTheRunningJobsShare) {
  const platform::StarPlatform platform = test_platform(10);
  jobs::JobsOptions options;
  options.sharing = jobs::SharingPolicy::kFractional;
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 600.0}, {5.0, 600.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.completed, 2u);
  // Job 0 ran alone, was cut to a half share at t=5, and widened again when
  // one of them finished: at least two segments with different widths.
  EXPECT_GE(result.jobs[0].segments.size(), 2u);
  EXPECT_EQ(result.jobs[0].segments[0].num_workers, 10u);
  EXPECT_EQ(result.jobs[0].segments[1].num_workers, 5u);
  EXPECT_DOUBLE_EQ(result.jobs[1].start, 5.0);  // Served immediately on arrival.
  EXPECT_DOUBLE_EQ(result.jobs[1].queue_wait, 0.0);
  expect_audit_clean(result, platform, options);
}

TEST(RunJobs, FractionalDegreeCapQueuesTheOverflow) {
  const platform::StarPlatform platform = test_platform(10);
  jobs::JobsOptions options;
  options.sharing = jobs::SharingPolicy::kFractional;
  options.max_degree = 2;
  options.stream = jobs::JobStreamSpec::from_trace(
      trace_jobs({{0.0, 400.0}, {0.0, 400.0}, {0.0, 400.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  EXPECT_EQ(result.completed, 3u);
  EXPECT_GT(result.jobs[2].queue_wait, 0.0);  // Third job waited for a slot.
  expect_audit_clean(result, platform, options);
}

// --- open-system runs ------------------------------------------------------

jobs::JobsOptions poisson_options(const platform::StarPlatform& platform,
                                  jobs::SharingPolicy sharing, double load) {
  jobs::JobsOptions options;
  options.sharing = sharing;
  options.partitions = 2;
  options.stream = jobs::JobStreamSpec::poisson(
      jobs::JobStreamSpec::rate_for_load(platform, load, 250.0), 30, 250.0);
  options.stream.size_dist = jobs::SizeDistribution::kUniform;
  options.stream.size_spread = 0.4;
  options.sim.seed = 2026;
  options.sim.comm_error = stats::ErrorModel::truncated_normal(0.2);
  options.sim.comp_error = stats::ErrorModel::truncated_normal(0.2);
  return options;
}

TEST(RunJobs, EverySharingPolicyDrainsAndAuditsCleanUnderLoad) {
  const platform::StarPlatform platform = test_platform(10);
  for (const jobs::SharingPolicy sharing :
       {jobs::SharingPolicy::kExclusive, jobs::SharingPolicy::kPartitioned,
        jobs::SharingPolicy::kFractional}) {
    const jobs::JobsOptions options = poisson_options(platform, sharing, 0.7);
    const jobs::ServiceResult result = jobs::run_jobs(platform, options);
    EXPECT_EQ(result.arrived, 30u) << jobs::to_string(sharing);
    EXPECT_EQ(result.completed, 30u) << jobs::to_string(sharing);
    EXPECT_GT(result.utilization, 0.0);
    EXPECT_LE(result.share_utilization, 1.0 + 1e-9);
    expect_audit_clean(result, platform, options);
  }
}

TEST(RunJobs, LittlesLawHoldsExactly) {
  const platform::StarPlatform platform = test_platform(10);
  const jobs::JobsOptions options =
      poisson_options(platform, jobs::SharingPolicy::kFractional, 0.9);
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);
  double residence = 0.0;
  for (const jobs::JobOutcome& job : result.jobs) {
    if (!job.rejected) residence += job.departure - job.arrival;
  }
  EXPECT_NEAR(result.area_jobs_in_system, residence,
              1e-9 * std::max(1.0, residence));
}

TEST(RunJobs, IdenticalSeedsReplayByteIdentically) {
  const platform::StarPlatform platform = test_platform(10);
  for (const jobs::SharingPolicy sharing :
       {jobs::SharingPolicy::kExclusive, jobs::SharingPolicy::kPartitioned,
        jobs::SharingPolicy::kFractional}) {
    const jobs::JobsOptions options = poisson_options(platform, sharing, 0.8);
    const jobs::ServiceResult a = jobs::run_jobs(platform, options);
    const jobs::ServiceResult b = jobs::run_jobs(platform, options);
    EXPECT_EQ(report::jobs_csv(a), report::jobs_csv(b)) << jobs::to_string(sharing);
    EXPECT_EQ(report::jobs_summary_json(a), report::jobs_summary_json(b))
        << jobs::to_string(sharing);
    expect_audit_clean(a, platform, options);
  }
}

TEST(RunJobs, FaultInjectionFlowsThroughTheOracle) {
  const platform::StarPlatform platform = test_platform(10);
  for (const jobs::SharingPolicy sharing :
       {jobs::SharingPolicy::kExclusive, jobs::SharingPolicy::kPartitioned,
        jobs::SharingPolicy::kFractional}) {
    jobs::JobsOptions options = poisson_options(platform, sharing, 0.5);
    options.sim.faults = faults::FaultSpec::transient(400.0, 20.0);
    const jobs::ServiceResult result = jobs::run_jobs(platform, options);
    EXPECT_EQ(result.completed, result.arrived) << jobs::to_string(sharing);
    expect_audit_clean(result, platform, options);
    // Failures stretch service beyond the fault-free bound, never shrink it.
    EXPECT_GE(result.mean_slowdown(), 1.0) << jobs::to_string(sharing);
  }
}

TEST(RunJobs, RecordTraceMergesSegmentsAtGlobalCoordinates) {
  const platform::StarPlatform platform = test_platform(10);
  jobs::JobsOptions options;
  options.sharing = jobs::SharingPolicy::kPartitioned;
  options.partitions = 2;
  options.record_trace = true;
  options.stream =
      jobs::JobStreamSpec::from_trace(trace_jobs({{0.0, 200.0}, {0.0, 200.0}}));
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);
  ASSERT_FALSE(result.trace.empty());
  bool any_second_half = false;
  for (const sim::TraceSpan& span : result.trace.spans()) {
    EXPECT_LE(span.end, result.horizon + 1e-9);
    if (span.worker >= 5) any_second_half = true;
  }
  EXPECT_TRUE(any_second_half);  // Job 1's spans were shifted onto workers 5..9.
}

// --- the auditor catches corruption ---------------------------------------

TEST(ServiceAudit, FlagsBrokenLittlesLaw) {
  const platform::StarPlatform platform = test_platform();
  const jobs::JobsOptions options =
      poisson_options(platform, jobs::SharingPolicy::kExclusive, 0.5);
  jobs::ServiceResult result = jobs::run_jobs(platform, options);
  result.area_jobs_in_system *= 1.5;
  const check::AuditReport report = check::audit_service_result(result, platform, options);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("Little"), std::string::npos);
}

TEST(ServiceAudit, FlagsCounterLedgerMismatch) {
  const platform::StarPlatform platform = test_platform();
  const jobs::JobsOptions options =
      poisson_options(platform, jobs::SharingPolicy::kExclusive, 0.5);
  jobs::ServiceResult result = jobs::run_jobs(platform, options);
  ++result.completed;
  EXPECT_FALSE(check::audit_service_result(result, platform, options).ok());
}

TEST(ServiceAudit, FlagsOverlappingShares) {
  const platform::StarPlatform platform = test_platform(10);
  jobs::JobsOptions options;
  options.sharing = jobs::SharingPolicy::kPartitioned;
  options.partitions = 2;
  options.stream =
      jobs::JobStreamSpec::from_trace(trace_jobs({{0.0, 300.0}, {0.0, 300.0}}));
  jobs::ServiceResult result = jobs::run_jobs(platform, options);
  // Slide job 1's share onto job 0's workers.
  result.jobs[1].segments[0].first_worker = result.jobs[0].segments[0].first_worker;
  const check::AuditReport report = check::audit_service_result(result, platform, options);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("share worker"), std::string::npos);
}

TEST(ServiceAudit, FlagsLostWork) {
  const platform::StarPlatform platform = test_platform();
  const jobs::JobsOptions options =
      poisson_options(platform, jobs::SharingPolicy::kExclusive, 0.5);
  jobs::ServiceResult result = jobs::run_jobs(platform, options);
  result.jobs[0].work_done *= 0.5;
  EXPECT_FALSE(check::audit_service_result(result, platform, options).ok());
}

// --- configuration bridge --------------------------------------------------

constexpr const char* kJobsConfig = R"(
[platform]
workers = 8
bandwidth = 12
comp_latency = 0.1

[schedule]
algorithm = rumr
error = 0.2

[simulation]
error = 0.2
seed = 11

[jobs]
load = 0.6
jobs = 12
mean_size = 150
size_distribution = uniform
size_spread = 0.3
sharing = fractional
max_degree = 3
queue = sjf
admission = shed
queue_capacity = 4
)";

TEST(JobsConfig, ParsesTheJobsSection) {
  const auto description = jobs::jobs_from_config(config::ConfigFile::parse(kJobsConfig));
  EXPECT_EQ(description.platform.size(), 8u);
  const jobs::JobsOptions& o = description.options;
  EXPECT_EQ(o.sharing, jobs::SharingPolicy::kFractional);
  EXPECT_EQ(o.discipline, jobs::QueueDiscipline::kSjf);
  EXPECT_EQ(o.admission, jobs::AdmissionPolicy::kShedOldest);
  EXPECT_EQ(o.max_degree, 3u);
  EXPECT_EQ(o.queue_capacity, 4u);
  EXPECT_EQ(o.stream.max_jobs, 12u);
  EXPECT_EQ(o.stream.size_dist, jobs::SizeDistribution::kUniform);
  // load=0.6 on aggregate speed 8 with mean 150: rate * 150 == 4.8.
  EXPECT_NEAR(o.stream.arrival_rate * 150.0, 4.8, 1e-12);
  EXPECT_EQ(o.sim.seed, 11u);

  const jobs::ServiceResult result = jobs::run_jobs(description.platform, o);
  EXPECT_EQ(result.arrived, 12u);
  expect_audit_clean(result, description.platform, o);
}

TEST(JobsConfig, RejectsUnknownEnumValues) {
  const std::string base(kJobsConfig);
  auto broken = base;
  broken.replace(broken.find("sharing = fractional"), 20, "sharing = timeshared ");
  EXPECT_THROW((void)jobs::jobs_from_config(config::ConfigFile::parse(broken)),
               config::ConfigError);
}

TEST(JobsConfig, EnumNamesRoundTrip) {
  EXPECT_STREQ(jobs::to_string(jobs::SharingPolicy::kExclusive), "exclusive");
  EXPECT_STREQ(jobs::to_string(jobs::SharingPolicy::kPartitioned), "partitioned");
  EXPECT_STREQ(jobs::to_string(jobs::SharingPolicy::kFractional), "fractional");
  EXPECT_STREQ(jobs::to_string(jobs::QueueDiscipline::kSjf), "sjf");
  EXPECT_STREQ(jobs::to_string(jobs::AdmissionPolicy::kShedOldest), "shed");
}

// --- exporters -------------------------------------------------------------

TEST(JobsReport, CsvHasOneRowPerJobAndSummaryJsonParses) {
  const platform::StarPlatform platform = test_platform();
  const jobs::JobsOptions options =
      poisson_options(platform, jobs::SharingPolicy::kExclusive, 0.5);
  const jobs::ServiceResult result = jobs::run_jobs(platform, options);

  const std::string csv = report::jobs_csv(result);
  const std::size_t rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, result.jobs.size() + 1);  // Header + one per job.
  EXPECT_NE(csv.find("completed"), std::string::npos);

  const util::JsonValue json = util::JsonValue::parse(report::jobs_summary_json(result));
  EXPECT_EQ(json.at("arrived").as_number(), 30.0);
  EXPECT_TRUE(json.at("stats").is_object());
}

}  // namespace
}  // namespace rumr
