#pragma once

/// \file job_manager.hpp
/// Multi-job open-system engine: admission, queueing, and platform sharing
/// on top of the single-job master-worker engine.
///
/// The single-job engine (sim/master_worker.hpp) answers "how long does one
/// divisible job take on this star platform under this scheduler?". This
/// module opens the workload: jobs arrive over time (jobs::JobStream), are
/// admitted or rejected at a bounded queue, wait under a queueing
/// discipline, and are served on a *share* of the platform's workers under
/// one of three sharing policies:
///
///   kExclusive    one job at a time owns every worker (batch / serial).
///   kPartitioned  the workers are split into fixed partitions at start-up;
///                 each partition serves one job at a time (static
///                 space-sharing, the "virtual cluster" model).
///   kFractional   the workers are re-divided evenly among all in-service
///                 jobs on every arrival and completion (dynamic fractional
///                 resource scheduling, after Casanova, Stillwell & Vivien).
///
/// Each service (and each re-partitioned service segment) is priced by the
/// real single-job engine: the manager instantiates the configured scheduler
/// policy (RUMR/UMR/Factoring/...) on the job's worker share and runs
/// sim::simulate() — prediction error, buffering, and fault injection
/// included — as a service-time oracle. Within a segment, progress is fluid:
/// a job interrupted after fraction f of its predicted segment duration has
/// completed fraction f of the segment's work. This keeps the open-system
/// timeline exact and work-conserving while every service time comes from
/// the paper's full execution mechanics.
///
/// Determinism: the job-level timeline runs on des::Simulator (FIFO
/// tie-breaks), the stream is a pure function of (spec, seed), and every
/// oracle run derives its seed from (seed, job, segment) — so identically-
/// seeded runs replay byte-identically (RunJobs.IdenticalSeedsReplayByteIdentically
/// checks each sharing policy), and check::audit_service_result verifies the
/// service identities on every audited run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "des/simulator.hpp"
#include "jobs/job_stream.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace.hpp"

namespace rumr::jobs {

/// How concurrent jobs share the star platform's workers.
enum class SharingPolicy : std::uint8_t { kExclusive, kPartitioned, kFractional };

/// Order in which waiting jobs are picked when capacity frees up.
enum class QueueDiscipline : std::uint8_t {
  kFcfs,      ///< First-come, first-served (arrival order).
  kSjf,       ///< Shortest job first (smallest size; FCFS tie-break).
  kPriority,  ///< Highest latency-sensitivity weight first; smaller size,
              ///< then arrival order, break ties.
};

/// What happens when a job arrives and the wait queue is full.
enum class AdmissionPolicy : std::uint8_t {
  kRejectNew,   ///< The arriving job is rejected (classic bounded queue).
  kShedOldest,  ///< The longest-waiting queued job is shed to make room.
};

[[nodiscard]] const char* to_string(SharingPolicy policy) noexcept;
[[nodiscard]] const char* to_string(QueueDiscipline discipline) noexcept;
[[nodiscard]] const char* to_string(AdmissionPolicy admission) noexcept;

/// Full configuration of one open-system run.
struct JobsOptions {
  JobStreamSpec stream{};                                  ///< The arrival process.
  SharingPolicy sharing = SharingPolicy::kExclusive;
  QueueDiscipline discipline = QueueDiscipline::kFcfs;
  AdmissionPolicy admission = AdmissionPolicy::kRejectNew;

  /// Maximum number of *waiting* jobs (in-service jobs do not count).
  /// SIZE_MAX = unbounded (nothing is ever rejected or shed).
  std::size_t queue_capacity = SIZE_MAX;

  /// kPartitioned: number of fixed worker partitions (near-equal contiguous
  /// blocks). Must be >= 1 and <= the platform's worker count.
  std::size_t partitions = 2;

  /// kFractional: cap on concurrently served jobs. 0 = one job per worker
  /// at most (every in-service job always holds >= 1 worker).
  std::size_t max_degree = 0;

  /// Per-job scheduler run on the job's worker share: a config name from
  /// the policy registry (config/policies.cpp).
  std::string algorithm = "rumr";
  double known_error = 0.0;  ///< Error magnitude the scheduler is told.

  /// Inner-engine options: error processes, buffering, output model, fault
  /// injection. `sim.seed` also seeds the job stream; per-segment oracle
  /// seeds are derived from (sim.seed, job, segment).
  sim::SimOptions sim{};

  /// Merge every job's inner-engine Gantt spans (shifted to the job-level
  /// clock and to the share's global worker indices) into
  /// ServiceResult::trace. Costs memory; off by default.
  bool record_trace = false;

  /// Keep every per-job JobOutcome on ServiceResult::jobs (the default).
  /// Disable for large open-system runs (the sharded sweep engine does):
  /// outcomes then live only while their job is in flight and are folded
  /// into the aggregate counters/histograms on departure, so peak memory is
  /// O(jobs concurrently in the system) instead of O(total jobs).
  /// ServiceResult::jobs stays empty and jobs_retained records the mode;
  /// the aggregate identities (Little's law via residence_time, the work
  /// ledger via arrived_work) remain fully audited either way.
  bool retain_jobs = true;

  /// Every problem with the options, human-readable; empty means usable.
  /// `num_workers` enables the platform-dependent checks (partitions vs
  /// worker count, an mi-<x> too large to solve on N workers); pass 0 to
  /// skip them.
  [[nodiscard]] std::vector<std::string> validate(std::size_t num_workers = 0) const;
};

/// One contiguous interval during which a job held a fixed worker share.
struct ServiceSegment {
  des::SimTime begin = 0.0;
  des::SimTime end = 0.0;
  std::size_t first_worker = 0;  ///< Global index of the share's first worker.
  std::size_t num_workers = 0;   ///< Share width (contiguous block).
  double work = 0.0;             ///< Workload units completed in this segment.
};

/// Everything the system did with one job.
struct JobOutcome {
  std::size_t id = 0;
  des::SimTime arrival = 0.0;
  double size = 0.0;
  double weight = 1.0;

  bool rejected = false;   ///< Turned away on arrival (never entered the system).
  bool shed = false;       ///< Admitted, then dropped from the queue unserved.
  bool completed = false;  ///< Ran to completion.

  des::SimTime start = 0.0;      ///< First service instant (0 if never served).
  des::SimTime departure = 0.0;  ///< Completion, shed instant, or arrival (rejected).

  double queue_wait = 0.0;    ///< start - arrival (shed: departure - arrival).
  double service_time = 0.0;  ///< departure - start (completed jobs).
  double response = 0.0;      ///< departure - arrival (completed jobs).
  /// Analytic lower bound on this job's makespan alone on the *full*
  /// platform (analysis::makespan_lower_bounds) — the slowdown denominator.
  double best_service = 0.0;
  double slowdown = 0.0;  ///< response / best_service (completed jobs).

  double work_done = 0.0;  ///< Sum of segment work (== size when completed).
  std::vector<ServiceSegment> segments;
};

/// Result of one open-system run.
struct ServiceResult {
  std::vector<JobOutcome> jobs;  ///< Every arrived job, in arrival order.

  std::size_t arrived = 0;
  std::size_t admitted = 0;  ///< arrived - rejected.
  std::size_t rejected = 0;
  std::size_t shed = 0;
  std::size_t completed = 0;  ///< == admitted - shed once the run drains.

  /// End of the run: the job-level clock after the last event (last
  /// departure, or last arrival when everything was rejected).
  des::SimTime horizon = 0.0;

  /// Exact integral of N(t) (admitted jobs in system) over [0, horizon].
  /// Little's-law identity: equals the sum of (departure - arrival) over
  /// admitted jobs — audited by check::audit_service_result.
  double area_jobs_in_system = 0.0;

  /// Sum of (departure - arrival) over admitted jobs, accumulated
  /// incrementally at each departure — the other side of the Little's-law
  /// identity, carried on the result so streaming runs (jobs_retained ==
  /// false, no per-job records) still audit it.
  double residence_time = 0.0;

  /// Workload units across *arrived* jobs (rejected ones included) — the
  /// offered-load numerator, carried for the same reason.
  double arrived_work = 0.0;

  /// False when options.retain_jobs was false: `jobs` is empty by design and
  /// auditors skip the per-job cross-checks (aggregate identities still hold).
  bool jobs_retained = true;

  double total_work = 0.0;  ///< Workload units completed across all jobs.
  /// Worker-seconds held by service segments (share width x duration).
  double share_time = 0.0;
  /// total_work / (platform aggregate speed x horizon): fraction of the
  /// platform's compute capacity converted into completed work.
  double utilization = 0.0;
  /// share_time / (workers x horizon): fraction of worker-time allocated to
  /// jobs. <= 1 by partition disjointness.
  double share_utilization = 0.0;
  /// Workload units arrived per second of horizon, over aggregate speed —
  /// the realized offered load.
  double offered_load = 0.0;

  /// Service-metric counters and distributions (obs-layer record).
  obs::JobsStats stats;

  std::size_t manager_events = 0;  ///< Job-level DES events executed.
  std::size_t oracle_runs = 0;     ///< Inner single-job engine invocations.
  std::size_t oracle_events = 0;   ///< DES events inside those runs.

  /// Merged per-job Gantt spans (populated iff options.record_trace).
  sim::Trace trace;

  [[nodiscard]] double mean_response() const noexcept { return stats.response_times.mean(); }
  [[nodiscard]] double mean_slowdown() const noexcept { return stats.slowdowns.mean(); }
  [[nodiscard]] double mean_queue_wait() const noexcept { return stats.queue_waits.mean(); }
};

/// Runs one open-system timeline to drain: every streamed job arrives, is
/// admitted/rejected, waits, is served on its share, and departs.
///
/// Throws std::invalid_argument when the options do not validate and
/// propagates sim::SimError from inner engine runs (e.g. a fault spec that
/// kills every worker of a share permanently).
[[nodiscard]] ServiceResult run_jobs(const platform::StarPlatform& platform,
                                     const JobsOptions& options);

}  // namespace rumr::jobs
