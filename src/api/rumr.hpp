#pragma once

/// \file rumr.hpp
/// Single-include public API facade for the RUMR scheduling library.
///
/// `#include "api/rumr.hpp"` is the supported way to consume the library:
/// it re-exports every public subsystem header (platform description, the
/// UMR/RUMR solvers, the simulation engine's result types, observability,
/// sweeps, reporting, invariant audits) and adds the `rumr::Run` builder —
/// a declarative front end that turns a run description into an executed,
/// audited result without touching engine internals.
///
///   rumr::RunResult r = rumr::Run()
///                           .platform(cluster)
///                           .workload(1000.0)
///                           .algorithm("rumr")
///                           .known_error(0.3)
///                           .error(0.3)
///                           .execute();
///   std::printf("makespan %.2f, uplink %.0f%% busy\n", r.makespan,
///               100.0 * r.metrics.engine.uplink_utilization);
///
/// Every execute() self-audits: the run's invariants (work conservation,
/// resource serialization, the observability identities) are verified by
/// check::audit_sim_result before the result is returned, and a violation
/// raises check::CheckError. Disable with .audit(false) if you are
/// deliberately constructing degenerate runs.
///
/// Grid studies go through the `rumr::Sweep` builder — the single public
/// entry point onto the sharded streaming sweep engine:
///
///   auto cells = rumr::Sweep()
///                    .platforms(sweep::make_grid(sweep::GridSpec::decimated()))
///                    .errors(sweep::error_axis())
///                    .policies({"rumr", "umr", "factoring"})
///                    .reps(50)
///                    .threads(0)
///                    .on_cell([](const sweep::SweepCell& c) { /* stream */ })
///                    .execute();
///
/// Fold the cells into a sweep::SweepResult, as they stream or afterwards,
/// for the paper's table reductions (win percentages, normalized makespans).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "baselines/factoring.hpp"
#include "baselines/fsc.hpp"
#include "baselines/loop_scheduling.hpp"
#include "baselines/multi_installment.hpp"
#include "baselines/static_sequence.hpp"
#include "check/check.hpp"
#include "check/des_audit.hpp"
#include "check/merge_audit.hpp"
#include "check/serve_audit.hpp"
#include "check/service_audit.hpp"
#include "check/trace_audit.hpp"
#include "config/policies.hpp"
#include "config/run_description.hpp"
#include "core/adaptive_rumr.hpp"
#include "core/rumr.hpp"
#include "core/umr.hpp"
#include "core/umr_policy.hpp"
#include "jobs/job_manager.hpp"
#include "jobs/job_stream.hpp"
#include "jobs/jobs_config.hpp"
#include "check/race_audit.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "race/bounds.hpp"
#include "race/race.hpp"
#include "race/result.hpp"
#include "report/ascii_plot.hpp"
#include "report/csv.hpp"
#include "report/jobs_io.hpp"
#include "report/series.hpp"
#include "report/table.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_config.hpp"
#include "serve/server.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace.hpp"
#include "sim/trace_json.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr {

/// Everything one executed repetition produced.
struct RunResult {
  double makespan = 0.0;
  /// DES kernel, engine, and fault-layer statistics (always collected).
  obs::RunMetrics metrics;
  /// Gantt/trace spans; populated only on a traced repetition.
  sim::Trace trace;
  /// The engine's full result record (per-worker outcomes, fault summary).
  sim::SimResult sim;
};

/// Builder for a single described run (or a small repetition batch of one).
///
/// A `Run` is a thin, copyable wrapper over config::RunDescription — the same
/// structure the configuration-file front end produces — so a run can come
/// from fluent code (`Run().platform(...)...`) or a file
/// (`Run::from_file("cluster.rumr")`) and execute identically.
class Run {
 public:
  /// Starts from the library defaults: the paper's Table-1 homogeneous
  /// 10-worker platform, algorithm "rumr", no prediction error, 1 repetition.
  Run();

  /// Loads a run-description file (see config/run_description.hpp for the
  /// schema). Throws config::ConfigError on parse or validation problems.
  [[nodiscard]] static Run from_file(const std::string& path);

  // Fluent setters --------------------------------------------------------

  Run& platform(platform::StarPlatform p);
  /// Total divisible workload (units). Must be > 0 at execute() time.
  Run& workload(double units);
  /// Scheduling algorithm: a config name from the policy registry
  /// (the table in config/policies.cpp lists them).
  Run& algorithm(std::string name);
  /// Prediction-error magnitude the scheduler is told to plan for.
  Run& known_error(double e);
  /// Actual prediction-error level driving the run (truncated-normal model
  /// on both communication and computation, the paper's setting).
  Run& error(double e);
  Run& seed(std::uint64_t s);
  Run& repetitions(std::size_t n);
  /// Worker-availability fault injection (crash/recover, fail-stop, scripts).
  Run& faults(faults::FaultSpec spec);
  /// Link-fault injection: message loss, latency spikes, degradation windows.
  Run& link_faults(faults::LinkFaultSpec spec);
  /// Enables the ACK/timeout/retransmit protocol (optionally with custom
  /// RFC6298 knobs via the options overload).
  Run& retransmit(bool on = true);
  Run& retransmit(sim::SimOptions::RetransmitOptions options);
  /// Partial-work checkpointing period in simulated seconds (0 disables).
  Run& checkpoint_interval(double seconds);
  /// Record a Gantt trace (on the last repetition when running a batch).
  Run& record_trace(bool on = true);
  /// Replaces the full engine option block (error processes, output model,
  /// buffer capacity, fault injection, ...) for anything the narrow setters
  /// do not cover.
  Run& sim_options(sim::SimOptions options);
  /// Self-audit every executed repetition with check::audit_sim_result
  /// (default on; violations raise check::CheckError).
  Run& audit(bool on = true);

  /// The underlying description, for inspection or direct mutation.
  [[nodiscard]] const config::RunDescription& description() const noexcept { return desc_; }
  [[nodiscard]] config::RunDescription& description() noexcept { return desc_; }

  /// Opens this run's workload into a multi-job stream: a JobsRun seeded
  /// with the same platform, per-job scheduler algorithm, known error, and
  /// engine options. Configure arrivals and sharing on the returned builder.
  [[nodiscard]] class JobsRun jobs() const;

  // Execution --------------------------------------------------------------

  /// Executes one repetition (the description's seed) and returns it.
  /// Throws sim::SimError on invalid options or policy misbehavior and
  /// check::CheckError on an audit violation.
  [[nodiscard]] RunResult execute() const;

  /// Executes all repetitions with per-repetition derived seeds (seed, rep)
  /// — the same derivation the CLI and sweep front ends use — tracing only
  /// the last repetition when record_trace is on.
  [[nodiscard]] std::vector<RunResult> execute_all() const;

 private:
  /// The described algorithm's plan for the description's platform.
  [[nodiscard]] config::PreparedPolicy prepare() const;
  [[nodiscard]] RunResult execute_one(const config::PreparedPolicy& prepared,
                                      std::uint64_t rep_seed, bool trace) const;

  config::RunDescription desc_;
  bool record_trace_ = false;
  bool audit_ = true;
};

/// Builder for a multi-job open-system run (jobs::run_jobs under the hood).
///
///   rumr::jobs::ServiceResult r = rumr::Run()
///                                     .platform(cluster)
///                                     .algorithm("rumr")
///                                     .jobs()
///                                     .poisson_load(0.7, 100, 300.0)
///                                     .sharing(rumr::jobs::SharingPolicy::kFractional)
///                                     .execute();
///   std::printf("mean slowdown %.2f\n", r.mean_slowdown());
///
/// Like Run, every execute() self-audits — check::audit_service_result
/// verifies the counter ledger, per-job work conservation, share
/// disjointness, and Little's law; a violation raises check::CheckError.
/// Disable with .audit(false).
class JobsRun {
 public:
  /// Starts from the library defaults: the paper's Table-1 homogeneous
  /// 10-worker platform, exclusive sharing, FCFS, an unbounded queue, and a
  /// 100-job Poisson stream.
  JobsRun();

  /// Loads a [jobs] description file (see jobs/jobs_config.hpp for the
  /// schema). Throws config::ConfigError on parse or validation problems.
  [[nodiscard]] static JobsRun from_file(const std::string& path);

  // Fluent setters ---------------------------------------------------------

  JobsRun& platform(platform::StarPlatform p);
  /// Replaces the arrival process wholesale.
  JobsRun& stream(jobs::JobStreamSpec spec);
  /// Poisson arrivals at an explicit rate (jobs/s).
  JobsRun& poisson(double arrival_rate, std::size_t num_jobs, double mean_size);
  /// Poisson arrivals offering `load` (fraction of the platform's aggregate
  /// compute capacity, e.g. 0.7). The rate is derived from the platform at
  /// execute() time, so it tracks later platform() calls.
  JobsRun& poisson_load(double load, std::size_t num_jobs, double mean_size);
  JobsRun& sharing(jobs::SharingPolicy policy);
  JobsRun& partitions(std::size_t count);
  JobsRun& max_degree(std::size_t cap);
  JobsRun& discipline(jobs::QueueDiscipline discipline);
  JobsRun& admission(jobs::AdmissionPolicy policy);
  JobsRun& queue_capacity(std::size_t capacity);
  /// Per-job scheduler run on each worker share (same vocabulary as
  /// Run::algorithm).
  JobsRun& algorithm(std::string name);
  JobsRun& known_error(double e);
  /// Actual prediction-error level inside every service oracle run.
  JobsRun& error(double e);
  JobsRun& seed(std::uint64_t s);
  JobsRun& record_trace(bool on = true);
  /// Replaces the inner-engine option block (fault injection, buffering,
  /// output model, ...).
  JobsRun& sim_options(sim::SimOptions options);
  /// Self-audit with check::audit_service_result (default on).
  JobsRun& audit(bool on = true);

  /// The underlying options, for inspection or direct mutation.
  [[nodiscard]] const jobs::JobsOptions& options() const noexcept { return options_; }
  [[nodiscard]] jobs::JobsOptions& options() noexcept { return options_; }

  // Execution --------------------------------------------------------------

  /// Runs the open system to drain. Throws std::invalid_argument on
  /// non-validating options, sim::SimError from inner engine runs, and
  /// check::CheckError on an audit violation.
  [[nodiscard]] jobs::ServiceResult execute() const;

 private:
  friend class Run;

  platform::StarPlatform platform_;
  jobs::JobsOptions options_{};
  double pending_load_ = 0.0;  ///< poisson_load() fraction; 0 = explicit rate.
  bool audit_ = true;
};

/// Builder for a single best-arm race (race/race.hpp): which policy wins on
/// *this* platform under *this* error regime, certified at level delta.
///
///   rumr::race::RaceResult r = rumr::Race()
///                                  .platform(cluster, "render-farm")
///                                  .error(0.3)
///                                  .delta(0.05)
///                                  .execute();
///   std::printf("winner %s after %zu sims (%.1fx fewer than fixed-rep)\n",
///               r.arms[r.winner].name.c_str(), r.total_samples,
///               r.sims_saved_ratio());
///
/// validate()/execute() parity with the other builders: validate() returns
/// every problem at once, execute() throws std::invalid_argument carrying
/// them. Every execute() self-audits — each simulation through
/// check::audit_sim_result and the finished race through
/// check::audit_race_result (disable with .audit(false)). Results are
/// byte-identical for every threads= setting.
class Race {
 public:
  /// Starts from the paper's Table-1 homogeneous 10-worker platform, the
  /// racing_competitors() line-up, error 0.3, delta 0.05, blocks of 8
  /// repetitions, and a 256-repetition per-arm budget.
  Race();

  // Fluent setters ---------------------------------------------------------

  /// The platform to race on. The label is the platform's seed identity
  /// (sweep::derive_rep_seed hashes it) — keep it stable.
  Race& platform(platform::StarPlatform p, std::string label);
  /// Table 1-style configuration (label = config.label()).
  Race& platform(const sweep::PlatformConfig& config);
  /// Actual prediction-error level driving every repetition.
  Race& error(double e);
  Race& policies(std::vector<sweep::AlgorithmSpec> specs);
  /// Registry config names, as Run::algorithm; arms carry the display
  /// names ("RUMR"). Names that do not resolve are reported by validate()
  /// rather than thrown here.
  Race& policies(const std::vector<std::string>& names);
  Race& workload(double units);
  /// Certification level: P(certified winner is not the best arm) <= delta.
  Race& delta(double d);
  /// Repetitions added per active arm per round (>= 2).
  Race& block(std::size_t reps_per_round);
  /// Per-arm repetition budget; exhaustion flags the result instead of
  /// certifying.
  Race& budget(std::size_t max_reps);
  Race& threads(std::size_t n);  ///< 0 = hardware concurrency.
  Race& seed(std::uint64_t s);
  Race& objective(race::Objective o);
  Race& distribution(stats::ErrorDistribution d);
  /// Self-audit every simulation and the finished race (default on).
  Race& audit(bool on = true);

  // Validation and execution -----------------------------------------------

  /// Every problem with the current description; empty = executable.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Runs the race. Throws std::invalid_argument listing every validate()
  /// problem, and check::CheckError on an audit violation.
  [[nodiscard]] race::RaceResult execute() const;

 private:
  [[nodiscard]] race::RaceOptions race_options() const;

  sweep::SweepPlatform platform_;
  std::vector<sweep::AlgorithmSpec> policies_;
  /// A by-name line-up's names (validate() reports the bad ones); empty
  /// for a spec line-up.
  std::vector<std::string> policy_names_;
  double error_ = 0.3;
  double workload_ = 1000.0;
  double delta_ = 0.05;
  std::size_t block_ = 8;
  std::size_t budget_ = 256;
  std::size_t threads_ = 0;
  std::uint64_t seed_ = 0x5eed5eed5eedULL;
  race::Objective objective_ = race::Objective::kMakespan;
  stats::ErrorDistribution distribution_ = stats::ErrorDistribution::kTruncatedNormal;
  bool audit_ = true;
};

/// Builder for a full parameter sweep — the single public entry point onto
/// the sharded streaming sweep engine (sweep/runner.hpp).
///
/// Three modes share one builder:
///
///   - **closed-system** (the default): platforms x error axis x policies,
///     every repetition a whole-workload race of the line-up. execute()
///     returns the buffered cells in deterministic (platform, error,
///     algorithm) order.
///   - **open-system**: entered by jobs(base) or loads(axis); platforms x
///     offered-load axis over a jobs::JobsOptions template. execute_jobs()
///     returns the buffered cells in (platform, load) order.
///   - **race**: entered by race(delta); every (platform, error) cell runs a
///     best-arm race over the line-up instead of a fixed repetition count —
///     reps() becomes the per-arm budget and rep_block() the per-round block
///     size. execute_race() returns the raced cells in (platform, error)
///     order.
///
/// Cells stream through on_cell() the moment their site's last shard lands
/// (serialized, order across sites unspecified); pair on_cell() with
/// buffer(false) to keep memory O(1) in the grid size. Results are
/// byte-identical for every threads= setting — the shard structure, per-rep
/// seeds (sweep::derive_rep_seed), and merge order never depend on the
/// thread count.
///
/// validate() returns the full list of problems (empty = executable);
/// execute()/execute_jobs() call it and raise std::invalid_argument carrying
/// every problem at once.
class Sweep {
 public:
  /// Starts empty of platforms (choose the scale explicitly — a sweep is an
  /// expensive operation) with the paper defaults everywhere else: the
  /// section 5.1 competitor line-up, the 0..0.5 error axis, 40 repetitions,
  /// workload 1000, truncated-normal errors, auditing on.
  Sweep();

  // Platform axis ----------------------------------------------------------

  /// Table 1-style lattice: every configuration of the spec.
  Sweep& grid(const sweep::GridSpec& spec);
  Sweep& platforms(std::vector<sweep::PlatformConfig> configs);
  /// Arbitrary labelled platforms (heterogeneous clusters, custom farms).
  /// The label is the platform's seed identity — keep it stable.
  Sweep& platforms(std::vector<sweep::SweepPlatform> list);
  /// Appends one custom platform to the axis.
  Sweep& platform(platform::StarPlatform p, std::string label);

  // Closed-system axis and line-up -----------------------------------------

  Sweep& errors(std::vector<double> axis);
  Sweep& policies(std::vector<sweep::AlgorithmSpec> specs);
  /// Registry config names, as Run::algorithm; cells carry the display
  /// names ("RUMR"). Names that do not resolve are reported by validate()
  /// (and execute()) rather than thrown here.
  Sweep& policies(const std::vector<std::string>& names);
  Sweep& workload(double units);
  Sweep& distribution(stats::ErrorDistribution d);
  /// Worker-availability fault injection applied to every repetition.
  Sweep& faults(faults::FaultSpec spec);
  Sweep& fault_tolerance(sim::SimOptions::FaultToleranceOptions tolerance);

  // Open-system mode -------------------------------------------------------

  /// Switches to open-system mode: each cell runs the multi-job engine over
  /// `base` with the arrival rate re-derived for the cell's (platform, load)
  /// and the seed re-derived per repetition. Set base.retain_jobs = false
  /// for large grids so every run streams its jobs in O(1) memory.
  Sweep& jobs(jobs::JobsOptions base);
  /// Offered-load axis (fractions of aggregate compute capacity). Implies
  /// open-system mode.
  Sweep& loads(std::vector<double> axis);

  // Race mode --------------------------------------------------------------

  /// Switches to race mode: each (platform, error) cell runs a best-arm race
  /// (race/race.hpp) over the policy line-up at certification level `delta`
  /// instead of a fixed repetition count. reps() becomes the per-arm budget
  /// (default 256) and rep_block() the per-round block size (default 8,
  /// minimum 2). Conflicts with jobs()/loads().
  Sweep& race(double delta = 0.05);
  /// Race-mode objective (makespan by default).
  Sweep& objective(race::Objective o);
  /// Race-mode cell sink.
  Sweep& on_cell(race::RaceConsumer consumer);

  // Execution knobs --------------------------------------------------------

  /// Repetitions per cell (default: 40 closed-system, 3 open-system, 256
  /// per-arm budget in race mode).
  Sweep& reps(std::size_t n);
  Sweep& threads(std::size_t n);  ///< 0 = hardware concurrency.
  Sweep& seed(std::uint64_t s);
  /// Repetitions per shard (0 = auto: up to 8 shards per site).
  Sweep& rep_block(std::size_t n);
  /// Self-audit every repetition (default on; violations raise
  /// check::CheckError and abort the sweep).
  Sweep& audit(bool on = true);
  /// Closed-system cell sink — called under the engine's emission mutex.
  Sweep& on_cell(sweep::CellConsumer consumer);
  /// Open-system cell sink.
  Sweep& on_cell(sweep::JobsCellConsumer consumer);
  /// Buffer cells into execute()'s return value (default on). Disable for
  /// huge grids — on_cell() then becomes the only output channel.
  Sweep& buffer(bool on);

  // Validation and execution -----------------------------------------------

  /// Every problem with the current description, human-readable, in one
  /// pass: empty axes, missing policies, unknown policy names, engine-level
  /// option problems (SweepOptions/JobsOptions parity), and the cross-field
  /// conflicts (buffer(false) without on_cell, a consumer for the wrong
  /// mode, rep_block exceeding reps, threads exceeding the shard count).
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Runs a closed-system sweep. Returns the buffered cells sorted by
  /// (platform, error, algorithm) index — empty with buffer(false). Throws
  /// std::invalid_argument listing every validate() problem.
  [[nodiscard]] std::vector<sweep::SweepCell> execute() const;

  /// Runs an open-system sweep. Returns the buffered cells sorted by
  /// (platform, load) index — empty with buffer(false).
  [[nodiscard]] std::vector<sweep::JobsSweepCell> execute_jobs() const;

  /// Runs a raced sweep (requires race()). Returns the buffered cells sorted
  /// by (platform, error) index — empty with buffer(false).
  [[nodiscard]] std::vector<race::RaceCell> execute_race() const;

 private:
  [[nodiscard]] sweep::SweepOptions closed_options() const;
  [[nodiscard]] sweep::JobsSweepOptions open_options() const;
  [[nodiscard]] race::RaceOptions race_options() const;
  void throw_if_invalid(const char* what) const;

  std::vector<sweep::SweepPlatform> platforms_;
  std::vector<sweep::AlgorithmSpec> policies_;
  /// A by-name line-up's names (validate() reports the bad ones); empty
  /// for a spec line-up.
  std::vector<std::string> policy_names_;
  std::vector<double> errors_;
  std::vector<double> loads_;
  double workload_ = 1000.0;
  stats::ErrorDistribution distribution_ = stats::ErrorDistribution::kTruncatedNormal;
  faults::FaultSpec faults_{};
  sim::SimOptions::FaultToleranceOptions fault_tolerance_{};
  jobs::JobsOptions jobs_base_{};
  bool jobs_mode_ = false;
  bool race_mode_ = false;
  double race_delta_ = 0.05;
  race::Objective race_objective_ = race::Objective::kMakespan;
  race::RaceConsumer race_consumer_;
  std::size_t reps_ = 0;  ///< 0 = mode default (40 closed, 3 open, 256 race).
  std::size_t threads_ = 0;
  std::uint64_t seed_ = 0x5eed5eed5eedULL;
  std::size_t rep_block_ = 0;
  bool audit_ = true;
  sweep::CellConsumer cell_consumer_;
  sweep::JobsCellConsumer jobs_consumer_;
  bool buffer_ = true;
};

/// Builder for the what-if scheduling server (serve/server.hpp): concurrent
/// platform+workload+policy queries answered from a content-addressed plan
/// cache, with request-level admission control in the jobs:: vocabulary.
///
///   std::istringstream in(framed_requests);
///   std::ostringstream out;
///   obs::ServeStats stats = rumr::Serve()
///                               .threads(4)
///                               .cache_capacity(1024)
///                               .run(in, out);
///   std::printf("%llu lookups, %llu hits\n",
///               (unsigned long long)stats.plan_cache.lookups,
///               (unsigned long long)stats.plan_cache.hits);
///
/// validate()/run() parity with the other builders: validate() returns every
/// problem at once, construction throws std::invalid_argument carrying them.
/// Every run() self-audits — the finished session's counter ledger is
/// verified by check::audit_serve_stats (admitted + rejected + shed ==
/// received, hits + misses == lookups, solves == misses, ...); a violation
/// raises check::CheckError. Disable with .audit(false). Responses are a
/// pure function of the request bytes: a warm-cache answer is byte-identical
/// to the cold one.
class Serve {
 public:
  /// Starts from the server defaults: auto-width executor, serial batches,
  /// a 4096-entry / 64 MiB / 16-shard plan cache, a 64-deep FCFS queue with
  /// reject-new admission, auditing on.
  Serve();

  /// Loads a [serve] description file (see serve/serve_config.hpp for the
  /// schema). Throws config::ConfigError on parse problems.
  [[nodiscard]] static Serve from_file(const std::string& path);

  // Fluent setters ---------------------------------------------------------

  Serve& threads(std::size_t n);        ///< Requests in service (0 = auto).
  Serve& batch_threads(std::size_t n);  ///< Query fan-out per batch (0 = auto).
  Serve& cache_capacity(std::size_t entries);
  Serve& cache_max_bytes(std::size_t bytes);
  Serve& cache_shards(std::size_t n);
  Serve& queue_capacity(std::size_t n);
  Serve& discipline(jobs::QueueDiscipline discipline);
  Serve& admission(jobs::AdmissionPolicy policy);
  /// Audit every solved plan and the finished session's ledger (default on).
  Serve& audit(bool on = true);

  /// The underlying options, for inspection or direct mutation.
  [[nodiscard]] const serve::ServerOptions& options() const noexcept { return options_; }
  [[nodiscard]] serve::ServerOptions& options() noexcept { return options_; }

  // Validation and execution -----------------------------------------------

  /// Every problem with the current description; empty = servable.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Builds a live server for programmatic submit()/handle() use. Throws
  /// std::invalid_argument listing every validate() problem.
  [[nodiscard]] std::unique_ptr<serve::Server> make_server() const;

  /// Serves one framed session (read requests from `in`, write responses to
  /// `out`) to drain, then returns the audited final statistics. Throws
  /// std::invalid_argument on non-validating options and check::CheckError
  /// on a ledger violation.
  [[nodiscard]] obs::ServeStats run(std::istream& in, std::ostream& out) const;

 private:
  serve::ServerOptions options_{};
};

}  // namespace rumr
