#include "api/rumr.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/problems.hpp"

namespace rumr {

Run::Run()
    : desc_{platform::StarPlatform::homogeneous(platform::HomogeneousParams{})} {}

Run Run::from_file(const std::string& path) {
  Run run;
  run.desc_ = config::run_from_config(config::ConfigFile::load(path));
  return run;
}

Run& Run::platform(platform::StarPlatform p) {
  desc_.platform = std::move(p);
  return *this;
}

Run& Run::workload(double units) {
  desc_.w_total = units;
  return *this;
}

Run& Run::algorithm(std::string name) {
  desc_.algorithm = std::move(name);
  return *this;
}

Run& Run::known_error(double e) {
  desc_.known_error = e;
  return *this;
}

Run& Run::error(double e) {
  desc_.sim_options.comm_error = stats::ErrorModel::truncated_normal(e);
  desc_.sim_options.comp_error = stats::ErrorModel::truncated_normal(e);
  return *this;
}

Run& Run::seed(std::uint64_t s) {
  desc_.sim_options.seed = s;
  return *this;
}

Run& Run::repetitions(std::size_t n) {
  desc_.repetitions = n;
  return *this;
}

Run& Run::faults(faults::FaultSpec spec) {
  desc_.sim_options.faults = std::move(spec);
  return *this;
}

Run& Run::link_faults(faults::LinkFaultSpec spec) {
  desc_.sim_options.link = spec;
  return *this;
}

Run& Run::retransmit(bool on) {
  desc_.sim_options.retransmit.enabled = on;
  return *this;
}

Run& Run::retransmit(sim::SimOptions::RetransmitOptions options) {
  desc_.sim_options.retransmit = options;
  return *this;
}

Run& Run::checkpoint_interval(double seconds) {
  desc_.sim_options.checkpoint.interval = seconds;
  return *this;
}

Run& Run::record_trace(bool on) {
  record_trace_ = on;
  return *this;
}

Run& Run::sim_options(sim::SimOptions options) {
  desc_.sim_options = std::move(options);
  return *this;
}

Run& Run::audit(bool on) {
  audit_ = on;
  return *this;
}

config::PreparedPolicy Run::prepare() const {
  return config::policy_spec(desc_.algorithm)
      .prepare(desc_.platform, desc_.w_total, desc_.known_error);
}

RunResult Run::execute_one(const config::PreparedPolicy& prepared, std::uint64_t rep_seed,
                           bool trace) const {
  const std::unique_ptr<sim::SchedulerPolicy> policy = prepared();
  sim::SimOptions options = desc_.sim_options;
  options.seed = rep_seed;
  options.record_trace = trace;

  RunResult out;
  out.sim = simulate(desc_.platform, *policy, options);
  out.makespan = out.sim.makespan;
  out.metrics = out.sim.metrics;
  if (audit_) check::audit_run(out.sim, desc_.platform, desc_.w_total, options).throw_if_failed();

  out.trace = std::move(out.sim.trace);
  return out;
}

RunResult Run::execute() const {
  return execute_one(prepare(), desc_.sim_options.seed, record_trace_);
}

std::vector<RunResult> Run::execute_all() const {
  // Every repetition runs the same (platform, workload, known error), so
  // one plan serves them all.
  const config::PreparedPolicy prepared = prepare();
  std::vector<RunResult> results;
  results.reserve(desc_.repetitions);
  for (std::size_t rep = 0; rep < desc_.repetitions; ++rep) {
    const bool trace = record_trace_ && rep + 1 == desc_.repetitions;
    results.push_back(
        execute_one(prepared, stats::mix_seed(desc_.sim_options.seed, rep), trace));
  }
  return results;
}

JobsRun Run::jobs() const {
  JobsRun jobs_run;
  jobs_run.platform_ = desc_.platform;
  jobs_run.options_.algorithm = desc_.algorithm;
  jobs_run.options_.known_error = desc_.known_error;
  jobs_run.options_.sim = desc_.sim_options;
  jobs_run.audit_ = audit_;
  return jobs_run;
}

JobsRun::JobsRun()
    : platform_(platform::StarPlatform::homogeneous(platform::HomogeneousParams{})) {}

JobsRun JobsRun::from_file(const std::string& path) {
  JobsRun run;
  jobs::JobsDescription description =
      jobs::jobs_from_config(config::ConfigFile::load(path));
  run.platform_ = std::move(description.platform);
  run.options_ = std::move(description.options);
  return run;
}

JobsRun& JobsRun::platform(platform::StarPlatform p) {
  platform_ = std::move(p);
  return *this;
}

JobsRun& JobsRun::stream(jobs::JobStreamSpec spec) {
  options_.stream = std::move(spec);
  pending_load_ = 0.0;
  return *this;
}

JobsRun& JobsRun::poisson(double arrival_rate, std::size_t num_jobs, double mean_size) {
  options_.stream = jobs::JobStreamSpec::poisson(arrival_rate, num_jobs, mean_size);
  pending_load_ = 0.0;
  return *this;
}

JobsRun& JobsRun::poisson_load(double load, std::size_t num_jobs, double mean_size) {
  options_.stream = jobs::JobStreamSpec::poisson(1.0, num_jobs, mean_size);
  pending_load_ = load;
  return *this;
}

JobsRun& JobsRun::sharing(jobs::SharingPolicy policy) {
  options_.sharing = policy;
  return *this;
}

JobsRun& JobsRun::partitions(std::size_t count) {
  options_.partitions = count;
  return *this;
}

JobsRun& JobsRun::max_degree(std::size_t cap) {
  options_.max_degree = cap;
  return *this;
}

JobsRun& JobsRun::discipline(jobs::QueueDiscipline discipline) {
  options_.discipline = discipline;
  return *this;
}

JobsRun& JobsRun::admission(jobs::AdmissionPolicy policy) {
  options_.admission = policy;
  return *this;
}

JobsRun& JobsRun::queue_capacity(std::size_t capacity) {
  options_.queue_capacity = capacity;
  return *this;
}

JobsRun& JobsRun::algorithm(std::string name) {
  options_.algorithm = std::move(name);
  return *this;
}

JobsRun& JobsRun::known_error(double e) {
  options_.known_error = e;
  return *this;
}

JobsRun& JobsRun::error(double e) {
  options_.sim.comm_error = stats::ErrorModel::truncated_normal(e);
  options_.sim.comp_error = stats::ErrorModel::truncated_normal(e);
  return *this;
}

JobsRun& JobsRun::seed(std::uint64_t s) {
  options_.sim.seed = s;
  return *this;
}

JobsRun& JobsRun::record_trace(bool on) {
  options_.record_trace = on;
  return *this;
}

JobsRun& JobsRun::sim_options(sim::SimOptions options) {
  options_.sim = std::move(options);
  return *this;
}

JobsRun& JobsRun::audit(bool on) {
  audit_ = on;
  return *this;
}

jobs::ServiceResult JobsRun::execute() const {
  jobs::JobsOptions options = options_;
  if (pending_load_ > 0.0) {
    options.stream.arrival_rate = jobs::JobStreamSpec::rate_for_load(
        platform_, pending_load_, options.stream.mean_size);
  }
  jobs::ServiceResult result = jobs::run_jobs(platform_, options);
  if (audit_) {
    check::audit_service_result(result, platform_, options).throw_if_failed();
  }
  return result;
}

// --- Race builder ------------------------------------------------------------

namespace {

/// A by-name line-up: each name that resolves in the policy registry. The
/// facade keeps the names, and validate() reports the ones that do not.
std::vector<sweep::AlgorithmSpec> lineup_from_names(const std::vector<std::string>& names) {
  std::vector<sweep::AlgorithmSpec> specs;
  for (const std::string& name : names) {
    if (config::policy_name_problem(name).empty()) specs.push_back(config::policy_spec(name));
  }
  return specs;
}

/// Each platform of `platforms` on which algorithm `name` is too large.
void add_size_problem(std::vector<std::string>& problems, const std::string& name,
                      std::span<const sweep::SweepPlatform> platforms) {
  for (const sweep::SweepPlatform& p : platforms) {
    if (std::string problem = config::policy_size_problem(name, p.platform.size());
        !problem.empty()) {
      problems.push_back("policy \"" + name + "\" on platform \"" + p.label + "\": " + problem);
    }
  }
}

/// The line-up's problems: each name that does not resolve, each member
/// too large for one of `platforms` (by the config name a spec was looked
/// up by; a hand-built spec has none), or an empty line-up when no names
/// were given.
void add_lineup_problems(std::vector<std::string>& problems,
                         const std::vector<sweep::AlgorithmSpec>& specs,
                         const std::vector<std::string>& names,
                         std::span<const sweep::SweepPlatform> platforms) {
  if (specs.empty() && names.empty()) problems.emplace_back("policy line-up is empty");
  for (const std::string& name : names) {
    if (std::string problem = config::policy_name_problem(name); !problem.empty()) {
      problems.push_back("policy \"" + name + "\": " + problem);
    }
  }
  for (const sweep::AlgorithmSpec& spec : specs) {
    add_size_problem(problems, spec.config_name, platforms);
  }
}

}  // namespace

Race::Race()
    : platform_(sweep::SweepPlatform::from_config(sweep::PlatformConfig{})),
      policies_(sweep::racing_competitors()) {}

Race& Race::platform(platform::StarPlatform p, std::string label) {
  platform_ = {std::move(label), std::move(p)};
  return *this;
}

Race& Race::platform(const sweep::PlatformConfig& config) {
  platform_ = sweep::SweepPlatform::from_config(config);
  return *this;
}

Race& Race::error(double e) {
  error_ = e;
  return *this;
}

Race& Race::policies(std::vector<sweep::AlgorithmSpec> specs) {
  policies_ = std::move(specs);
  policy_names_.clear();
  return *this;
}

Race& Race::policies(const std::vector<std::string>& names) {
  policies_ = lineup_from_names(names);
  policy_names_ = names;
  return *this;
}

Race& Race::workload(double units) {
  workload_ = units;
  return *this;
}

Race& Race::delta(double d) {
  delta_ = d;
  return *this;
}

Race& Race::block(std::size_t reps_per_round) {
  block_ = reps_per_round;
  return *this;
}

Race& Race::budget(std::size_t max_reps) {
  budget_ = max_reps;
  return *this;
}

Race& Race::threads(std::size_t n) {
  threads_ = n;
  return *this;
}

Race& Race::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

Race& Race::objective(race::Objective o) {
  objective_ = o;
  return *this;
}

Race& Race::distribution(stats::ErrorDistribution d) {
  distribution_ = d;
  return *this;
}

Race& Race::audit(bool on) {
  audit_ = on;
  return *this;
}

race::RaceOptions Race::race_options() const {
  race::RaceOptions options;
  options.delta = delta_;
  options.block = block_;
  options.max_reps = budget_;
  options.threads = threads_;
  options.base_seed = seed_;
  options.objective = objective_;
  options.w_total = workload_;
  options.distribution = distribution_;
  options.audit_runs = audit_;
  options.audit_result = audit_;
  return options;
}

std::vector<std::string> Race::validate() const {
  std::vector<std::string> problems = race_options().validate();
  add_lineup_problems(problems, policies_, policy_names_, {&platform_, 1});
  if (!std::isfinite(error_) || error_ < 0.0) {
    problems.emplace_back("error level must be finite and non-negative");
  }
  return problems;
}

race::RaceResult Race::execute() const {
  const std::vector<std::string> problems = validate();
  if (!problems.empty()) {
    throw std::invalid_argument(util::join_problems("invalid Race description:", problems));
  }
  return race::race_cell(platform_, policies_, error_, race_options());
}

// --- Sweep builder -----------------------------------------------------------

Sweep::Sweep()
    : policies_(sweep::paper_competitors()),
      errors_(sweep::error_axis()),
      loads_(sweep::load_axis()) {}

Sweep& Sweep::grid(const sweep::GridSpec& spec) { return platforms(sweep::make_grid(spec)); }

Sweep& Sweep::platforms(std::vector<sweep::PlatformConfig> configs) {
  platforms_ = sweep::wrap_grid(configs);
  return *this;
}

Sweep& Sweep::platforms(std::vector<sweep::SweepPlatform> list) {
  platforms_ = std::move(list);
  return *this;
}

Sweep& Sweep::platform(platform::StarPlatform p, std::string label) {
  platforms_.push_back({std::move(label), std::move(p)});
  return *this;
}

Sweep& Sweep::errors(std::vector<double> axis) {
  errors_ = std::move(axis);
  return *this;
}

Sweep& Sweep::policies(std::vector<sweep::AlgorithmSpec> specs) {
  policies_ = std::move(specs);
  policy_names_.clear();
  return *this;
}

Sweep& Sweep::policies(const std::vector<std::string>& names) {
  policies_ = lineup_from_names(names);
  policy_names_ = names;
  return *this;
}

Sweep& Sweep::workload(double units) {
  workload_ = units;
  return *this;
}

Sweep& Sweep::distribution(stats::ErrorDistribution d) {
  distribution_ = d;
  return *this;
}

Sweep& Sweep::faults(faults::FaultSpec spec) {
  faults_ = std::move(spec);
  return *this;
}

Sweep& Sweep::fault_tolerance(sim::SimOptions::FaultToleranceOptions tolerance) {
  fault_tolerance_ = tolerance;
  return *this;
}

Sweep& Sweep::jobs(jobs::JobsOptions base) {
  jobs_base_ = std::move(base);
  jobs_mode_ = true;
  return *this;
}

Sweep& Sweep::loads(std::vector<double> axis) {
  loads_ = std::move(axis);
  jobs_mode_ = true;
  return *this;
}

Sweep& Sweep::race(double delta) {
  race_mode_ = true;
  race_delta_ = delta;
  return *this;
}

Sweep& Sweep::objective(race::Objective o) {
  race_objective_ = o;
  return *this;
}

Sweep& Sweep::on_cell(race::RaceConsumer consumer) {
  race_consumer_ = std::move(consumer);
  return *this;
}

Sweep& Sweep::reps(std::size_t n) {
  reps_ = n;
  return *this;
}

Sweep& Sweep::threads(std::size_t n) {
  threads_ = n;
  return *this;
}

Sweep& Sweep::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

Sweep& Sweep::rep_block(std::size_t n) {
  rep_block_ = n;
  return *this;
}

Sweep& Sweep::audit(bool on) {
  audit_ = on;
  return *this;
}

Sweep& Sweep::on_cell(sweep::CellConsumer consumer) {
  cell_consumer_ = std::move(consumer);
  return *this;
}

Sweep& Sweep::on_cell(sweep::JobsCellConsumer consumer) {
  jobs_consumer_ = std::move(consumer);
  return *this;
}

Sweep& Sweep::buffer(bool on) {
  buffer_ = on;
  return *this;
}

sweep::SweepOptions Sweep::closed_options() const {
  sweep::SweepOptions options;
  options.errors = errors_;
  options.repetitions = reps_ == 0 ? 40 : reps_;
  options.w_total = workload_;
  options.threads = threads_;
  options.base_seed = seed_;
  options.distribution = distribution_;
  options.faults = faults_;
  options.fault_tolerance = fault_tolerance_;
  options.audit_runs = audit_;
  options.rep_block = rep_block_;
  return options;
}

sweep::JobsSweepOptions Sweep::open_options() const {
  sweep::JobsSweepOptions options;
  options.loads = loads_;
  options.repetitions = reps_ == 0 ? 3 : reps_;
  options.threads = threads_;
  options.base_seed = seed_;
  options.base = jobs_base_;
  options.audit_runs = audit_;
  options.rep_block = rep_block_;
  return options;
}

race::RaceOptions Sweep::race_options() const {
  race::RaceOptions options;
  options.delta = race_delta_;
  options.block = rep_block_ == 0 ? 8 : rep_block_;
  options.max_reps = reps_ == 0 ? 256 : reps_;
  options.threads = threads_;
  options.base_seed = seed_;
  options.objective = race_objective_;
  options.w_total = workload_;
  options.distribution = distribution_;
  options.audit_runs = audit_;
  options.audit_result = audit_;
  return options;
}

std::vector<std::string> Sweep::validate() const {
  std::vector<std::string> problems;
  if (platforms_.empty()) {
    problems.emplace_back(
        "platform axis is empty — call grid(), platforms(), or platform() first");
  }
  if (jobs_mode_ && race_mode_) {
    problems.emplace_back(
        "jobs()/loads() and race() were both called — a sweep is either "
        "open-system or raced, not both");
    return problems;
  }
  if (race_mode_) {
    std::vector<std::string> race_problems = race_options().validate();
    for (std::string& p : race_problems) problems.push_back(std::move(p));
    if (errors_.empty()) problems.emplace_back("error axis is empty");
    for (double e : errors_) {
      if (!std::isfinite(e) || e < 0.0) {
        problems.emplace_back("error axis values must be finite and non-negative");
        break;
      }
    }
    add_lineup_problems(problems, policies_, policy_names_, platforms_);
    if (faults_.enabled()) {
      problems.emplace_back(
          "worker faults are set but the race engine does not inject faults — "
          "race the fault-free objective or use a closed-system sweep");
    }
    if (cell_consumer_) {
      problems.emplace_back(
          "a closed-system on_cell consumer is set but the sweep is raced — "
          "use the race::RaceConsumer overload");
    }
    if (jobs_consumer_) {
      problems.emplace_back(
          "an open-system on_cell consumer is set but the sweep is raced — "
          "use the race::RaceConsumer overload");
    }
    if (!buffer_ && !race_consumer_) {
      problems.emplace_back(
          "buffering is disabled and no on_cell consumer is set — every cell would "
          "be discarded");
    }
    return problems;
  }

  std::size_t reps = 0;
  std::size_t axis = 0;
  if (jobs_mode_) {
    const sweep::JobsSweepOptions options = open_options();
    for (std::string& p : options.validate()) problems.push_back(std::move(p));
    add_size_problem(problems, jobs_base_.algorithm, platforms_);
    if (cell_consumer_) {
      problems.emplace_back(
          "a closed-system on_cell consumer is set but the sweep is open-system — "
          "use the sweep::JobsCellConsumer overload");
    }
    if (race_consumer_) {
      problems.emplace_back(
          "a race on_cell consumer is set but the sweep is open-system — "
          "call race() to switch modes, or use the sweep::JobsCellConsumer overload");
    }
    if (!buffer_ && !jobs_consumer_) {
      problems.emplace_back(
          "buffering is disabled and no on_cell consumer is set — every cell would "
          "be discarded");
    }
    reps = options.repetitions;
    axis = options.loads.size();
  } else {
    const sweep::SweepOptions options = closed_options();
    for (std::string& p : options.validate()) problems.push_back(std::move(p));
    add_lineup_problems(problems, policies_, policy_names_, platforms_);
    if (jobs_consumer_) {
      problems.emplace_back(
          "an open-system on_cell consumer is set but the sweep is closed-system — "
          "call jobs() or loads() to switch modes, or use the sweep::CellConsumer "
          "overload");
    }
    if (race_consumer_) {
      problems.emplace_back(
          "a race on_cell consumer is set but the sweep is closed-system — "
          "call race() to switch modes, or use the sweep::CellConsumer overload");
    }
    if (!buffer_ && !cell_consumer_) {
      problems.emplace_back(
          "buffering is disabled and no on_cell consumer is set — every cell would "
          "be discarded");
    }
    reps = options.repetitions;
    axis = options.errors.size();
  }

  if (rep_block_ > reps && reps > 0) {
    problems.emplace_back("rep_block (" + std::to_string(rep_block_) +
                          ") exceeds repetitions (" + std::to_string(reps) +
                          ") — shards cannot be larger than a cell");
  }
  const std::size_t shards =
      platforms_.size() * axis * sweep::shards_per_site(reps, rep_block_);
  if (threads_ > shards && shards > 0) {
    problems.emplace_back("threads (" + std::to_string(threads_) +
                          ") exceeds the total shard count (" + std::to_string(shards) +
                          ") — the extra threads would idle; lower threads or rep_block");
  }
  return problems;
}

void Sweep::throw_if_invalid(const char* what) const {
  const std::vector<std::string> problems = validate();
  if (!problems.empty()) throw std::invalid_argument(util::join_problems(what, problems));
}

std::vector<sweep::SweepCell> Sweep::execute() const {
  if (jobs_mode_) {
    throw std::invalid_argument("this Sweep is in open-system mode — call execute_jobs()");
  }
  if (race_mode_) {
    throw std::invalid_argument("this Sweep is in race mode — call execute_race()");
  }
  throw_if_invalid("invalid Sweep description:");

  std::vector<sweep::SweepCell> cells;
  sweep::run_sweep_streaming(platforms_, policies_, closed_options(),
                             [this, &cells](const sweep::SweepCell& cell) {
                               if (cell_consumer_) cell_consumer_(cell);
                               if (buffer_) cells.push_back(cell);
                             });
  // Site completion order is scheduling-dependent; the buffered view is not.
  std::sort(cells.begin(), cells.end(),
            [](const sweep::SweepCell& a, const sweep::SweepCell& b) {
              return std::tie(a.platform_index, a.error_index, a.algorithm_index) <
                     std::tie(b.platform_index, b.error_index, b.algorithm_index);
            });
  return cells;
}

std::vector<sweep::JobsSweepCell> Sweep::execute_jobs() const {
  if (!jobs_mode_) {
    throw std::invalid_argument(
        "this Sweep is closed-system — call jobs() or loads() first, or execute()");
  }
  throw_if_invalid("invalid Sweep description:");

  std::vector<sweep::JobsSweepCell> cells;
  sweep::run_jobs_sweep(platforms_, open_options(),
                        [this, &cells](const sweep::JobsSweepCell& cell) {
                          if (jobs_consumer_) jobs_consumer_(cell);
                          if (buffer_) cells.push_back(cell);
                        });
  std::sort(cells.begin(), cells.end(),
            [](const sweep::JobsSweepCell& a, const sweep::JobsSweepCell& b) {
              return std::tie(a.platform_index, a.load_index) <
                     std::tie(b.platform_index, b.load_index);
            });
  return cells;
}

std::vector<race::RaceCell> Sweep::execute_race() const {
  if (!race_mode_) {
    throw std::invalid_argument("this Sweep is not raced — call race() first");
  }
  throw_if_invalid("invalid Sweep description:");

  std::vector<race::RaceCell> cells;
  race::run_race_sweep(platforms_, policies_, errors_, race_options(),
                       [this, &cells](const race::RaceCell& cell) {
                         if (race_consumer_) race_consumer_(cell);
                         if (buffer_) cells.push_back(cell);
                       });
  std::sort(cells.begin(), cells.end(),
            [](const race::RaceCell& a, const race::RaceCell& b) {
              return std::tie(a.platform_index, a.error_index) <
                     std::tie(b.platform_index, b.error_index);
            });
  return cells;
}

// --- Serve builder -----------------------------------------------------------

Serve::Serve() = default;

Serve Serve::from_file(const std::string& path) {
  Serve serve;
  serve.options_ = serve::server_options_from_config(config::ConfigFile::load(path));
  return serve;
}

Serve& Serve::threads(std::size_t n) {
  options_.threads = n;
  return *this;
}

Serve& Serve::batch_threads(std::size_t n) {
  options_.batch_threads = n;
  return *this;
}

Serve& Serve::cache_capacity(std::size_t entries) {
  options_.cache_capacity = entries;
  return *this;
}

Serve& Serve::cache_max_bytes(std::size_t bytes) {
  options_.cache_max_bytes = bytes;
  return *this;
}

Serve& Serve::cache_shards(std::size_t n) {
  options_.cache_shards = n;
  return *this;
}

Serve& Serve::queue_capacity(std::size_t n) {
  options_.queue_capacity = n;
  return *this;
}

Serve& Serve::discipline(jobs::QueueDiscipline discipline) {
  options_.discipline = discipline;
  return *this;
}

Serve& Serve::admission(jobs::AdmissionPolicy policy) {
  options_.admission = policy;
  return *this;
}

Serve& Serve::audit(bool on) {
  options_.audit = on;
  return *this;
}

std::vector<std::string> Serve::validate() const { return options_.validate(); }

std::unique_ptr<serve::Server> Serve::make_server() const {
  return std::make_unique<serve::Server>(options_);
}

obs::ServeStats Serve::run(std::istream& in, std::ostream& out) const {
  serve::Server server(options_);
  server.serve_stream(in, out);
  server.wait_idle();
  const obs::ServeStats stats = server.stats();
  if (options_.audit) check::audit_serve_stats(stats, /*drained=*/true).throw_if_failed();
  return stats;
}

}  // namespace rumr
