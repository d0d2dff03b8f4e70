#include "sweep/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "check/merge_audit.hpp"
#include "check/service_audit.hpp"
#include "check/trace_audit.hpp"
#include "jobs/job_stream.hpp"
#include "sim/master_worker.hpp"
#include "stats/rng.hpp"
#include "sweep/thread_pool.hpp"
#include "util/problems.hpp"

namespace rumr::sweep {

std::vector<std::string> SweepOptions::validate() const {
  std::vector<std::string> problems;
  if (errors.empty()) problems.emplace_back("errors axis is empty — nothing to sweep");
  for (double e : errors) {
    if (!std::isfinite(e) || e < 0.0) {
      problems.emplace_back("errors axis contains a negative or non-finite level");
      break;
    }
  }
  if (repetitions == 0) problems.emplace_back("repetitions must be >= 1");
  if (!(w_total > 0.0) || !std::isfinite(w_total)) {
    problems.emplace_back("w_total must be positive and finite");
  }
  if (faults.enabled()) {
    if (!(fault_tolerance.timeout_slack > 1.0) || !std::isfinite(fault_tolerance.timeout_slack)) {
      problems.emplace_back("fault_tolerance.timeout_slack must be > 1 and finite");
    }
    if (!(fault_tolerance.backoff_base >= 0.0) || !(fault_tolerance.backoff_factor >= 1.0) ||
        !(fault_tolerance.backoff_max >= 0.0)) {
      problems.emplace_back("fault_tolerance backoff parameters are malformed");
    }
  }
  return problems;
}

std::uint64_t derive_rep_seed(std::uint64_t base_seed, const std::string& platform_label,
                              double axis_value, std::size_t rep) noexcept {
  // FNV-1a folds the label into the seed so any star platform — not just a
  // Table 1 lattice point — gets a stable identity; the axis value is
  // quantized onto a 1e-3 lattice so axis-generation FP noise cannot move
  // the seed.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : platform_label) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  const auto quantized = static_cast<std::uint64_t>(std::llround(axis_value * 1000.0));
  return stats::mix_seed(base_seed ^ hash, quantized, rep);
}

void CellStats::merge(const CellStats& other) {
  makespan.merge(other.makespan);
  reps += other.reps;
  ref_wins += other.ref_wins;
  ref_wins_by_10pct += other.ref_wins_by_10pct;
  uplink_utilization.merge(other.uplink_utilization);
  worker_utilization.merge(other.worker_utilization);
  events.merge(other.events);
  hol_blocking_time.merge(other.hol_blocking_time);
  work_redispatched.merge(other.work_redispatched);
  makespan_quantiles.merge(other.makespan_quantiles);
}

void JobsCellStats::merge(const JobsCellStats& other) {
  arrived += other.arrived;
  admitted += other.admitted;
  rejected += other.rejected;
  shed += other.shed;
  completed += other.completed;
  manager_events += other.manager_events;
  oracle_runs += other.oracle_runs;
  oracle_events += other.oracle_events;
  reps += other.reps;
  mean_response.merge(other.mean_response);
  mean_slowdown.merge(other.mean_slowdown);
  utilization.merge(other.utilization);
  share_utilization.merge(other.share_utilization);
  horizon.merge(other.horizon);
  response_times.merge(other.response_times);
  slowdowns.merge(other.slowdowns);
  queue_waits.merge(other.queue_waits);
  job_sizes.merge(other.job_sizes);
}

namespace {

sim::SimOptions make_sim_options(double error, std::uint64_t seed,
                                 stats::ErrorDistribution distribution,
                                 const faults::FaultSpec& faults,
                                 const sim::SimOptions::FaultToleranceOptions& tolerance) {
  sim::SimOptions options;
  options.comm_error = stats::ErrorModel(distribution, error);
  options.comp_error = stats::ErrorModel(distribution, error);
  options.seed = seed;
  options.faults = faults;
  options.fault_tolerance = tolerance;
  return options;
}

void throw_invalid(const char* what, const std::vector<std::string>& problems) {
  throw std::invalid_argument(util::join_problems(what, problems));
}

/// Repetitions per shard: rep_block, or ceil(reps / 8) when it is 0, clamped
/// to [1, reps].
std::size_t block_size(std::size_t reps, std::size_t rep_block) noexcept {
  if (rep_block == 0) rep_block = (reps + 7) / 8;
  return std::clamp<std::size_t>(rep_block, 1, std::max<std::size_t>(reps, 1));
}

/// The map-reduce scaffold shared by the closed- and open-system engines.
///
/// Runs `sites x blocks` shards across parallel_for. Each site keeps a slot
/// per shard partial plus an atomic countdown; the shard that lands last
/// reduces the site's partials **in shard-index order** (the release/acquire
/// pair on the countdown makes every earlier partial visible to it) and
/// emits under a shared mutex, so consumers see serialized calls. Per-site
/// memory dies with the emission — completed sites hold nothing.
template <typename Partial, typename RunShard, typename Emit>
void run_sharded(std::size_t sites, std::size_t blocks, std::size_t threads,
                 const RunShard& run_shard, const Emit& emit) {
  struct Site {
    std::vector<std::optional<Partial>> parts;
    std::atomic<std::size_t> remaining{0};
  };
  std::vector<Site> state(sites);
  for (Site& site : state) {
    site.parts.resize(blocks);
    site.remaining.store(blocks, std::memory_order_relaxed);
  }
  std::mutex emit_mutex;

  parallel_for(
      sites * blocks,
      [&](std::size_t shard) {
        const std::size_t site_idx = shard / blocks;
        const std::size_t block = shard % blocks;
        Site& site = state[site_idx];
        site.parts[block] = run_shard(site_idx, block);
        if (site.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          Partial merged = std::move(*site.parts[0]);
          for (std::size_t b = 1; b < blocks; ++b) {
            merged.merge(*site.parts[b]);
            site.parts[b].reset();
          }
          site.parts.clear();
          site.parts.shrink_to_fit();
          const std::lock_guard lock(emit_mutex);
          emit(site_idx, std::move(merged));
        }
      },
      threads);
}

/// A closed-system site partial: one CellStats per algorithm.
struct ClosedPartial {
  std::vector<CellStats> cells;

  void merge(const ClosedPartial& other) {
    for (std::size_t a = 0; a < cells.size(); ++a) cells[a].merge(other.cells[a]);
  }
};

/// A site's line-up, prepared once by the first shard that reaches the site
/// and freed when the site emits.
struct SiteLineup {
  std::once_flag prepared;
  std::vector<PreparedPolicy> policies;
};

ClosedPartial run_closed_shard(const SweepPlatform& site, double error, std::size_t rep_begin,
                               std::size_t rep_end, const std::vector<PreparedPolicy>& lineup,
                               const SweepOptions& options) {
  ClosedPartial partial;
  partial.cells.resize(lineup.size());
  std::vector<double> makespans(lineup.size());
  for (std::size_t rep = rep_begin; rep < rep_end; ++rep) {
    // One seed per repetition, shared by every algorithm: the reference and
    // its competitors face the same perturbation draw, keeping the win-rate
    // comparisons paired (the paper's Tables 2-3 methodology).
    const std::uint64_t seed = derive_rep_seed(options.base_seed, site.label, error, rep);
    for (std::size_t a = 0; a < lineup.size(); ++a) {
      const auto policy = lineup[a]();
      const sim::SimOptions sim_options = make_sim_options(
          error, seed, options.distribution, options.faults, options.fault_tolerance);
      const sim::SimResult sim_result = simulate(site.platform, *policy, sim_options);
      makespans[a] = sim_result.makespan;

      if (options.audit_runs) {
        check::audit_run(sim_result, site.platform, options.w_total, sim_options)
            .throw_if_failed();
      }

      const obs::RunMetrics& m = sim_result.metrics;
      CellStats& cell = partial.cells[a];
      cell.uplink_utilization.add(m.engine.uplink_utilization);
      cell.worker_utilization.add(m.engine.mean_worker_utilization);
      cell.events.add(static_cast<double>(m.des.events_executed));
      cell.hol_blocking_time.add(m.engine.hol_blocking_time);
      cell.work_redispatched.add(m.engine.work_redispatched);
    }
    for (std::size_t a = 0; a < lineup.size(); ++a) {
      CellStats& cell = partial.cells[a];
      cell.makespan.add(makespans[a]);
      cell.makespan_quantiles.add(makespans[a]);
      ++cell.reps;
      if (makespans[0] < makespans[a]) ++cell.ref_wins;
      if (makespans[0] * 1.10 <= makespans[a]) ++cell.ref_wins_by_10pct;
    }
  }
  return partial;
}

}  // namespace

/// Deliberately a function of (reps, rep_block) only — NEVER of the thread
/// count — so the shard structure, and therefore the fixed-order merge tree,
/// is identical for every threads= setting.
std::size_t shards_per_site(std::size_t reps, std::size_t rep_block) noexcept {
  const std::size_t block = block_size(reps, rep_block);
  return (reps + block - 1) / block;
}

void run_sweep_streaming(const std::vector<SweepPlatform>& platforms,
                         const std::vector<AlgorithmSpec>& algorithms,
                         const SweepOptions& options, const CellConsumer& consumer) {
  std::vector<std::string> problems = options.validate();
  if (platforms.empty()) problems.emplace_back("platforms axis is empty — nothing to sweep");
  if (algorithms.empty()) problems.emplace_back("at least one algorithm is required");
  if (!consumer) problems.emplace_back("a cell consumer is required");
  if (!problems.empty()) throw_invalid("invalid sweep request:", problems);

  const std::size_t rep_block = block_size(options.repetitions, options.rep_block);
  const std::size_t blocks = shards_per_site(options.repetitions, options.rep_block);
  const std::size_t num_errors = options.errors.size();
  const std::size_t num_sites = platforms.size() * num_errors;

  // Plans depend only on (platform, w_total, error), so every repetition of
  // a site runs from one prepared line-up. It is shared across the site's
  // shards — a shard may hold a single repetition — and lives only until the
  // site emits, so memory stays bounded by the sites in flight.
  std::vector<SiteLineup> lineups(num_sites);

  run_sharded<ClosedPartial>(
      num_sites, blocks, options.threads,
      [&](std::size_t site, std::size_t block) {
        const SweepPlatform& platform = platforms[site / num_errors];
        const double error = options.errors[site % num_errors];
        SiteLineup& lineup = lineups[site];
        std::call_once(lineup.prepared, [&] {
          // Built aside, so a prepare that throws leaves nothing half-built
          // for the shard that retries.
          std::vector<PreparedPolicy> policies;
          policies.reserve(algorithms.size());
          for (const AlgorithmSpec& spec : algorithms) {
            policies.push_back(spec.prepare(platform.platform, options.w_total, error));
          }
          lineup.policies = std::move(policies);
        });
        const std::size_t rep_begin = block * rep_block;
        const std::size_t rep_end = std::min(options.repetitions, rep_begin + rep_block);
        return run_closed_shard(platform, error, rep_begin, rep_end, lineup.policies, options);
      },
      [&](std::size_t site, ClosedPartial&& merged) {
        // Every shard of the site has finished with its plans.
        std::vector<PreparedPolicy>().swap(lineups[site].policies);
        const std::size_t platform_idx = site / num_errors;
        const std::size_t error_idx = site % num_errors;
        for (std::size_t a = 0; a < algorithms.size(); ++a) {
          SweepCell cell;
          cell.platform_index = platform_idx;
          cell.error_index = error_idx;
          cell.algorithm_index = a;
          cell.platform_label = platforms[platform_idx].label;
          cell.algorithm = algorithms[a].name;
          cell.error = options.errors[error_idx];
          cell.stats = std::move(merged.cells[a]);
          consumer(cell);
        }
      });
}

SweepResult::SweepResult(std::size_t platforms, std::vector<double> errors,
                         std::vector<std::string> algorithms)
    : platforms_(platforms),
      errors_(std::move(errors)),
      algorithms_(std::move(algorithms)),
      means_(platforms_ * errors_.size() * algorithms_.size()) {}

void SweepResult::add(const SweepCell& cell) {
  if (cell.platform_index >= platforms_ || cell.error_index >= errors_.size() ||
      cell.algorithm_index >= algorithms_.size()) {
    throw std::out_of_range("SweepResult::add: the cell's indices lie outside the fold");
  }
  means_[(cell.platform_index * errors_.size() + cell.error_index) * algorithms_.size() +
         cell.algorithm_index] = cell.stats.makespan.mean();
}

double SweepResult::mean_makespan(std::size_t platform, std::size_t error,
                                  std::size_t algo) const {
  return means_[(platform * errors_.size() + error) * algorithms_.size() + algo];
}

double SweepResult::mean_normalized_makespan(std::size_t error, std::size_t algo) const {
  stats::Accumulator ratios;
  for (std::size_t p = 0; p < platforms_; ++p) {
    const double reference = mean_makespan(p, error, 0);
    const double competitor = mean_makespan(p, error, algo);
    if (reference > 0.0) ratios.add(competitor / reference);
  }
  return ratios.mean();
}

double SweepResult::win_percentage(std::size_t band, std::size_t algo, bool by_margin) const {
  std::size_t wins = 0;
  std::size_t total = 0;
  for (std::size_t e = 0; e < errors_.size(); ++e) {
    if (error_band(errors_[e]) != band) continue;
    for (std::size_t p = 0; p < platforms_; ++p) {
      const double reference = mean_makespan(p, e, 0);
      const double competitor = mean_makespan(p, e, algo);
      ++total;
      if (by_margin ? reference * 1.10 <= competitor : reference < competitor) ++wins;
    }
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(wins) / static_cast<double>(total);
}

double SweepResult::overall_win_percentage(std::size_t algo) const {
  std::size_t wins = 0;
  std::size_t total = 0;
  for (std::size_t e = 0; e < errors_.size(); ++e) {
    for (std::size_t p = 0; p < platforms_; ++p) {
      ++total;
      if (mean_makespan(p, e, 0) < mean_makespan(p, e, algo)) ++wins;
    }
  }
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(wins) / static_cast<double>(total);
}

// --- open-system sweeps ------------------------------------------------------

std::vector<std::string> JobsSweepOptions::validate() const {
  std::vector<std::string> problems;
  if (loads.empty()) problems.emplace_back("loads axis is empty — nothing to sweep");
  for (double l : loads) {
    if (!std::isfinite(l) || !(l > 0.0)) {
      problems.emplace_back("loads axis contains a non-positive or non-finite load");
      break;
    }
  }
  if (repetitions == 0) problems.emplace_back("repetitions must be >= 1");
  if (base.stream.kind != jobs::ArrivalKind::kPoisson) {
    problems.emplace_back(
        "base.stream must be a Poisson stream — the load axis maps to arrival rates");
  } else {
    // The engine overwrites arrival_rate per (platform, load); validate the
    // rest of the template with a placeholder rate so an unset rate is not a
    // spurious complaint.
    jobs::JobsOptions probe = base;
    probe.stream.arrival_rate = 1.0;
    for (std::string& p : probe.validate()) problems.push_back(std::move(p));
  }
  return problems;
}

namespace {

JobsCellStats run_jobs_shard(const SweepPlatform& site, double load, std::size_t rep_begin,
                             std::size_t rep_end, const JobsSweepOptions& options) {
  JobsCellStats cell;
  for (std::size_t rep = rep_begin; rep < rep_end; ++rep) {
    jobs::JobsOptions run_options = options.base;
    run_options.stream.arrival_rate = jobs::JobStreamSpec::rate_for_load(
        site.platform, load, run_options.stream.mean_size);
    run_options.sim.seed = derive_rep_seed(options.base_seed, site.label, load, rep);
    const jobs::ServiceResult run = jobs::run_jobs(site.platform, run_options);
    if (options.audit_runs) {
      check::audit_service_result(run, site.platform, run_options).throw_if_failed();
    }
    cell.arrived += run.arrived;
    cell.admitted += run.admitted;
    cell.rejected += run.rejected;
    cell.shed += run.shed;
    cell.completed += run.completed;
    cell.manager_events += run.manager_events;
    cell.oracle_runs += run.oracle_runs;
    cell.oracle_events += run.oracle_events;
    cell.mean_response.add(run.mean_response());
    cell.mean_slowdown.add(run.mean_slowdown());
    cell.utilization.add(run.utilization);
    cell.share_utilization.add(run.share_utilization);
    cell.horizon.add(run.horizon);
    cell.response_times.merge(run.stats.response_times);
    cell.slowdowns.merge(run.stats.slowdowns);
    cell.queue_waits.merge(run.stats.queue_waits);
    cell.job_sizes.merge(run.stats.job_sizes);
    ++cell.reps;
  }
  return cell;
}

}  // namespace

void run_jobs_sweep(const std::vector<SweepPlatform>& platforms,
                    const JobsSweepOptions& options, const JobsCellConsumer& consumer) {
  std::vector<std::string> problems = options.validate();
  if (platforms.empty()) problems.emplace_back("platforms axis is empty — nothing to sweep");
  if (!consumer) problems.emplace_back("a cell consumer is required");
  if (!problems.empty()) throw_invalid("invalid jobs-sweep request:", problems);

  const std::size_t rep_block = block_size(options.repetitions, options.rep_block);
  const std::size_t blocks = shards_per_site(options.repetitions, options.rep_block);
  const std::size_t num_loads = options.loads.size();

  run_sharded<JobsCellStats>(
      platforms.size() * num_loads, blocks, options.threads,
      [&](std::size_t site, std::size_t block) {
        const std::size_t rep_begin = block * rep_block;
        const std::size_t rep_end = std::min(options.repetitions, rep_begin + rep_block);
        return run_jobs_shard(platforms[site / num_loads], options.loads[site % num_loads],
                              rep_begin, rep_end, options);
      },
      [&](std::size_t site, JobsCellStats&& merged) {
        JobsSweepCell cell;
        cell.platform_index = site / num_loads;
        cell.load_index = site % num_loads;
        cell.platform_label = platforms[cell.platform_index].label;
        cell.load = options.loads[cell.load_index];
        cell.stats = std::move(merged);
        consumer(cell);
      });
}

// --- merge-consistency audits ------------------------------------------------

namespace {

void audit_exact(const std::string& label, const char* what, std::uint64_t merged,
                 std::uint64_t serial, check::AuditReport& report) {
  if (merged != serial) {
    report.violations.push_back(label + ": " + what + " merged=" + std::to_string(merged) +
                                " serial=" + std::to_string(serial));
  }
}

}  // namespace

void audit_cell_merge(const std::string& label, const CellStats& merged,
                      const CellStats& serial, check::AuditReport& report) {
  check::audit_accumulator_merge(label + ".makespan", merged.makespan, serial.makespan, report);
  check::audit_accumulator_merge(label + ".uplink_utilization", merged.uplink_utilization,
                                 serial.uplink_utilization, report);
  check::audit_accumulator_merge(label + ".worker_utilization", merged.worker_utilization,
                                 serial.worker_utilization, report);
  check::audit_accumulator_merge(label + ".events", merged.events, serial.events, report);
  check::audit_accumulator_merge(label + ".hol_blocking_time", merged.hol_blocking_time,
                                 serial.hol_blocking_time, report);
  check::audit_accumulator_merge(label + ".work_redispatched", merged.work_redispatched,
                                 serial.work_redispatched, report);
  check::audit_sketch_merge(label + ".makespan_quantiles", merged.makespan_quantiles,
                            serial.makespan_quantiles, report);
  audit_exact(label, "reps", merged.reps, serial.reps, report);
  audit_exact(label, "ref_wins", merged.ref_wins, serial.ref_wins, report);
  audit_exact(label, "ref_wins_by_10pct", merged.ref_wins_by_10pct, serial.ref_wins_by_10pct,
              report);
}

void audit_cell_merge(const std::string& label, const JobsCellStats& merged,
                      const JobsCellStats& serial, check::AuditReport& report) {
  audit_exact(label, "arrived", merged.arrived, serial.arrived, report);
  audit_exact(label, "admitted", merged.admitted, serial.admitted, report);
  audit_exact(label, "rejected", merged.rejected, serial.rejected, report);
  audit_exact(label, "shed", merged.shed, serial.shed, report);
  audit_exact(label, "completed", merged.completed, serial.completed, report);
  audit_exact(label, "manager_events", merged.manager_events, serial.manager_events, report);
  audit_exact(label, "oracle_runs", merged.oracle_runs, serial.oracle_runs, report);
  audit_exact(label, "oracle_events", merged.oracle_events, serial.oracle_events, report);
  audit_exact(label, "reps", merged.reps, serial.reps, report);
  check::audit_accumulator_merge(label + ".mean_response", merged.mean_response,
                                 serial.mean_response, report);
  check::audit_accumulator_merge(label + ".mean_slowdown", merged.mean_slowdown,
                                 serial.mean_slowdown, report);
  check::audit_accumulator_merge(label + ".utilization", merged.utilization, serial.utilization,
                                 report);
  check::audit_accumulator_merge(label + ".share_utilization", merged.share_utilization,
                                 serial.share_utilization, report);
  check::audit_accumulator_merge(label + ".horizon", merged.horizon, serial.horizon, report);
  check::audit_histogram_merge(label + ".response_times", merged.response_times,
                               serial.response_times, report);
  check::audit_histogram_merge(label + ".slowdowns", merged.slowdowns, serial.slowdowns, report);
  check::audit_histogram_merge(label + ".queue_waits", merged.queue_waits, serial.queue_waits,
                               report);
  check::audit_histogram_merge(label + ".job_sizes", merged.job_sizes, serial.job_sizes, report);
}

}  // namespace rumr::sweep
