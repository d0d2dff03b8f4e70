#include "race/race.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "analysis/bounds.hpp"
#include "check/race_audit.hpp"
#include "check/trace_audit.hpp"
#include "race/bounds.hpp"
#include "sim/master_worker.hpp"
#include "sweep/runner.hpp"
#include "sweep/thread_pool.hpp"
#include "util/problems.hpp"

namespace rumr::race {

std::vector<std::string> RaceOptions::validate() const {
  std::vector<std::string> problems;
  if (!(delta > 0.0) || !(delta < 1.0) || !std::isfinite(delta)) {
    problems.emplace_back("delta must lie in (0, 1) — it is a certification error budget");
  }
  if (block < 2) {
    problems.emplace_back(
        "block must be >= 2 — the first elimination check needs a defined variance");
  }
  if (max_reps < 2) problems.emplace_back("max_reps must be >= 2");
  if (!(w_total > 0.0) || !std::isfinite(w_total)) {
    problems.emplace_back("w_total must be positive and finite");
  }
  return problems;
}

namespace {

void throw_invalid(const char* what, const std::vector<std::string>& problems) {
  throw std::invalid_argument(util::join_problems(what, problems));
}

/// The successive-elimination loop. Samples every active arm in synchronized
/// blocks, folds rewards in fixed (arm, rep) order, and prunes arms whose
/// optimistic bound clears the incumbent's pessimistic bound. Validation and
/// the final audit live in the public wrappers.
RaceResult race_core(const std::vector<std::string>& names, const ArmOracle& oracle,
                     const RaceOptions& options) {
  const std::size_t num_arms = names.size();

  RaceResult result;
  result.delta = options.delta;
  result.objective = options.objective;
  result.max_samples = options.max_reps;
  result.arms.resize(num_arms);
  for (std::size_t a = 0; a < num_arms; ++a) result.arms[a].name = names[a];

  std::vector<std::size_t> active(num_arms);
  for (std::size_t a = 0; a < num_arms; ++a) active[a] = a;

  std::size_t samples = 0;  // Per-arm; synchronized across every active arm.
  std::size_t round = 0;
  std::vector<double> rewards;

  while (active.size() > 1 && samples < options.max_reps) {
    ++round;
    const std::size_t take = std::min(options.block, options.max_reps - samples);

    // Map: the (active arm, new rep) grid through parallel_for into
    // preallocated slots. The oracle is a pure function of (arm, rep), so
    // the slot contents never depend on scheduling.
    rewards.assign(active.size() * take, 0.0);
    sweep::parallel_for(
        active.size() * take,
        [&](std::size_t idx) {
          rewards[idx] = oracle(active[idx / take], samples + idx % take);
        },
        options.threads);

    // Fold: fixed (arm ascending, rep ascending) order, so the Welford
    // moments and fingerprints are byte-identical for any thread count.
    for (std::size_t a = 0; a < active.size(); ++a) {
      ArmRecord& arm = result.arms[active[a]];
      for (std::size_t rep = 0; rep < take; ++rep) {
        const double reward = rewards[a * take + rep];
        arm.reward.add(reward);
        arm.lane_fingerprint = fold_fingerprint(arm.lane_fingerprint, reward);
        ++arm.samples;
        ++result.total_samples;
      }
    }
    samples += take;

    // Eliminate: lowest-mean active arm is the incumbent; any arm whose
    // lower bound clears the incumbent's upper bound is out.
    const double delta_eff = round_delta(options.delta, num_arms, round);
    std::size_t best = active.front();
    double pooled_lo = std::numeric_limits<double>::infinity();
    double pooled_hi = -std::numeric_limits<double>::infinity();
    for (const std::size_t idx : active) {
      const stats::Accumulator& reward = result.arms[idx].reward;
      if (reward.mean() < result.arms[best].reward.mean()) best = idx;
      pooled_lo = std::min(pooled_lo, reward.min());
      pooled_hi = std::max(pooled_hi, reward.max());
    }
    const double range = pooled_hi - pooled_lo;
    const stats::Accumulator& best_reward = result.arms[best].reward;
    const double best_ucb =
        best_reward.mean() + confidence_radius(best_reward.variance(), range, samples, delta_eff);

    std::vector<std::size_t> survivors;
    survivors.reserve(active.size());
    for (const std::size_t idx : active) {
      if (idx == best) {
        survivors.push_back(idx);
        continue;
      }
      const stats::Accumulator& reward = result.arms[idx].reward;
      const double arm_lcb =
          reward.mean() - confidence_radius(reward.variance(), range, samples, delta_eff);
      if (arm_lcb > best_ucb) {
        ArmRecord& arm = result.arms[idx];
        arm.eliminated = true;
        arm.eliminated_round = round;
        EliminationRecord record;
        record.arm = idx;
        record.best = best;
        record.round = round;
        record.samples = samples;
        record.arm_mean = reward.mean();
        record.arm_variance = reward.variance();
        record.best_mean = best_reward.mean();
        record.best_variance = best_reward.variance();
        record.range = range;
        record.delta_eff = delta_eff;
        record.arm_lcb = arm_lcb;
        record.best_ucb = best_ucb;
        result.eliminations.push_back(record);
      } else {
        survivors.push_back(idx);
      }
    }
    active = std::move(survivors);
  }

  result.rounds = round;
  result.budget_exhausted = active.size() > 1;
  std::size_t winner = active.front();
  for (const std::size_t idx : active) {
    if (result.arms[idx].reward.mean() < result.arms[winner].reward.mean()) winner = idx;
  }
  result.winner = winner;
  return result;
}

}  // namespace

RaceResult run_race(const std::vector<std::string>& names, const ArmOracle& oracle,
                    const RaceOptions& options) {
  std::vector<std::string> problems = options.validate();
  if (names.empty()) problems.emplace_back("at least one arm is required");
  if (!oracle) problems.emplace_back("an arm oracle is required");
  if (!problems.empty()) throw_invalid("invalid race request:", problems);

  RaceResult result = race_core(names, oracle, options);
  if (options.audit_result) check::audit_race_result(result).throw_if_failed();
  return result;
}

RaceResult race_cell(const sweep::SweepPlatform& platform,
                     const std::vector<sweep::AlgorithmSpec>& algorithms, double error,
                     const RaceOptions& options) {
  std::vector<std::string> problems = options.validate();
  if (algorithms.empty()) problems.emplace_back("at least one algorithm is required");
  if (!std::isfinite(error) || error < 0.0) {
    problems.emplace_back("error must be non-negative and finite");
  }
  if (!problems.empty()) throw_invalid("invalid race-cell request:", problems);

  std::vector<std::string> names;
  names.reserve(algorithms.size());
  for (const sweep::AlgorithmSpec& spec : algorithms) names.push_back(spec.name);

  // The slowdown objective normalizes by the cell's combined makespan lower
  // bound — constant per cell, so it rescales rewards without reordering
  // arms, but makes cells comparable across platforms.
  double lower_bound = 1.0;
  if (options.objective == Objective::kSlowdown) {
    lower_bound =
        analysis::makespan_lower_bounds(platform.platform, options.w_total).combined();
  }

  // Each arm's plan depends only on the cell, so it is solved once here and
  // every repetition runs a fresh instance of it; the plans die with the
  // cell.
  std::vector<sweep::PreparedPolicy> arms;
  arms.reserve(algorithms.size());
  for (const sweep::AlgorithmSpec& spec : algorithms) {
    arms.push_back(spec.prepare(platform.platform, options.w_total, error));
  }

  const ArmOracle oracle = [&platform, &arms, error, lower_bound, &options](std::size_t arm,
                                                                           std::size_t rep) {
    // One seed per repetition, shared by every arm: all arms face the same
    // perturbation lanes, keeping the comparisons paired.
    const std::uint64_t seed =
        sweep::derive_rep_seed(options.base_seed, platform.label, error, rep);
    const auto policy = arms[arm]();
    sim::SimOptions sim_options;
    sim_options.comm_error = stats::ErrorModel(options.distribution, error);
    sim_options.comp_error = stats::ErrorModel(options.distribution, error);
    sim_options.seed = seed;
    const sim::SimResult sim_result = sim::simulate(platform.platform, *policy, sim_options);
    if (options.audit_runs) {
      check::audit_run(sim_result, platform.platform, options.w_total, sim_options)
          .throw_if_failed();
    }
    return sim_result.makespan / lower_bound;
  };

  RaceResult result = race_core(names, oracle, options);
  result.platform_label = platform.label;
  result.error = error;
  if (options.audit_result) check::audit_race_result(result).throw_if_failed();
  return result;
}

void run_race_sweep(const std::vector<sweep::SweepPlatform>& platforms,
                    const std::vector<sweep::AlgorithmSpec>& algorithms,
                    const std::vector<double>& errors, const RaceOptions& options,
                    const RaceConsumer& consumer) {
  std::vector<std::string> problems = options.validate();
  if (platforms.empty()) problems.emplace_back("platforms axis is empty — nothing to race");
  if (errors.empty()) problems.emplace_back("errors axis is empty — nothing to race");
  for (const double e : errors) {
    if (!std::isfinite(e) || e < 0.0) {
      problems.emplace_back("errors axis contains a negative or non-finite level");
      break;
    }
  }
  if (algorithms.empty()) problems.emplace_back("at least one algorithm is required");
  if (!consumer) problems.emplace_back("a cell consumer is required");
  if (!problems.empty()) throw_invalid("invalid race-sweep request:", problems);

  // Cells are the parallel unit; each cell's race runs inline so its result
  // is trivially independent of the outer thread count (and identical to a
  // standalone race_cell at any threads= setting).
  RaceOptions cell_options = options;
  cell_options.threads = 1;
  const std::size_t num_errors = errors.size();
  std::mutex emit_mutex;

  sweep::parallel_for(
      platforms.size() * num_errors,
      [&](std::size_t site) {
        RaceCell cell;
        cell.platform_index = site / num_errors;
        cell.error_index = site % num_errors;
        cell.platform_label = platforms[cell.platform_index].label;
        cell.error = errors[cell.error_index];
        cell.result =
            race_cell(platforms[cell.platform_index], algorithms, cell.error, cell_options);
        const std::lock_guard lock(emit_mutex);
        consumer(cell);
      },
      options.threads);
}

}  // namespace rumr::race
