// chaos_campaign — seeded chaos-testing certifier for the fault stack.
//
// Sweeps a (message-loss, bandwidth-degradation, worker-MTBF, prediction-
// error) grid over Table 1-style platforms, runs every scheduling policy at
// every point with the retransmit protocol and partial-work checkpointing
// engaged, and self-audits each run with check::audit_sim_result (work
// conservation, banked-work accounting, exactly-once re-dispatch, span
// identities). A run that fails its audit or raises an engine error is
// shrunk — axes are zeroed one at a time while the failure persists — to a
// minimal reproducer, so a chaos regression lands as a four-number recipe
// instead of a 200-run haystack.
//
// Emits results/CHAOS.json: per-run records, per-policy graceful-degradation
// curves (mean makespan inflation vs the fault-free baseline, grouped by
// loss severity), and the shrunk reproducers for every failure.
//
// Usage: chaos_campaign [--grid small|full] [--seed S] [--out FILE]
//                       [--error-exit]
//
//   --grid small   2 platforms x 24 fault points (CI default, ~1 s)
//   --grid full    4 platforms x 108 fault points
//   --error-exit   exit nonzero when any run fails (CI gate semantics)

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "check/trace_audit.hpp"
#include "faults/fault_model.hpp"
#include "sim/master_worker.hpp"
#include "stats/rng.hpp"
#include "sweep/grid.hpp"
#include "sweep/scheduler_factory.hpp"
#include "util/json_lite.hpp"

namespace {

using namespace rumr;

constexpr double kWTotal = 500.0;

/// One point of the chaos grid. Zero on an axis disables that fault family,
/// which is exactly what the shrinker exploits.
struct ChaosPoint {
  double loss = 0.0;             ///< Per-message loss probability.
  double degraded_factor = 1.0;  ///< Bandwidth stretch (1 = no degradation).
  double mtbf = 0.0;             ///< Worker transient MTBF (0 = no crashes).
  double error = 0.0;            ///< Prediction-error level.

  [[nodiscard]] bool faulty() const {
    return loss > 0.0 || degraded_factor > 1.0 || mtbf > 0.0;
  }
};

struct Scenario {
  sweep::PlatformConfig platform;
  ChaosPoint point;
};

struct RunRecord {
  std::string policy;
  std::string platform_label;
  ChaosPoint point;
  bool ok = false;
  std::string failure;  ///< Audit summary or engine error; empty when ok.
  double makespan = 0.0;
  std::size_t retransmits = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t checkpoints_banked = 0;
  double work_banked = 0.0;
  std::size_t messages_lost = 0;
  std::size_t fencings = 0;
};

sim::SimOptions chaos_options(const ChaosPoint& point, std::uint64_t seed) {
  sim::SimOptions options = sim::SimOptions::with_error(point.error, seed);
  options.record_trace = true;
  // Livelock guard: a scenario whose fault churn outruns all progress (every
  // chunk killed before completion) must fail fast and get shrunk, not hang.
  options.max_events = 2'000'000;
  if (point.loss > 0.0 || point.degraded_factor > 1.0) {
    faults::LinkFaultSpec link;
    link.loss = point.loss;
    if (point.degraded_factor > 1.0) {
      link.degraded_mtbf = 20.0;
      link.degraded_mttr = 5.0;
      link.degraded_factor = point.degraded_factor;
    }
    options.link = link;
  }
  if (point.mtbf > 0.0) {
    options.faults = faults::FaultSpec::transient(point.mtbf, point.mtbf / 10.0);
  }
  if (point.faulty()) {
    options.retransmit.enabled = point.loss > 0.0;
    options.checkpoint.interval = 0.5;
  }
  return options;
}

/// Runs one (scenario, policy) cell; returns ok + failure description.
RunRecord run_cell(const Scenario& scenario, const sweep::AlgorithmSpec& spec,
                   std::uint64_t seed) {
  RunRecord record;
  record.policy = spec.name;
  record.platform_label = scenario.platform.label();
  record.point = scenario.point;

  const platform::StarPlatform platform = scenario.platform.to_platform();
  const sim::SimOptions options = chaos_options(scenario.point, seed);
  const auto policy = spec.make(platform, kWTotal, scenario.point.error);
  try {
    const sim::SimResult result = simulate(platform, *policy, options);
    const check::AuditReport audit = check::audit_run(result, platform, kWTotal, options);
    record.ok = audit.ok();
    if (!record.ok) record.failure = audit.summary();
    record.makespan = result.makespan;
    record.retransmits = result.faults.retransmits;
    record.duplicates_suppressed = result.faults.duplicates_suppressed;
    record.checkpoints_banked = result.faults.checkpoints_banked;
    record.work_banked = result.faults.work_banked;
    record.messages_lost = result.faults.messages_lost;
    record.fencings = result.faults.suspicions;
  } catch (const std::exception& error) {
    record.ok = false;
    record.failure = error.what();
  }
  return record;
}

/// Greedy shrink: try to zero one axis at a time (then shrink the platform),
/// keeping each mutation only if the failure persists, until a fixed point.
/// The result is a minimal reproducer in the sense that re-enabling any
/// remaining axis is necessary for the failure.
Scenario shrink_failure(Scenario scenario, const sweep::AlgorithmSpec& spec,
                        std::uint64_t seed) {
  const auto still_fails = [&](const Scenario& candidate) {
    return !run_cell(candidate, spec, seed).ok;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    const auto try_mutation = [&](Scenario candidate) {
      if (still_fails(candidate)) {
        scenario = candidate;
        changed = true;
      }
    };
    if (scenario.point.loss > 0.0) {
      Scenario candidate = scenario;
      candidate.point.loss = 0.0;
      try_mutation(candidate);
    }
    if (scenario.point.degraded_factor > 1.0) {
      Scenario candidate = scenario;
      candidate.point.degraded_factor = 1.0;
      try_mutation(candidate);
    }
    if (scenario.point.mtbf > 0.0) {
      Scenario candidate = scenario;
      candidate.point.mtbf = 0.0;
      try_mutation(candidate);
    }
    if (scenario.point.error > 0.0) {
      Scenario candidate = scenario;
      candidate.point.error = 0.0;
      try_mutation(candidate);
    }
    if (scenario.platform.n > 2) {
      Scenario candidate = scenario;
      candidate.platform.n = scenario.platform.n / 2;
      try_mutation(candidate);
    }
  }
  return scenario;
}

util::JsonValue point_value(const ChaosPoint& point) {
  using util::JsonValue;
  return JsonValue::object({{"loss", JsonValue::number(point.loss)},
                            {"degraded_factor", JsonValue::number(point.degraded_factor)},
                            {"mtbf", JsonValue::number(point.mtbf)},
                            {"error", JsonValue::number(point.error)}});
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid = "small";
  std::string out_path = "results/CHAOS.json";
  std::uint64_t seed = 0xC4A05ULL;
  bool error_exit = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--grid" && i + 1 < argc) {
      grid = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--error-exit") {
      error_exit = true;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_campaign [--grid small|full] [--seed S] [--out FILE]"
                   " [--error-exit]\n");
      return 2;
    }
  }
  if (grid != "small" && grid != "full") {
    std::fprintf(stderr, "chaos_campaign: --grid must be 'small' or 'full'\n");
    return 2;
  }
  const bool full = grid == "full";

  // Table 1-style platforms: homogeneous stars with B = b_over_n * N.
  std::vector<sweep::PlatformConfig> platforms = {
      {10, 1.5, 0.3, 0.3},
      {20, 1.2, 0.1, 0.1},
  };
  if (full) {
    platforms.push_back({30, 2.0, 0.5, 0.5});
    platforms.push_back({50, 1.2, 1.0, 1.0});
  }

  const std::vector<double> loss_axis = full ? std::vector<double>{0.0, 0.02, 0.1, 0.25}
                                             : std::vector<double>{0.0, 0.1, 0.25};
  const std::vector<double> degrade_axis = full ? std::vector<double>{1.0, 4.0, 16.0}
                                                : std::vector<double>{1.0, 8.0};
  const std::vector<double> mtbf_axis = full ? std::vector<double>{0.0, 400.0, 100.0}
                                             : std::vector<double>{0.0, 150.0};
  const std::vector<double> error_axis = full ? std::vector<double>{0.0, 0.2, 0.4}
                                              : std::vector<double>{0.0, 0.3};

  const std::vector<sweep::AlgorithmSpec> algorithms = {
      sweep::rumr_spec(), sweep::umr_spec(), sweep::factoring_spec()};

  std::vector<Scenario> scenarios;
  for (const sweep::PlatformConfig& platform : platforms) {
    for (const double loss : loss_axis) {
      for (const double degraded : degrade_axis) {
        for (const double mtbf : mtbf_axis) {
          for (const double error : error_axis) {
            scenarios.push_back({platform, {loss, degraded, mtbf, error}});
          }
        }
      }
    }
  }

  std::vector<RunRecord> records;
  std::vector<std::pair<RunRecord, Scenario>> failures;  // Record + shrunk repro.
  // Baselines for the degradation curves: fault-free makespan per
  // (policy, platform, error) cell.
  std::map<std::string, double> baseline;
  const auto baseline_key = [](const std::string& policy, const std::string& platform,
                               double error) {
    std::ostringstream key;
    key << policy << '|' << platform << '|' << error;
    return key.str();
  };

  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      const std::uint64_t cell_seed = stats::mix_seed(seed, s, a);
      RunRecord record = run_cell(scenario, algorithms[a], cell_seed);
      if (!record.ok) {
        std::fprintf(stderr, "FAIL %s @ %s (loss=%g degrade=%g mtbf=%g error=%g)\n",
                     record.policy.c_str(), record.platform_label.c_str(),
                     scenario.point.loss, scenario.point.degraded_factor, scenario.point.mtbf,
                     scenario.point.error);
        const Scenario repro = shrink_failure(scenario, algorithms[a], cell_seed);
        std::fprintf(stderr,
                     "  minimal reproducer: N=%zu loss=%g degrade=%g mtbf=%g error=%g"
                     " seed=%llu\n",
                     repro.platform.n, repro.point.loss, repro.point.degraded_factor,
                     repro.point.mtbf, repro.point.error,
                     static_cast<unsigned long long>(cell_seed));
        failures.emplace_back(record, repro);
      } else if (!scenario.point.faulty()) {
        baseline[baseline_key(record.policy, record.platform_label, scenario.point.error)] =
            record.makespan;
      }
      records.push_back(std::move(record));
    }
  }

  // Graceful-degradation curves: per policy, mean makespan inflation over the
  // fault-free baseline of the same (platform, error) cell, grouped by loss.
  struct CurvePoint {
    double slowdown_sum = 0.0;
    std::size_t runs = 0;
  };
  std::map<std::string, std::map<double, CurvePoint>> curves;
  for (const RunRecord& record : records) {
    if (!record.ok) continue;
    const auto it =
        baseline.find(baseline_key(record.policy, record.platform_label, record.point.error));
    if (it == baseline.end() || it->second <= 0.0) continue;
    CurvePoint& point = curves[record.policy][record.point.loss];
    point.slowdown_sum += record.makespan / it->second;
    ++point.runs;
  }

  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(out_path).parent_path(), ec);
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "chaos_campaign: cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  using util::JsonValue;
  JsonValue runs = JsonValue::array();
  for (const RunRecord& r : records) {
    runs.push_back(JsonValue::object(
        {{"policy", JsonValue::string(r.policy)},
         {"platform", JsonValue::string(r.platform_label)},
         {"point", point_value(r.point)},
         {"ok", JsonValue::boolean(r.ok)},
         {"makespan", JsonValue::number_or_null(r.makespan)},
         {"messages_lost", JsonValue::number(r.messages_lost)},
         {"retransmits", JsonValue::number(r.retransmits)},
         {"duplicates_suppressed", JsonValue::number(r.duplicates_suppressed)},
         {"fencings", JsonValue::number(r.fencings)},
         {"checkpoints_banked", JsonValue::number(r.checkpoints_banked)},
         {"work_banked", JsonValue::number_or_null(r.work_banked)}}));
  }
  JsonValue curve_doc = JsonValue::object();
  for (const auto& [policy, points] : curves) {
    JsonValue curve = JsonValue::array();
    for (const auto& [loss, point] : points) {
      curve.push_back(JsonValue::object(
          {{"loss", JsonValue::number(loss)},
           {"mean_slowdown",
            JsonValue::number_or_null(point.slowdown_sum / static_cast<double>(point.runs))},
           {"runs", JsonValue::number(point.runs)}}));
    }
    curve_doc.set(policy, std::move(curve));
  }
  JsonValue failure_list = JsonValue::array();
  for (const auto& [record, repro] : failures) {
    failure_list.push_back(JsonValue::object(
        {{"policy", JsonValue::string(record.policy)},
         {"platform", JsonValue::string(record.platform_label)},
         {"point", point_value(record.point)},
         {"what", JsonValue::string(record.failure)},
         {"minimal", JsonValue::object({{"workers", JsonValue::number(repro.platform.n)},
                                        {"point", point_value(repro.point)}})}}));
  }
  JsonValue doc = JsonValue::object({{"grid", JsonValue::string(grid)},
                                     {"seed", JsonValue::number(static_cast<double>(seed))},
                                     {"w_total", JsonValue::number(kWTotal)},
                                     {"scenarios", JsonValue::number(scenarios.size())}});
  doc.set("runs", std::move(runs));
  doc.set("curves", std::move(curve_doc));
  doc.set("failures", std::move(failure_list));
  out << doc.dump() << '\n';

  std::printf("chaos_campaign: %zu scenarios x %zu policies = %zu runs, %zu failures -> %s\n",
              scenarios.size(), algorithms.size(), records.size(), failures.size(),
              out_path.c_str());
  for (const auto& [policy, points] : curves) {
    std::printf("  %-12s", policy.c_str());
    for (const auto& [loss, point] : points) {
      std::printf("  loss=%-5g x%.3f", loss,
                  point.slowdown_sum / static_cast<double>(point.runs));
    }
    std::printf("\n");
  }
  return (error_exit && !failures.empty()) ? 1 : 0;
}
