#include "sweep/golden.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include <algorithm>

#include "check/service_audit.hpp"
#include "check/trace_audit.hpp"
#include "faults/fault_model.hpp"
#include "jobs/job_manager.hpp"
#include "platform/platform.hpp"
#include "race/race.hpp"
#include "sim/master_worker.hpp"
#include "sweep/runner.hpp"
#include "sweep/scheduler_factory.hpp"
#include "util/json_lite.hpp"

namespace rumr::sweep::golden {

namespace {

/// The paper-figure algorithm line-up the fixtures pin down.
std::vector<AlgorithmSpec> golden_lineup() {
  return {umr_spec(), rumr_spec(), factoring_spec(), mi_spec(2), weighted_factoring_spec()};
}

/// Full scenario definition: platform + workload + error + seed + faults.
/// `tune` (optional) adjusts the remaining SimOptions — link-fault spec,
/// retransmit protocol, checkpoint interval — after the common fields are
/// set; nullptr leaves the defaults.
struct ScenarioDef {
  const char* name;
  double w_total;
  double error;
  std::uint64_t seed;
  platform::StarPlatform (*make_platform)();
  faults::FaultSpec (*make_faults)();
  void (*tune)(sim::SimOptions&);
};

platform::StarPlatform homogeneous_10() {
  return platform::StarPlatform::homogeneous({.workers = 10, .speed = 1.0, .bandwidth = 15.0,
                                              .comp_latency = 0.05, .comm_latency = 0.02,
                                              .transfer_latency = 0.01});
}

platform::StarPlatform heterogeneous_4() {
  return platform::StarPlatform({
      {2.0, 20.0, 0.05, 0.02, 0.01},
      {1.0, 12.0, 0.05, 0.02, 0.01},
      {0.5, 8.0, 0.05, 0.02, 0.01},
      {1.5, 16.0, 0.05, 0.02, 0.01},
  });
}

faults::FaultSpec no_faults() { return faults::FaultSpec::none(); }

/// Two overlapping transient outages: the master fences both workers,
/// reclaims their chunks, and re-dispatches to survivors — the full
/// failure-handling path, yet fully scripted (no fault-RNG draws).
faults::FaultSpec scripted_outages() {
  return faults::FaultSpec::scripted({
      {1, {5.0, 60.0}},
      {3, {12.0, 45.0}},
  });
}

/// Lossy, spiky, periodically degraded link with the adaptive retransmit
/// protocol and partial-work checkpointing engaged — pins the full
/// communication-fault stack: per-worker link RNG lanes, RFC6298 timer
/// arming order, duplicate suppression, and banked-work accounting. Any
/// reordering of those draws or events drifts this fixture.
void faulty_link_options(sim::SimOptions& options) {
  faults::LinkFaultSpec link;
  link.loss = 0.08;
  link.spike_probability = 0.05;
  link.spike_mean = 0.5;
  link.degraded_mtbf = 30.0;
  link.degraded_mttr = 6.0;
  link.degraded_factor = 4.0;
  options.link = link;
  options.retransmit.enabled = true;
  options.checkpoint.interval = 0.5;
}

/// The multi-job open-system scenario (see record_jobs_scenario). Reuses the
/// single-run fixture schema with a documented field mapping, one case per
/// sharing policy.
constexpr const char* kJobsScenario = "jobs-poisson";

/// The sharded sweep-engine scenario (see record_sweep_scenario): pins the
/// cell aggregates — and therefore the shard decomposition, per-rep seed
/// derivation, and fixed-order merge tree — of a small multi-threaded sweep.
constexpr const char* kSweepScenario = "sweep-sharded";

/// The best-arm racing scenario (see record_race_scenario): pins a small
/// race's per-arm sample counts, elimination rounds, winner, and the
/// seed-lane reward fingerprints — and therefore the shared-seed derivation,
/// the fixed-order reward fold, and the elimination math of race/race.cpp.
constexpr const char* kRaceScenario = "race-small";

constexpr ScenarioDef kScenarios[] = {
    {"homogeneous-10", 1000.0, 0.3, 42, &homogeneous_10, &no_faults, nullptr},
    {"heterogeneous-4", 400.0, 0.2, 7, &heterogeneous_4, &no_faults, nullptr},
    {"faults-scripted", 1000.0, 0.2, 11, &homogeneous_10, &scripted_outages, nullptr},
    // Scripted worker outages *and* a faulty link: fencing and re-dispatch
    // race retransmissions and banked partial work.
    {"faulty-link", 600.0, 0.2, 13, &homogeneous_10, &scripted_outages,
     &faulty_link_options},
    // jobs-poisson is handled by record_jobs_scenario; w_total stands in for
    // the per-job mean size.
    {kJobsScenario, 300.0, 0.2, 17, &homogeneous_10, &no_faults, nullptr},
    // sweep-sharded is handled by record_sweep_scenario; error is the top of
    // the two-level error axis {0, error}.
    {kSweepScenario, 500.0, 0.3, 23, &homogeneous_10, &no_faults, nullptr},
    // race-small is handled by record_race_scenario.
    {kRaceScenario, 500.0, 0.3, 29, &homogeneous_10, &no_faults, nullptr},
};

const ScenarioDef& find_scenario(const std::string& name) {
  for (const ScenarioDef& def : kScenarios) {
    if (name == def.name) return def;
  }
  throw std::invalid_argument("golden: unknown scenario '" + name + "'");
}

void emit_case(std::ostringstream& out, const GoldenCase& c, bool last) {
  out << "    {\"algorithm\": \"" << c.algorithm << "\", \"makespan\": " << c.makespan
      << ", \"work_dispatched\": " << c.work_dispatched
      << ", \"uplink_busy_time\": " << c.uplink_busy_time << ", \"chunks\": " << c.chunks
      << ", \"events\": " << c.events << ", \"chunks_redispatched\": " << c.chunks_redispatched
      << "}" << (last ? "" : ",") << "\n";
}

std::uint64_t as_count(const util::JsonValue& v, const char* what) {
  const double d = v.as_number();
  if (d < 0.0 || d != std::floor(d)) {
    throw std::runtime_error(std::string("golden: '") + what + "' is not a whole count");
  }
  return static_cast<std::uint64_t>(d);
}

bool close(double a, double b, double rel_tol) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= rel_tol * scale;
}

}  // namespace

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioDef& def : kScenarios) names.emplace_back(def.name);
  return names;
}

/// Fingerprints one multi-job open-system run per sharing policy. GoldenCase
/// fields are reused under this mapping:
///   algorithm          <- sharing-policy name
///   makespan           <- ServiceResult::horizon
///   work_dispatched    <- ServiceResult::total_work
///   uplink_busy_time   <- ServiceResult::area_jobs_in_system (Little's-law
///                         integral: drifts on ANY timeline perturbation)
///   chunks             <- completed jobs
///   events             <- manager + oracle DES events
///   chunks_redispatched<- rejected + shed jobs
GoldenScenario record_jobs_scenario(const ScenarioDef& def) {
  const platform::StarPlatform platform = def.make_platform();

  GoldenScenario scenario;
  scenario.name = def.name;
  scenario.w_total = def.w_total;
  scenario.error = def.error;
  scenario.seed = def.seed;

  for (const jobs::SharingPolicy sharing :
       {jobs::SharingPolicy::kExclusive, jobs::SharingPolicy::kPartitioned,
        jobs::SharingPolicy::kFractional}) {
    jobs::JobsOptions options;
    options.sharing = sharing;
    options.partitions = 2;
    options.stream = jobs::JobStreamSpec::poisson(
        jobs::JobStreamSpec::rate_for_load(platform, 0.7, def.w_total), 40, def.w_total);
    options.stream.size_dist = jobs::SizeDistribution::kUniform;
    options.stream.size_spread = 0.4;
    options.known_error = def.error;
    options.sim = sim::SimOptions::with_error(def.error, def.seed);
    const jobs::ServiceResult result = jobs::run_jobs(platform, options);

    // A fingerprint of a run that violates its own invariants is worthless.
    check::audit_service_result(result, platform, options).throw_if_failed();

    GoldenCase c;
    c.algorithm = jobs::to_string(sharing);
    c.makespan = result.horizon;
    c.work_dispatched = result.total_work;
    c.uplink_busy_time = result.area_jobs_in_system;
    c.chunks = result.completed;
    c.events = result.manager_events + result.oracle_events;
    c.chunks_redispatched = result.rejected + result.shed;
    scenario.cases.push_back(std::move(c));
  }
  return scenario;
}

/// Fingerprints a small sweep through the sharded streaming engine — one
/// platform, error axis {0, def.error}, the golden line-up, 6 repetitions in
/// 2-rep shards on 4 threads. The engine's determinism contract makes the
/// thread count irrelevant to the bytes produced; running threaded in the
/// regression suite keeps that claim continuously tested. GoldenCase fields
/// are reused under this mapping:
///   algorithm          <- "<algorithm>@err=<error>"
///   makespan           <- cell makespan mean over reps
///   work_dispatched    <- cell makespan variance (sensitive to the merge
///                         tree: any reorder of the Chan merges drifts it)
///   uplink_busy_time   <- cell uplink-utilization sum over reps
///   chunks             <- repetitions folded into the cell
///   events             <- total DES events across the cell's reps
///   chunks_redispatched<- paired per-rep reference wins
GoldenScenario record_sweep_scenario(const ScenarioDef& def) {
  GoldenScenario scenario;
  scenario.name = def.name;
  scenario.w_total = def.w_total;
  scenario.error = def.error;
  scenario.seed = def.seed;

  SweepOptions options;
  options.errors = {0.0, def.error};
  options.repetitions = 6;
  options.rep_block = 2;
  options.threads = 4;
  options.w_total = def.w_total;
  options.base_seed = def.seed;

  std::vector<SweepCell> cells;
  run_sweep_streaming({SweepPlatform{"golden-hom-10", def.make_platform()}}, golden_lineup(),
                      options, [&cells](const SweepCell& cell) { cells.push_back(cell); });
  // Emission order across sites is unspecified; fixture order is not.
  std::sort(cells.begin(), cells.end(), [](const SweepCell& a, const SweepCell& b) {
    return a.error_index != b.error_index ? a.error_index < b.error_index
                                          : a.algorithm_index < b.algorithm_index;
  });

  std::ostringstream label;
  for (const SweepCell& cell : cells) {
    label.str("");
    label << cell.algorithm << "@err=" << cell.error;
    GoldenCase c;
    c.algorithm = label.str();
    c.makespan = cell.stats.makespan.mean();
    c.work_dispatched = cell.stats.makespan.variance();
    c.uplink_busy_time = cell.stats.uplink_utilization.sum();
    c.chunks = cell.stats.reps;
    c.events = static_cast<std::uint64_t>(std::llround(cell.stats.events.sum()));
    c.chunks_redispatched = cell.stats.ref_wins;
    scenario.cases.push_back(std::move(c));
  }
  return scenario;
}

/// Fingerprints one best-arm race through race::race_cell — five arms from
/// the racing line-up, blocks of 8 up to a 64-rep budget, 4 threads (the race
/// core's determinism contract makes the thread count irrelevant to the bytes
/// produced, and running threaded keeps that claim continuously tested). One
/// case per arm plus a trailing "@summary" case. GoldenCase fields are reused
/// under this mapping:
///
///   per-arm case:
///     algorithm          <- arm name
///     makespan           <- arm reward mean
///     work_dispatched    <- arm reward variance (drifts on any fold reorder)
///     uplink_busy_time   <- arm reward sum
///     chunks             <- arm samples at race end
///     events             <- arm seed-lane reward fingerprint, the 64-bit
///                           FNV-1a folded to 32 bits (the fixture round-trips
///                           counts through doubles, so 2^53 is the ceiling)
///     chunks_redispatched<- elimination round (0 = survivor)
///   "@summary" case:
///     makespan           <- winner index
///     work_dispatched    <- total samples spent
///     uplink_busy_time   <- delta
///     chunks             <- rounds run
///     events             <- eliminations recorded
///     chunks_redispatched<- 1 if budget_exhausted else 0
GoldenScenario record_race_scenario(const ScenarioDef& def) {
  GoldenScenario scenario;
  scenario.name = def.name;
  scenario.w_total = def.w_total;
  scenario.error = def.error;
  scenario.seed = def.seed;

  const std::vector<AlgorithmSpec> arms = {rumr_spec(), rumr_fixed_spec(50), umr_spec(),
                                           factoring_spec(), fsc_spec()};

  race::RaceOptions options;
  options.block = 16;
  options.max_reps = 384;
  options.threads = 4;
  options.base_seed = def.seed;
  options.w_total = def.w_total;
  // audit_runs / audit_result stay on: a fingerprint of a race that violates
  // its own ledger invariants is worthless.
  const race::RaceResult result = race::race_cell(
      SweepPlatform{"golden-hom-10", def.make_platform()}, arms, def.error, options);

  for (const race::ArmRecord& arm : result.arms) {
    GoldenCase c;
    c.algorithm = arm.name;
    c.makespan = arm.reward.mean();
    c.work_dispatched = arm.reward.variance();
    c.uplink_busy_time = arm.reward.sum();
    c.chunks = arm.samples;
    c.events = (arm.lane_fingerprint ^ (arm.lane_fingerprint >> 32)) & 0xffffffffULL;
    c.chunks_redispatched = arm.eliminated_round;
    scenario.cases.push_back(std::move(c));
  }

  GoldenCase summary;
  summary.algorithm = "@summary";
  summary.makespan = static_cast<double>(result.winner);
  summary.work_dispatched = static_cast<double>(result.total_samples);
  summary.uplink_busy_time = result.delta;
  summary.chunks = result.rounds;
  summary.events = result.eliminations.size();
  summary.chunks_redispatched = result.budget_exhausted ? 1 : 0;
  scenario.cases.push_back(std::move(summary));
  return scenario;
}

GoldenScenario record_scenario(const std::string& name) {
  const ScenarioDef& def = find_scenario(name);
  if (name == kJobsScenario) return record_jobs_scenario(def);
  if (name == kSweepScenario) return record_sweep_scenario(def);
  if (name == kRaceScenario) return record_race_scenario(def);
  const platform::StarPlatform platform = def.make_platform();

  GoldenScenario scenario;
  scenario.name = def.name;
  scenario.w_total = def.w_total;
  scenario.error = def.error;
  scenario.seed = def.seed;

  for (const AlgorithmSpec& spec : golden_lineup()) {
    auto policy = spec.make(platform, def.w_total, def.error);
    sim::SimOptions options = sim::SimOptions::with_error(def.error, def.seed);
    options.faults = def.make_faults();
    if (def.tune != nullptr) def.tune(options);
    const sim::SimResult result = sim::simulate(platform, *policy, options);

    // A fingerprint of a run that violates its own invariants is worthless.
    check::audit_run(result, platform, def.w_total, options).throw_if_failed();

    GoldenCase c;
    c.algorithm = spec.name;
    c.makespan = result.makespan;
    c.work_dispatched = result.work_dispatched;
    c.uplink_busy_time = result.uplink_busy_time;
    c.chunks = result.chunks_dispatched;
    c.events = result.events;
    c.chunks_redispatched = result.faults.chunks_redispatched;
    scenario.cases.push_back(std::move(c));
  }
  return scenario;
}

std::string to_json(const GoldenScenario& scenario) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\n"
      << "  \"schema\": \"rumr-golden-v1\",\n"
      << "  \"scenario\": \"" << scenario.name << "\",\n"
      << "  \"w_total\": " << scenario.w_total << ",\n"
      << "  \"error\": " << scenario.error << ",\n"
      << "  \"seed\": " << scenario.seed << ",\n"
      << "  \"cases\": [\n";
  for (std::size_t i = 0; i < scenario.cases.size(); ++i) {
    emit_case(out, scenario.cases[i], i + 1 == scenario.cases.size());
  }
  out << "  ]\n}\n";
  return out.str();
}

GoldenScenario from_json(const std::string& text) {
  const util::JsonValue doc = util::JsonValue::parse(text);
  if (doc.at("schema").as_string() != "rumr-golden-v1") {
    throw std::runtime_error("golden: unrecognized fixture schema");
  }
  GoldenScenario scenario;
  scenario.name = doc.at("scenario").as_string();
  scenario.w_total = doc.at("w_total").as_number();
  scenario.error = doc.at("error").as_number();
  scenario.seed = as_count(doc.at("seed"), "seed");
  for (const util::JsonValue& entry : doc.at("cases").as_array()) {
    GoldenCase c;
    c.algorithm = entry.at("algorithm").as_string();
    c.makespan = entry.at("makespan").as_number();
    c.work_dispatched = entry.at("work_dispatched").as_number();
    c.uplink_busy_time = entry.at("uplink_busy_time").as_number();
    c.chunks = as_count(entry.at("chunks"), "chunks");
    c.events = as_count(entry.at("events"), "events");
    c.chunks_redispatched = as_count(entry.at("chunks_redispatched"), "chunks_redispatched");
    scenario.cases.push_back(std::move(c));
  }
  return scenario;
}

std::vector<std::string> compare(const GoldenScenario& expected, const GoldenScenario& fresh,
                                 double rel_tol) {
  std::vector<std::string> diffs;
  std::ostringstream line;
  line << std::setprecision(17);
  const auto diff = [&diffs, &line](const auto&... parts) {
    line.str("");
    (line << ... << parts);
    diffs.push_back(line.str());
  };

  if (expected.name != fresh.name) {
    diff("scenario name: expected '", expected.name, "', got '", fresh.name, "'");
    return diffs;
  }
  if (expected.cases.size() != fresh.cases.size()) {
    diff("case count: expected ", expected.cases.size(), ", got ", fresh.cases.size());
    return diffs;
  }
  for (std::size_t i = 0; i < expected.cases.size(); ++i) {
    const GoldenCase& e = expected.cases[i];
    const GoldenCase& f = fresh.cases[i];
    if (e.algorithm != f.algorithm) {
      diff("case ", i, ": algorithm expected '", e.algorithm, "', got '", f.algorithm, "'");
      continue;
    }
    const auto check_double = [&](const char* what, double want, double got) {
      if (!close(want, got, rel_tol)) {
        diff(e.algorithm, " ", what, ": expected ", want, ", got ", got);
      }
    };
    const auto check_count = [&](const char* what, std::uint64_t want, std::uint64_t got) {
      if (want != got) diff(e.algorithm, " ", what, ": expected ", want, ", got ", got);
    };
    check_double("makespan", e.makespan, f.makespan);
    check_double("work_dispatched", e.work_dispatched, f.work_dispatched);
    check_double("uplink_busy_time", e.uplink_busy_time, f.uplink_busy_time);
    check_count("chunks", e.chunks, f.chunks);
    check_count("events", e.events, f.events);
    check_count("chunks_redispatched", e.chunks_redispatched, f.chunks_redispatched);
  }
  return diffs;
}

}  // namespace rumr::sweep::golden
