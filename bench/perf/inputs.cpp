#include "inputs.hpp"

#include <bit>
#include <deque>
#include <future>
#include <numeric>
#include <sstream>
#include <utility>

namespace rumr::bench {

void Digest::add(std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffULL;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }

std::uint64_t lane_seed(const Config& config, std::uint64_t lane) noexcept {
  return stats::mix_seed(config.seed, lane, 0x62656e6368ULL);
}

std::vector<std::size_t> seeded_subset(std::size_t n, std::size_t count, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  stats::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  order.resize(std::min(count, n));
  return order;
}

// --- sweep-table2 -------------------------------------------------------------

SweepInputs sweep_inputs(const Config& config) {
  SweepInputs in;
  sweep::GridSpec spec;
  if (config.smoke) {
    spec = {{10, 20}, {1.2, 2.0}, {0.3}, {0.0}};
    in.errors = {0.1, 0.3};
    in.lineup = {sweep::rumr_spec(), sweep::umr_spec(), sweep::factoring_spec()};
    in.reps = 2;
  } else {
    spec = {{10, 30, 50}, {1.2, 1.6, 2.0}, {0.0, 0.3, 0.7, 1.0}, {0.0, 0.3, 0.7, 1.0}};
    in.errors = {0.0, 0.1, 0.2, 0.3, 0.4};
    in.lineup = sweep::paper_competitors();
    in.reps = 8;
  }
  in.configs = sweep::make_grid(spec);
  in.base_seed = lane_seed(config, 1);
  return in;
}

rumr::Sweep make_sweep(const SweepInputs& in, const std::vector<sweep::PlatformConfig>& configs,
                       std::vector<double> errors, std::size_t threads) {
  // One repetition per shard is what the default resolves to for 8
  // repetitions; pinning it keeps the traced replay's merge order exact.
  // The facade refuses more threads than shards.
  const std::size_t shards = configs.size() * errors.size() * in.reps;
  rumr::Sweep sweep;
  sweep.platforms(configs)
      .errors(std::move(errors))
      .policies(in.lineup)
      .reps(in.reps)
      .rep_block(1)
      .threads(std::min(threads, shards))
      .seed(in.base_seed);
  return sweep;
}

std::uint64_t digest_cells(const std::vector<sweep::SweepCell>& cells) {
  Digest digest;
  for (const sweep::SweepCell& cell : cells) {
    digest.add(static_cast<std::uint64_t>(cell.platform_index));
    digest.add(static_cast<std::uint64_t>(cell.error_index));
    digest.add(static_cast<std::uint64_t>(cell.algorithm_index));
    digest.add(static_cast<std::uint64_t>(cell.stats.reps));
    digest.add(cell.stats.makespan.mean());
    digest.add(cell.stats.makespan.variance());
    digest.add(static_cast<std::uint64_t>(cell.stats.ref_wins));
    digest.add(cell.stats.events.mean());
  }
  return digest.value();
}

// --- race-cell ----------------------------------------------------------------

RaceInputs race_inputs(const Config& config) {
  RaceInputs in;
  if (config.smoke) {
    in.platforms = {{10, 1.5, 0.1, 0.1}};
    in.errors = {0.3};
    in.lineup = {sweep::rumr_spec(), sweep::umr_spec(), sweep::fsc_spec()};
    in.block = 4;
    in.budget = 16;
  } else {
    in.platforms = {{10, 1.5, 0.1, 0.1}, {15, 1.2, 0.3, 0.2}, {20, 1.8, 0.5, 0.1},
                    {30, 1.4, 0.2, 0.5}, {40, 2.0, 0.7, 0.3}, {50, 1.6, 0.0, 0.7}};
    in.errors = {0.1, 0.3};
    in.lineup = sweep::extended_competitors();
  }
  in.base_seed = lane_seed(config, 2);
  return in;
}

rumr::Race make_race(const RaceInputs& in, std::size_t cell, std::size_t threads) {
  rumr::Race race;
  race.platform(in.platforms[cell / in.errors.size()])
      .error(in.errors[cell % in.errors.size()])
      .policies(in.lineup)
      .delta(in.delta)
      .block(in.block)
      .budget(in.budget)
      .threads(threads)
      .seed(in.base_seed);
  return race;
}

std::uint64_t digest_race(const race::RaceResult& result) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(result.winner));
  digest.add(static_cast<std::uint64_t>(result.budget_exhausted));
  digest.add(static_cast<std::uint64_t>(result.rounds));
  digest.add(static_cast<std::uint64_t>(result.total_samples));
  for (const race::ArmRecord& arm : result.arms) {
    digest.add(static_cast<std::uint64_t>(arm.samples));
    digest.add(static_cast<std::uint64_t>(arm.eliminated_round));
    digest.add(arm.lane_fingerprint);
  }
  return digest.value();
}

// --- jobs-open ------------------------------------------------------------------

JobsInputs jobs_inputs(const Config& config) {
  JobsInputs in{platform::StarPlatform::homogeneous({.workers = 10,
                                                      .speed = 1.0,
                                                      .bandwidth = 15.0,
                                                      .comp_latency = 0.2,
                                                      .comm_latency = 0.1}),
                {}};
  const std::size_t runs = config.smoke ? 2 : 96;
  const std::size_t jobs_per_run = config.smoke ? 20 : 400;
  constexpr double kLoad = 0.85;
  constexpr double kMeanSize = 300.0;
  jobs::JobStreamSpec stream = jobs::JobStreamSpec::poisson(
      jobs::JobStreamSpec::rate_for_load(in.platform, kLoad, kMeanSize), jobs_per_run, kMeanSize);
  stream.size_dist = jobs::SizeDistribution::kUniform;
  stream.size_spread = 0.4;
  for (std::size_t run = 0; run < runs; ++run) {
    rumr::JobsRun jobs_run;
    jobs_run.platform(in.platform)
        .stream(stream)
        .sharing(jobs::SharingPolicy::kFractional)
        .algorithm("rumr")
        .known_error(0.2)
        .error(0.2)
        .seed(stats::mix_seed(lane_seed(config, 3), run));
    in.runs.push_back(std::move(jobs_run));
  }
  return in;
}

std::uint64_t digest_service(const jobs::ServiceResult& result) {
  Digest digest;
  digest.add(static_cast<std::uint64_t>(result.arrived));
  digest.add(static_cast<std::uint64_t>(result.completed));
  digest.add(static_cast<std::uint64_t>(result.manager_events));
  digest.add(static_cast<std::uint64_t>(result.oracle_runs));
  digest.add(static_cast<std::uint64_t>(result.oracle_events));
  digest.add(result.horizon);
  digest.add(result.residence_time);
  return digest.value();
}

// --- serve ----------------------------------------------------------------------

serve::ServerOptions serve_options(std::size_t threads) {
  return rumr::Serve().threads(threads).options();
}

std::size_t serve_batch_queries(const Config& config) { return config.smoke ? 2 : 16; }

namespace {

util::JsonValue homogeneous_platform(double workers, double bandwidth, double comp_latency,
                                     double comm_latency) {
  util::JsonValue params = util::JsonValue::object();
  params.set("workers", util::JsonValue::number(workers));
  params.set("speed", util::JsonValue::number(1.0));
  params.set("bandwidth", util::JsonValue::number(bandwidth));
  params.set("comp_latency", util::JsonValue::number(comp_latency));
  params.set("comm_latency", util::JsonValue::number(comm_latency));
  util::JsonValue platform = util::JsonValue::object();
  platform.set("homogeneous", std::move(params));
  return platform;
}

/// Three worker classes (fast, medium, slow), four workers each; the network
/// still feeds the aggregate compute rate (sum of S/B = 0.78 < 1).
util::JsonValue heterogeneous_platform() {
  struct WorkerClass {
    double speed, bandwidth, comp_latency, comm_latency;
  };
  constexpr WorkerClass kClasses[] = {
      {2.0, 30.0, 0.1, 0.05}, {1.0, 15.0, 0.2, 0.1}, {0.5, 8.0, 0.4, 0.2}};
  util::JsonValue workers = util::JsonValue::array();
  for (const WorkerClass& c : kClasses) {
    for (int i = 0; i < 4; ++i) {
      util::JsonValue worker = util::JsonValue::object();
      worker.set("speed", util::JsonValue::number(c.speed));
      worker.set("bandwidth", util::JsonValue::number(c.bandwidth));
      worker.set("comp_latency", util::JsonValue::number(c.comp_latency));
      worker.set("comm_latency", util::JsonValue::number(c.comm_latency));
      workers.push_back(std::move(worker));
    }
  }
  util::JsonValue platform = util::JsonValue::object();
  platform.set("workers", std::move(workers));
  return platform;
}

}  // namespace

BatchGenerator::BatchGenerator(std::uint64_t seed, std::size_t queries_per_batch)
    : rng_(seed), queries_per_batch_(queries_per_batch) {}

util::JsonValue BatchGenerator::next_query() {
  static constexpr const char* kAlgorithms[] = {"rumr", "umr", "mi-2", "factoring"};
  static constexpr double kErrors[] = {0.1, 0.2, 0.3, 0.4};
  util::JsonValue query = util::JsonValue::object();
  switch (rng_.uniform_index(3)) {
    case 0:
      query.set("platform", homogeneous_platform(10, 15.0, 0.2, 0.1));
      break;
    case 1:
      query.set("platform", homogeneous_platform(30, 48.0, 0.3, 0.1));
      break;
    default:
      query.set("platform", heterogeneous_platform());
      break;
  }
  const double error = kErrors[rng_.uniform_index(4)];
  query.set("workload", util::JsonValue::number(1000.0));
  query.set("algorithm", util::JsonValue::string(kAlgorithms[rng_.uniform_index(4)]));
  query.set("known_error", util::JsonValue::number(error));
  query.set("error", util::JsonValue::number(error));
  // A fresh 64-bit draw per query: distinct seeds make distinct cache keys.
  query.set("seed", util::JsonValue::string(std::to_string(rng_.next_u64())));
  return query;
}

std::string BatchGenerator::next_frame() {
  util::JsonValue queries = util::JsonValue::array();
  for (std::size_t i = 0; i < queries_per_batch_; ++i) queries.push_back(next_query());
  util::JsonValue request = util::JsonValue::object();
  request.set("type", util::JsonValue::string("batch"));
  request.set("id", util::JsonValue::number(static_cast<double>(next_id_++)));
  request.set("queries", std::move(queries));
  return serve::encode_frame(request.dump());
}

double closed_loop_rate(serve::Server& server, const std::vector<std::string>& frames,
                        std::size_t outstanding,
                        const std::function<void(std::size_t, const std::string&)>& check) {
  std::deque<std::pair<std::size_t, std::future<std::string>>> in_flight;
  const auto drain_one = [&] {
    const std::string response = in_flight.front().second.get();
    (void)serve::encode_frame(response);
    check(in_flight.front().first, response);
    in_flight.pop_front();
  };
  const auto start = Clock::now();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (in_flight.size() >= outstanding) drain_one();
    std::istringstream in(frames[i]);
    in_flight.emplace_back(i, server.submit(std::move(*serve::read_frame(in))));
  }
  while (!in_flight.empty()) drain_one();
  return static_cast<double>(frames.size()) / seconds_since(start);
}

bool all_slots_are_plans(const std::string& response, std::size_t queries) {
  if (response.rfind("{\"type\":\"result\"", 0) != 0) return false;
  if (response.find("{\"error\":") != std::string::npos) return false;
  std::size_t plans = 0;
  for (std::size_t at = response.find("{\"makespan\":"); at != std::string::npos;
       at = response.find("{\"makespan\":", at + 1)) {
    ++plans;
  }
  return plans == queries;
}

}  // namespace rumr::bench
