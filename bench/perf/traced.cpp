// Traced replays: each workload's full path is timed untraced, then its
// inputs are replayed on one thread with a span around every call into a
// layer's public functions. Named layers' self times plus the remainder sum
// to the full path. Each replay must reproduce the full path's outputs
// exactly, which proves the layers were timed on the same inputs.

#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "inputs.hpp"

namespace rumr::bench {
namespace {

using Scope = SpanRecorder::Scope;

double per(double total, double units) { return units > 0.0 ? total / units : 0.0; }

/// Adds the named layers' self times to the table, in the order given.
void add_layers(TraceReport& report, const std::vector<const char*>& names) {
  const std::map<std::string, double> self = report.spans.self_times();
  for (const char* name : names) {
    const auto it = self.find(name);
    report.layers.push_back({name, it == self.end() ? 0.0 : it->second});
  }
}

double self_us(const TraceReport& report, const std::string& layer) {
  for (const LayerRow& row : report.layers) {
    if (row.layer == layer) return row.self_us;
  }
  return 0.0;
}

/// Microseconds one empty span costs to record (open, close, store).
double span_cost_us() {
  constexpr std::size_t kProbes = 20000;
  SpanRecorder probe;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kProbes; ++i) {
    const Scope span(probe, "probe", i);
  }
  return 1e6 * seconds_since(start) / static_cast<double>(kProbes);
}

/// The path-level metrics every workload reports. The span overhead is the
/// estimated share of the traced replay's wall time spent recording spans.
void path_metrics(TraceReport& report, double replay_wall_us) {
  report.metrics["latency_p99_ms"] = stats::percentile(report.path_ms, 99.0);
  report.metrics["path.unit_us"] = per(report.full_path_us, report.units);
  report.metrics["path.remainder_us"] = per(report.remainder_us(), report.units);
  report.metrics["path.remainder_share"] = per(report.remainder_us(), report.full_path_us);
  report.metrics["trace.span_overhead"] =
      per(static_cast<double>(report.spans.spans().size()) * span_cost_us(), replay_wall_us);
}

/// Policy, simulate and audit metrics for workloads whose replay calls them.
void engine_metrics(TraceReport& report, std::size_t events) {
  const double policy = self_us(report, "policy");
  const double sim = self_us(report, "sim");
  const double audit = self_us(report, "check.audit");
  report.metrics["policy.setup_us"] = per(policy, report.units);
  report.metrics["policy.share"] = per(policy, report.full_path_us);
  report.metrics["sim.simulate_us"] = per(sim, report.units);
  report.metrics["sim.events"] = static_cast<double>(events);
  report.metrics["sim.events_per_s"] = per(static_cast<double>(events), sim * 1e-6);
  report.metrics["check.audit_us"] = per(audit, report.units);
  report.metrics["check.audit_share"] = per(audit, report.full_path_us);
}

/// Standalone DES kernel rates (median of five repetitions each): a serial
/// event chain, bound by per-event schedule + dispatch, and a wide
/// pre-scheduled fan-out, bound by the event queue at depth.
void des_metrics(TraceReport& report, bool smoke) {
  const std::size_t chain = smoke ? 2000 : 100000;
  const std::size_t width = smoke ? 2000 : 50000;
  std::vector<double> chain_rates;
  std::vector<double> fanout_rates;
  for (int rep = 0; rep < 5; ++rep) {
    {
      const auto start = Clock::now();
      des::Simulator sim;
      std::size_t remaining = chain;
      std::function<void()> next = [&] {
        if (--remaining > 0) sim.schedule_in(1.0, next);
      };
      sim.schedule_at(0.0, next);
      sim.run();
      chain_rates.push_back(static_cast<double>(sim.events_processed()) / seconds_since(start));
    }
    {
      const auto start = Clock::now();
      des::Simulator sim;
      for (std::size_t i = 0; i < width; ++i) sim.schedule_at(static_cast<double>(i % 97), [] {});
      sim.run();
      fanout_rates.push_back(static_cast<double>(sim.events_processed()) / seconds_since(start));
    }
  }
  report.metrics["des.chain_events_per_s"] = quartiles(chain_rates).median;
  report.metrics["des.fanout_events_per_s"] = quartiles(fanout_rates).median;
}

/// The engine options the sweep and race engines build for a repetition.
sim::SimOptions rep_sim_options(double error, std::uint64_t seed) {
  sim::SimOptions options;
  options.comm_error = stats::ErrorModel(stats::ErrorDistribution::kTruncatedNormal, error);
  options.comp_error = stats::ErrorModel(stats::ErrorDistribution::kTruncatedNormal, error);
  options.seed = seed;
  return options;
}

void audit_run(const sim::SimResult& result, const platform::StarPlatform& platform,
               double w_total, const sim::SimOptions& options) {
  check::TraceAuditOptions audit;
  audit.work_tolerance = options.work_tolerance;
  audit.uplink_channels = options.uplink_channels;
  check::audit_sim_result(result, platform, w_total, audit).throw_if_failed();
}

/// One replayed repetition of the sweep/race engines: seed -> policy ->
/// simulate -> audit, each in its own span. Returns the makespan.
struct RepCall {
  const sweep::SweepPlatform* platform = nullptr;
  const sweep::AlgorithmSpec* spec = nullptr;
  double error = 0.0;
  std::uint64_t seed = 0;
};

double replay_rep(SpanRecorder& spans, std::uint64_t request, const RepCall& call,
                  std::size_t& events) {
  std::unique_ptr<sim::SchedulerPolicy> policy;
  {
    const Scope span(spans, "policy", request);
    policy = call.spec->make(call.platform->platform, 1000.0, call.error);
  }
  const sim::SimOptions options = rep_sim_options(call.error, call.seed);
  std::optional<sim::SimResult> result;
  {
    const Scope span(spans, "sim", request);
    result = sim::simulate(call.platform->platform, *policy, options);
  }
  {
    const Scope span(spans, "check.audit", request);
    audit_run(*result, call.platform->platform, 1000.0, options);
  }
  events += result->events;
  return result->makespan;
}

/// Ratio of traced to untraced simulate() time on the same inputs, each
/// input run untraced then traced, three times over. `run(i, traced)`
/// returns one call's seconds.
double trace_overhead(std::size_t count, const std::function<double(std::size_t, bool)>& run) {
  double plain = 0.0;
  double traced = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < count; ++i) {
      plain += run(i, false);
      traced += run(i, true);
    }
  }
  return per(traced, plain);
}

double rep_trace_overhead(const std::vector<RepCall>& calls) {
  return trace_overhead(calls.size(), [&](std::size_t i, bool traced) {
    const RepCall& call = calls[i];
    const auto policy = call.spec->make(call.platform->platform, 1000.0, call.error);
    sim::SimOptions options = rep_sim_options(call.error, call.seed);
    options.record_trace = traced;
    const auto start = Clock::now();
    (void)sim::simulate(call.platform->platform, *policy, options);
    return seconds_since(start);
  });
}

// --- sweep-table2 -------------------------------------------------------------

/// Scaling: a rumr::Sweep over a seeded 24-config subset at every error
/// level, at one thread and then at `threads`. Layers: per configuration,
/// the one-thread sweep call (the full path), then its replay through
/// derive_rep_seed -> AlgorithmSpec::make -> simulate -> audit_sim_result;
/// the replayed cell means must equal the sweep's bit for bit. Interleaving
/// the two per configuration keeps machine drift out of the remainder.
TraceReport trace_sweep(const Config& config) {
  TraceReport report;
  report.unit = "cell";
  const SweepInputs in = sweep_inputs(config);
  std::vector<sweep::PlatformConfig> subset;
  for (const std::size_t i :
       seeded_subset(in.configs.size(), config.smoke ? 2 : 24, lane_seed(config, 21))) {
    subset.push_back(in.configs[i]);
  }

  auto start = Clock::now();
  const std::vector<sweep::SweepCell> narrow = make_sweep(in, subset, in.errors, 1).execute();
  const double narrow_us = 1e6 * seconds_since(start);
  start = Clock::now();
  const std::vector<sweep::SweepCell> wide =
      make_sweep(in, subset, in.errors, config.threads).execute();
  const double wide_us = 1e6 * seconds_since(start);
  if (digest_cells(wide) != digest_cells(narrow)) {
    report.problems.push_back("sweep cells depend on the thread count");
  }

  const std::vector<sweep::SweepPlatform> platforms = sweep::wrap_grid(subset);
  const std::size_t num_errors = in.errors.size();
  const std::size_t num_algos = in.lineup.size();
  std::vector<RepCall> overhead_calls;
  std::size_t events = 0;
  double replay_us = 0.0;
  for (std::size_t p = 0; p < platforms.size(); ++p) {
    start = Clock::now();
    const std::vector<sweep::SweepCell> cells = make_sweep(in, {subset[p]}, in.errors, 1).execute();
    report.path_ms.push_back(1e3 * seconds_since(start));
    report.full_path_us += 1e3 * report.path_ms.back();
    report.units += static_cast<double>(cells.size());

    std::vector<stats::Accumulator> makespans(num_errors * num_algos);
    start = Clock::now();
    try {
      for (std::size_t e = 0; e < num_errors; ++e) {
        for (std::size_t rep = 0; rep < in.reps; ++rep) {
          const std::uint64_t request = ((p * num_errors) + e) * in.reps + rep;
          const Scope rep_span(report.spans, "rep", request);
          RepCall call{&platforms[p], nullptr, in.errors[e], 0};
          {
            const Scope span(report.spans, "seed", request);
            call.seed = sweep::derive_rep_seed(in.base_seed, platforms[p].label, call.error, rep);
          }
          for (std::size_t a = 0; a < num_algos; ++a) {
            call.spec = &in.lineup[a];
            stats::Accumulator one;
            one.add(replay_rep(report.spans, request, call, events));
            // Shards hold one repetition each and merge in repetition order.
            stats::Accumulator& cell = makespans[e * num_algos + a];
            if (rep == 0) {
              cell = one;
            } else {
              cell.merge(one);
            }
            if (overhead_calls.size() < (config.smoke ? 4u : 200u)) overhead_calls.push_back(call);
          }
        }
      }
    } catch (const std::exception& e) {
      ++report.failed;
      report.problems.push_back(std::string("sweep replay failed: ") + e.what());
    }
    replay_us += 1e6 * seconds_since(start);

    for (const sweep::SweepCell& cell : cells) {
      if (makespans[cell.error_index * num_algos + cell.algorithm_index].mean() !=
          cell.stats.makespan.mean()) {
        report.problems.push_back("replayed mean makespan differs for " + cell.platform_label +
                                  " / " + cell.algorithm);
        break;
      }
    }
  }
  report.attempted = static_cast<std::size_t>(report.units);

  add_layers(report, {"seed", "policy", "sim", "check.audit"});
  path_metrics(report, replay_us);
  engine_metrics(report, events);
  report.metrics["sim.trace_overhead"] = rep_trace_overhead(overhead_calls);
  report.metrics["sweep.speedup"] = per(narrow_us, wide_us);
  des_metrics(report, config.smoke);
  return report;
}

// --- race-cell ----------------------------------------------------------------

/// Per cell of a seeded 4-cell subset: the race at one thread (the full
/// path), the race at `threads`, then the replay of every (arm, rep) sample
/// of its ledger through seed -> policy -> simulate -> audit, folded into
/// lane fingerprints that must equal the race's, and audit_race_result.
TraceReport trace_race(const Config& config) {
  TraceReport report;
  report.unit = "cell";
  const RaceInputs in = race_inputs(config);

  double rounds = 0.0;
  double samples = 0.0;
  for (std::size_t cell = 0; cell < in.cells(); ++cell) {
    const race::RaceResult result = make_race(in, cell, config.threads).execute();
    rounds += static_cast<double>(result.rounds);
    samples += static_cast<double>(result.total_samples);
  }

  const std::vector<std::size_t> subset =
      seeded_subset(in.cells(), config.smoke ? 1 : 4, lane_seed(config, 22));
  std::vector<sweep::SweepPlatform> platforms;
  for (const std::size_t cell : subset) {
    platforms.push_back(sweep::SweepPlatform::from_config(in.platforms[cell / in.errors.size()]));
  }
  std::vector<RepCall> overhead_calls;
  std::size_t events = 0;
  double wide_us = 0.0;
  double replay_us = 0.0;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    auto start = Clock::now();
    const race::RaceResult result = make_race(in, subset[i], 1).execute();
    report.path_ms.push_back(1e3 * seconds_since(start));
    report.full_path_us += 1e3 * report.path_ms.back();
    start = Clock::now();
    if (digest_race(make_race(in, subset[i], config.threads).execute()) != digest_race(result)) {
      report.problems.push_back("race ledger depends on the thread count");
    }
    wide_us += 1e6 * seconds_since(start);

    const double error = in.errors[subset[i] % in.errors.size()];
    start = Clock::now();
    try {
      for (std::size_t arm = 0; arm < result.arms.size(); ++arm) {
        std::uint64_t fingerprint = race::kFingerprintSeed;
        for (std::size_t rep = 0; rep < result.arms[arm].samples; ++rep) {
          const std::uint64_t request = (i << 32) | rep;
          const Scope sample_span(report.spans, "sample", request);
          RepCall call{&platforms[i], &in.lineup[arm], error, 0};
          {
            const Scope span(report.spans, "seed", request);
            call.seed = sweep::derive_rep_seed(in.base_seed, platforms[i].label, error, rep);
          }
          // The makespan objective's normalizer is 1, so the reward is the makespan.
          fingerprint =
              race::fold_fingerprint(fingerprint, replay_rep(report.spans, request, call, events));
          if (overhead_calls.size() < (config.smoke ? 4u : 200u)) overhead_calls.push_back(call);
        }
        if (fingerprint != result.arms[arm].lane_fingerprint) {
          report.problems.push_back("replayed race ledger differs for cell " +
                                    std::to_string(subset[i]) + " arm " + result.arms[arm].name);
        }
      }
      const Scope span(report.spans, "check.audit_race", i);
      check::audit_race_result(result).throw_if_failed();
    } catch (const std::exception& e) {
      ++report.failed;
      report.problems.push_back(std::string("race replay failed: ") + e.what());
    }
    replay_us += 1e6 * seconds_since(start);
  }
  report.units = static_cast<double>(subset.size());
  report.attempted = subset.size();

  add_layers(report, {"seed", "policy", "sim", "check.audit", "check.audit_race"});
  path_metrics(report, replay_us);
  engine_metrics(report, events);
  report.metrics["sim.trace_overhead"] = rep_trace_overhead(overhead_calls);
  report.metrics["check.audit_race_us"] = per(self_us(report, "check.audit_race"), report.units);
  report.metrics["race.rounds"] = rounds;
  report.metrics["race.samples"] = samples;
  report.metrics["race.speedup"] = per(report.full_path_us, wide_us);
  des_metrics(report, config.smoke);
  return report;
}

// --- jobs-open ------------------------------------------------------------------

/// Per run of a seeded 24-run subset: the audited rumr::JobsRun call (the
/// full path), then its replay through jobs::run_jobs and
/// check::audit_service_result on the same options, which must reproduce
/// the facade's ledger and counters.
TraceReport trace_jobs(const Config& config) {
  TraceReport report;
  report.unit = "job";
  const JobsInputs in = jobs_inputs(config);
  const std::vector<std::size_t> subset =
      seeded_subset(in.runs.size(), config.smoke ? in.runs.size() : 24, lane_seed(config, 23));

  double oracle_runs = 0.0;
  double oracle_events = 0.0;
  double manager_events = 0.0;
  double replay_us = 0.0;
  for (const std::size_t run : subset) {
    auto start = Clock::now();
    const jobs::ServiceResult facade = in.runs[run].execute();
    report.path_ms.push_back(1e3 * seconds_since(start));
    report.full_path_us += 1e3 * report.path_ms.back();
    report.units += static_cast<double>(facade.completed);
    oracle_runs += static_cast<double>(facade.oracle_runs);
    oracle_events += static_cast<double>(facade.oracle_events);
    manager_events += static_cast<double>(facade.manager_events);

    start = Clock::now();
    try {
      const Scope run_span(report.spans, "run", run);
      const jobs::JobsOptions& options = in.runs[run].options();
      std::optional<jobs::ServiceResult> result;
      {
        const Scope span(report.spans, "jobs.run", run);
        result = jobs::run_jobs(in.platform, options);
      }
      {
        const Scope span(report.spans, "check.audit_service", run);
        check::audit_service_result(*result, in.platform, options).throw_if_failed();
      }
      if (digest_service(*result) != digest_service(facade)) {
        report.problems.push_back("replayed jobs run " + std::to_string(run) + " differs");
      }
    } catch (const std::exception& e) {
      ++report.failed;
      report.problems.push_back(std::string("jobs replay failed: ") + e.what());
    }
    replay_us += 1e6 * seconds_since(start);
  }
  report.attempted = subset.size();

  add_layers(report, {"jobs.run", "check.audit_service"});
  path_metrics(report, replay_us);
  report.metrics["jobs.run_us"] = per(self_us(report, "jobs.run"), report.units);
  report.metrics["check.audit_service_us"] =
      per(self_us(report, "check.audit_service"), report.units);
  report.metrics["jobs.oracle_runs"] = oracle_runs;
  report.metrics["jobs.oracle_events"] = oracle_events;
  report.metrics["jobs.manager_events"] = manager_events;
  des_metrics(report, config.smoke);
  return report;
}

// --- serve-cold / serve-warm ----------------------------------------------------

/// The plan objects of a result response, re-serialized through json_lite;
/// nullopt unless reassembling them reproduces the response byte for byte.
std::optional<std::vector<std::string>> split_plans(const std::string& response) {
  const util::JsonValue doc = util::JsonValue::parse(response);
  std::vector<std::string> plans;
  for (const util::JsonValue& slot : doc.at("results").as_array()) plans.push_back(slot.dump());
  const auto id = static_cast<std::int64_t>(doc.at("id").as_number());
  if (serve::make_result_response(id, plans) != response) return std::nullopt;
  return plans;
}

/// Per request: the full path read_frame -> Server::handle -> encode_frame
/// on a fresh server (serve-cold: never-repeated queries; serve-warm: the
/// primed working set in seeded order), then its replay on a bench-owned
/// PlanCache with the server's cache options: decode, parse, one canonical
/// span per query, get_or_compute (with policy, simulate and audit spans on
/// a miss; a warm replay's solver must never run), and respond. The
/// replayed response bytes must equal the server's.
TraceReport trace_serve(const Config& config, bool warm) {
  TraceReport report;
  report.unit = "request";
  const std::size_t queries = serve_batch_queries(config);
  const serve::ServerOptions options = serve_options(config.threads);
  serve::Server server(options);
  serve::PlanCache cache(
      serve::PlanCacheOptions{options.cache_capacity, options.cache_max_bytes, options.cache_shards});

  // Requests of the traced path, and of the concurrency phase after it.
  std::vector<std::string> frames;
  std::vector<std::string> expected;
  std::vector<std::string> load_frames;
  if (warm) {
    BatchGenerator generator(lane_seed(config, 5), queries);
    std::vector<std::string> working_set;
    std::vector<std::string> primed;
    for (std::size_t b = 0; b < (config.smoke ? 4u : 64u); ++b) {
      working_set.push_back(generator.next_frame());
      std::istringstream in(working_set.back());
      primed.push_back(server.handle(*serve::read_frame(in)));
      // Prime the bench-owned cache with the same plans.
      std::istringstream again(working_set.back());
      const serve::Request request = serve::parse_request(*serve::read_frame(again));
      const std::optional<std::vector<std::string>> plans = split_plans(primed.back());
      if (!plans || plans->size() != request.queries.size()) {
        report.problems.push_back("serve-warm: primed response does not split into plans");
        return report;
      }
      for (std::size_t i = 0; i < plans->size(); ++i) {
        (void)cache.get_or_compute(serve::canonical_query_key(*request.queries[i].query),
                                   [&] { return (*plans)[i]; });
      }
    }
    stats::Rng order(lane_seed(config, 6));
    for (std::size_t r = 0; r < (config.smoke ? 8u : 1000u); ++r) {
      const std::size_t b = order.uniform_index(working_set.size());
      frames.push_back(working_set[b]);
      expected.push_back(primed[b]);
    }
    for (std::size_t r = 0; r < (config.smoke ? 8u : 2000u); ++r) {
      load_frames.push_back(working_set[order.uniform_index(working_set.size())]);
    }
  } else {
    BatchGenerator generator(lane_seed(config, 24), queries);
    for (std::size_t r = 0; r < (config.smoke ? 4u : 320u); ++r) {
      frames.push_back(generator.next_frame());
    }
    for (std::size_t r = 0; r < (config.smoke ? 4u : 160u); ++r) {
      load_frames.push_back(generator.next_frame());
    }
  }
  const obs::CacheStats primed_cache = cache.stats();
  const std::uint64_t primed_misses = server.stats().plan_cache.misses;

  std::vector<serve::Query> overhead_queries;
  std::size_t events = 0;
  double handle_us = 0.0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double replay_us = 0.0;
  for (std::size_t r = 0; r < frames.size(); ++r) {
    // Untraced full path, with Server::handle timed on the same bytes.
    std::istringstream server_in(frames[r]);
    auto start = Clock::now();
    const std::optional<std::string> server_payload = serve::read_frame(server_in);
    const auto handle_start = Clock::now();
    const std::string response = server.handle(*server_payload);
    handle_us += 1e6 * seconds_since(handle_start);
    const std::string response_frame = serve::encode_frame(response);
    report.path_ms.push_back(1e3 * seconds_since(start));
    report.full_path_us += 1e3 * report.path_ms.back();
    bytes_in += static_cast<double>(frames[r].size());
    bytes_out += static_cast<double>(response_frame.size());
    if (!(warm ? response == expected[r] : all_slots_are_plans(response, queries))) {
      ++report.failed;
      report.problems.push_back("server response " + std::to_string(r) + " is wrong");
    }
    // The replay's solver hands back the server's plan bytes once it has
    // run the policy, simulate and audit layers itself.
    const std::optional<std::vector<std::string>> plans = split_plans(response);
    if (!plans) {
      ++report.failed;
      report.problems.push_back("server response " + std::to_string(r) +
                                " does not split into plans");
      continue;
    }

    start = Clock::now();
    try {
      std::istringstream in(frames[r]);
      const Scope request_span(report.spans, "request", r);
      std::optional<std::string> payload;
      {
        const Scope span(report.spans, "protocol.decode", r);
        payload = serve::read_frame(in);
      }
      serve::Request request;
      {
        const Scope span(report.spans, "protocol.parse", r);
        request = serve::parse_request(*payload);
      }
      std::vector<std::string> results(request.queries.size());
      for (std::size_t i = 0; i < request.queries.size(); ++i) {
        if (!request.queries[i].query) throw std::runtime_error(request.queries[i].error);
        const serve::Query& query = *request.queries[i].query;
        std::string key;
        {
          const Scope span(report.spans, "protocol.canonical", r);
          key = serve::canonical_query_key(query);
        }
        const Scope span(report.spans, "plan_cache", r);
        results[i] = *cache.get_or_compute(key, [&] {
          if (warm) throw std::logic_error("serve-warm replay had to solve a query");
          std::optional<platform::StarPlatform> platform;
          std::unique_ptr<sim::SchedulerPolicy> policy;
          {
            const Scope policy_span(report.spans, "policy", r);
            platform.emplace(std::vector<platform::WorkerSpec>(query.workers));
            policy = config::make_policy(query.algorithm, *platform, query.workload,
                                         query.known_error);
          }
          sim::SimOptions sim_options = sim::SimOptions::with_error(query.error, query.seed);
          sim_options.record_trace = true;
          sim_options.uplink_channels = query.uplink_channels;
          sim_options.output_ratio = query.output_ratio;
          sim_options.worker_buffer_capacity = query.worker_buffer_capacity;
          std::optional<sim::SimResult> result;
          {
            const Scope sim_span(report.spans, "sim", r);
            result = sim::simulate(*platform, *policy, sim_options);
          }
          {
            const Scope audit_span(report.spans, "check.audit", r);
            audit_run(*result, *platform, query.workload, sim_options);
          }
          events += result->events;
          if (overhead_queries.size() < (config.smoke ? 2u : 128u)) {
            overhead_queries.push_back(query);
          }
          return (*plans)[i];
        });
      }
      std::string frame;
      {
        const Scope span(report.spans, "protocol.respond", r);
        frame = serve::encode_frame(serve::make_result_response(request.id, results));
      }
      if (frame != response_frame) {
        report.problems.push_back("replayed response " + std::to_string(r) +
                                  " differs from the server's");
      }
    } catch (const std::exception& e) {
      ++report.failed;
      report.problems.push_back(std::string("serve replay failed: ") + e.what());
    }
    replay_us += 1e6 * seconds_since(start);
  }
  report.units = static_cast<double>(frames.size());
  report.attempted = frames.size() + load_frames.size();
  const obs::CacheStats after = cache.stats();

  const double rate =
      closed_loop_rate(server, load_frames, config.threads, [](std::size_t, const std::string&) {});
  server.wait_idle();
  const obs::ServeStats stats = server.stats();
  if (const check::AuditReport audit = check::audit_serve_stats(stats, true); !audit.ok()) {
    report.problems.push_back(audit.summary());
  }
  if (stats.rejected != 0 || stats.shed != 0) report.problems.push_back("requests were rejected");
  if (warm ? stats.plan_cache.misses != primed_misses : stats.plan_cache.hits != 0) {
    report.problems.push_back(warm ? "serve-warm server missed" : "serve-cold server hit");
  }

  add_layers(report, {"protocol.decode", "protocol.parse", "protocol.canonical", "plan_cache",
                      "policy", "sim", "check.audit", "protocol.respond"});
  path_metrics(report, replay_us);
  if (!warm) engine_metrics(report, events);
  report.metrics["protocol.decode_us"] = per(self_us(report, "protocol.decode"), report.units);
  report.metrics["protocol.parse_us"] = per(self_us(report, "protocol.parse"), report.units);
  report.metrics["protocol.canonical_us"] =
      per(self_us(report, "protocol.canonical"), report.units);
  report.metrics["protocol.respond_us"] = per(self_us(report, "protocol.respond"), report.units);
  report.metrics["protocol.bytes_in"] = per(bytes_in, report.units);
  report.metrics["protocol.bytes_out"] = per(bytes_out, report.units);
  report.metrics["plan_cache.lookup_us"] = per(self_us(report, "plan_cache"), report.units);
  report.metrics["plan_cache.hit_ratio"] =
      per(static_cast<double>(after.hits - primed_cache.hits),
          static_cast<double>(after.lookups - primed_cache.lookups));
  report.metrics["plan_cache.evictions"] =
      static_cast<double>(after.evictions - primed_cache.evictions);
  report.metrics["server.handle_us"] = per(handle_us, report.units);
  // Throughput at `threads` outstanding over the one-outstanding rate.
  report.metrics["server.concurrency_speedup"] =
      rate * per(report.full_path_us, report.units) * 1e-6;
  if (!warm) {
    report.metrics["sim.trace_overhead"] =
        trace_overhead(overhead_queries.size(), [&](std::size_t i, bool traced) {
          const serve::Query& query = overhead_queries[i];
          const platform::StarPlatform platform{std::vector<platform::WorkerSpec>(query.workers)};
          const auto policy =
              config::make_policy(query.algorithm, platform, query.workload, query.known_error);
          sim::SimOptions sim_options = sim::SimOptions::with_error(query.error, query.seed);
          sim_options.record_trace = traced;
          const auto start = Clock::now();
          (void)sim::simulate(platform, *policy, sim_options);
          return seconds_since(start);
        });
    des_metrics(report, config.smoke);
  }
  return report;
}

}  // namespace

TraceReport trace_workload(const std::string& name, const Config& config) {
  TraceReport report;
  if (name == "sweep-table2") {
    report = trace_sweep(config);
  } else if (name == "race-cell") {
    report = trace_race(config);
  } else if (name == "jobs-open") {
    report = trace_jobs(config);
  } else if (name == "serve-cold") {
    report = trace_serve(config, false);
  } else if (name == "serve-warm") {
    report = trace_serve(config, true);
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  // Layers off this workload's path read 0.
  for (const MetricSpec& spec : per_layer_metrics()) report.metrics.emplace(spec.name, 0.0);
  return report;
}

}  // namespace rumr::bench
