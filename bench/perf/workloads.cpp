// Untraced end-to-end rounds of the five workloads.
//
// Every workload keeps its inputs fixed across rounds (serve-cold draws
// fresh, never-repeated queries from the same seeded generator), so each
// round must reproduce the previous round's outputs exactly; any deviation,
// failed operation or audit violation is recorded as a problem.

#include <atomic>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "inputs.hpp"

namespace rumr::bench {
namespace {

/// Compares a per-operation digest against the one recorded in round 1.
class RoundDigests {
 public:
  /// Returns false when `digest` differs from the first round's value for
  /// operation `op`.
  bool matches(std::size_t op, std::uint64_t digest) {
    const auto [first, inserted] = first_.emplace(op, digest);
    return inserted || first->second == digest;
  }

 private:
  std::map<std::size_t, std::uint64_t> first_;
};

// --- sweep-table2 -------------------------------------------------------------

/// One operation is a rumr::Sweep call over the whole quick Table 1 grid at
/// one error level; a round sweeps every level. Work unit: a grid cell.
class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(const Config& config) : in_(sweep_inputs(config)) {
    for (const double error : in_.errors) {
      sweeps_.push_back(make_sweep(in_, in_.configs, {error}, config.threads));
    }
    (void)sweeps_[sweeps_.size() / 2].execute();  // Warm-up.
  }

  Round run_round() override {
    Round round;
    double busy = 0.0;
    std::size_t cells = 0;
    for (std::size_t op = 0; op < sweeps_.size(); ++op) {
      ++round.attempted;
      try {
        const auto start = Clock::now();
        const std::vector<sweep::SweepCell> result = sweeps_[op].execute();
        const double elapsed = seconds_since(start);
        busy += elapsed;
        round.latencies_ms.push_back(1e3 * elapsed);
        cells += result.size();
        verify(op, result);
      } catch (const std::exception& e) {
        ++round.failed;
        fail(std::string("sweep call failed: ") + e.what());
      }
    }
    round.throughput = busy > 0.0 ? static_cast<double>(cells) / busy : 0.0;
    return round;
  }

 private:
  void verify(std::size_t op, const std::vector<sweep::SweepCell>& cells) {
    if (cells.size() != in_.configs.size() * in_.lineup.size()) {
      fail("sweep returned " + std::to_string(cells.size()) + " cells");
    }
    for (const sweep::SweepCell& cell : cells) {
      if (cell.stats.reps != in_.reps || !(cell.stats.makespan.mean() > 0.0)) {
        fail("sweep cell " + cell.platform_label + " / " + cell.algorithm + " is malformed");
        break;
      }
    }
    if (!digests_.matches(op, digest_cells(cells))) {
      fail("sweep cells differ from round 1 at error " + std::to_string(in_.errors[op]));
    }
  }

  SweepInputs in_;
  std::vector<rumr::Sweep> sweeps_;
  RoundDigests digests_;
};

// --- race-cell ----------------------------------------------------------------

/// One operation is one raced cell (rumr::Race over extended_competitors());
/// a round races all twelve. Work unit: a raced cell.
class RaceWorkload final : public Workload {
 public:
  explicit RaceWorkload(const Config& config) : in_(race_inputs(config)) {
    for (std::size_t cell = 0; cell < in_.cells(); ++cell) {
      races_.push_back(make_race(in_, cell, config.threads));
    }
    (void)races_.front().execute();  // Warm-up.
  }

  Round run_round() override {
    Round round;
    double busy = 0.0;
    for (std::size_t op = 0; op < races_.size(); ++op) {
      ++round.attempted;
      try {
        const auto start = Clock::now();
        const race::RaceResult result = races_[op].execute();
        const double elapsed = seconds_since(start);
        busy += elapsed;
        round.latencies_ms.push_back(1e3 * elapsed);
        if (!digests_.matches(op, digest_race(result))) {
          fail("race ledger of cell " + std::to_string(op) + " differs from round 1");
        }
      } catch (const std::exception& e) {
        ++round.failed;
        fail(std::string("race failed: ") + e.what());
      }
    }
    const auto done = static_cast<double>(round.attempted - round.failed);
    round.throughput = busy > 0.0 ? done / busy : 0.0;
    return round;
  }

 private:
  RaceInputs in_;
  std::vector<rumr::Race> races_;
  RoundDigests digests_;
};

// --- jobs-open ------------------------------------------------------------------

/// One operation is one audited open-system run (rumr::JobsRun, 400 jobs),
/// which runs entirely on its calling thread. A round spreads the seeded
/// runs over `threads` client threads of the benchmark's own (no sweep or
/// thread pool involved), so one round samples every core instead of
/// whichever one a lone thread lands on. Work unit: a job.
class JobsWorkload final : public Workload {
 public:
  explicit JobsWorkload(const Config& config)
      : in_(jobs_inputs(config)), clients_(config.threads) {
    // Warm-up: one run per client thread, concurrently.
    std::vector<std::jthread> clients;
    for (std::size_t t = 0; t < std::min(clients_, in_.runs.size()); ++t) {
      clients.emplace_back([this, t] { (void)in_.runs[t].execute(); });
    }
  }

  Round run_round() override {
    struct Outcome {
      bool ok = false;
      double seconds = 0.0;
      std::size_t arrived = 0;
      std::size_t completed = 0;
      std::uint64_t digest = 0;
      std::string error;
    };
    std::vector<Outcome> outcomes(in_.runs.size());
    std::atomic<std::size_t> next{0};
    const auto client = [&] {
      for (std::size_t op = next++; op < outcomes.size(); op = next++) {
        Outcome& outcome = outcomes[op];
        try {
          const auto start = Clock::now();
          const jobs::ServiceResult result = in_.runs[op].execute();
          outcome.seconds = seconds_since(start);
          outcome.arrived = result.arrived;
          outcome.completed = result.completed;
          outcome.digest = digest_service(result);
          outcome.ok = true;
        } catch (const std::exception& e) {
          outcome.error = e.what();
        }
      }
    };
    const auto start = Clock::now();
    {
      std::vector<std::jthread> clients;
      for (std::size_t t = 0; t < clients_; ++t) clients.emplace_back(client);
    }
    const double wall = seconds_since(start);

    Round round;
    std::size_t completed = 0;
    for (std::size_t op = 0; op < outcomes.size(); ++op) {
      ++round.attempted;
      const Outcome& outcome = outcomes[op];
      if (!outcome.ok) {
        ++round.failed;
        fail("jobs run failed: " + outcome.error);
        continue;
      }
      round.latencies_ms.push_back(1e3 * outcome.seconds);
      completed += outcome.completed;
      if (outcome.completed != outcome.arrived) {
        fail("jobs run " + std::to_string(op) + ": completed " +
             std::to_string(outcome.completed) + " of " + std::to_string(outcome.arrived));
      }
      if (!digests_.matches(op, outcome.digest)) {
        fail("jobs run " + std::to_string(op) + " differs from round 1");
      }
    }
    round.throughput = static_cast<double>(completed) / wall;
    return round;
  }

 private:
  JobsInputs in_;
  std::size_t clients_;
  RoundDigests digests_;
};

// --- serve-cold / serve-warm ----------------------------------------------------

/// Both serve workloads: each round runs a latency phase (closed loop, one
/// request outstanding) and a throughput phase (closed loop, `threads`
/// submit() futures outstanding, within threads + queue so a rejection is a
/// failure). Each request goes read_frame -> Server -> encode_frame. Work
/// unit: a batch request.
class ServeWorkload : public Workload {
 protected:
  explicit ServeWorkload(const Config& config)
      : config_(config),
        server_(std::make_unique<serve::Server>(serve_options(config.threads))),
        queries_(serve_batch_queries(config)),
        latency_requests_(config.smoke ? 4 : 1000) {}

  /// Request frames for the next phase.
  [[nodiscard]] virtual std::vector<std::string> phase_frames(std::size_t count) = 0;
  /// Whether the response to the phase's i-th frame is right.
  [[nodiscard]] virtual bool response_ok(std::size_t i, const std::string& response) = 0;
  /// Workload-specific checks on the drained server's ledger.
  virtual void check_cache(const obs::CacheStats& cache) = 0;
  [[nodiscard]] virtual std::size_t throughput_requests() const = 0;

  Round run_round() override {
    Round round;
    latency_phase(round);
    throughput_phase(round);
    return round;
  }

  /// Submits every frame at once (within threads + queue) and returns the
  /// responses in frame order: the set-up path for warm-up and priming.
  [[nodiscard]] std::vector<std::string> submit_all(const std::vector<std::string>& frames) {
    std::vector<std::future<std::string>> futures;
    for (const std::string& frame : frames) {
      std::istringstream in(frame);
      futures.push_back(server_->submit(std::move(*serve::read_frame(in))));
    }
    std::vector<std::string> responses;
    for (std::future<std::string>& future : futures) responses.push_back(future.get());
    return responses;
  }

  const Config config_;
  std::unique_ptr<serve::Server> server_;
  const std::size_t queries_;

 private:
  void latency_phase(Round& round) {
    const std::vector<std::string> frames = phase_frames(latency_requests_);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      std::istringstream in(frames[i]);
      ++round.attempted;
      const auto start = Clock::now();
      const std::optional<std::string> payload = serve::read_frame(in);
      const std::string response = server_->handle(*payload);
      const std::string frame = serve::encode_frame(response);
      round.latencies_ms.push_back(1e3 * seconds_since(start));
      if (frame.size() != serve::kHeaderBytes + response.size() || !response_ok(i, response)) {
        ++round.failed;
      }
    }
    check_ledger("latency");
  }

  void throughput_phase(Round& round) {
    const std::vector<std::string> frames = phase_frames(throughput_requests());
    round.attempted += frames.size();
    round.throughput = closed_loop_rate(
        *server_, frames, config_.threads, [&](std::size_t i, const std::string& response) {
          if (!response_ok(i, response)) ++round.failed;
        });
    check_ledger("throughput");
  }

  void check_ledger(const char* phase) {
    server_->wait_idle();
    const obs::ServeStats stats = server_->stats();
    const check::AuditReport audit = check::audit_serve_stats(stats, true);
    if (!audit.ok()) fail(std::string(phase) + " phase: " + audit.summary());
    if (stats.rejected != 0 || stats.shed != 0 || stats.protocol_errors != 0 ||
        stats.query_errors != 0) {
      fail(std::string(phase) + " phase: requests were rejected, shed or malformed");
    }
    check_cache(stats.plan_cache);
  }

  const std::size_t latency_requests_;
};

/// Every query is new: decode, parse, canonicalise, miss, policy set-up,
/// traced simulate, audit and serialise on every request (hit ratio 0).
class ServeColdWorkload final : public ServeWorkload {
 public:
  explicit ServeColdWorkload(const Config& config)
      : ServeWorkload(config), generator_(lane_seed(config, 4), queries_) {
    // Warm-up: a few requests of never-repeated queries, like every other.
    for (const std::string& response : submit_all(phase_frames(config.smoke ? 1 : 48))) {
      if (!all_slots_are_plans(response, queries_)) {
        fail("serve-cold warm-up returned a non-plan slot");
      }
    }
  }

 private:
  std::vector<std::string> phase_frames(std::size_t count) override {
    std::vector<std::string> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) frames.push_back(generator_.next_frame());
    return frames;
  }

  bool response_ok(std::size_t, const std::string& response) override {
    if (all_slots_are_plans(response, queries_)) return true;
    fail("serve-cold response is not all plans: " + response.substr(0, 160));
    return false;
  }

  void check_cache(const obs::CacheStats& cache) override {
    if (cache.hits != 0) fail("serve-cold: plan cache hit on a never-repeated query");
  }

  std::size_t throughput_requests() const override { return config_.smoke ? 8 : 600; }

  BatchGenerator generator_;
};

/// A 64-batch working set (1024 queries, inside the 4096-entry cache) is
/// primed during set-up and replayed in a seeded order: no solve ever runs
/// (hit ratio 1), and every response must be byte-identical to the cold
/// response recorded at priming.
class ServeWarmWorkload final : public ServeWorkload {
 public:
  explicit ServeWarmWorkload(const Config& config)
      : ServeWorkload(config), order_rng_(lane_seed(config, 6)) {
    BatchGenerator generator(lane_seed(config, 5), queries_);
    const std::size_t batches = config.smoke ? 4 : 64;
    for (std::size_t b = 0; b < batches; ++b) working_set_.push_back(generator.next_frame());
    primed_ = submit_all(working_set_);
    for (const std::string& response : primed_) {
      if (!all_slots_are_plans(response, queries_)) {
        fail("serve-warm priming returned a non-plan slot");
      }
    }
    server_->wait_idle();
    primed_misses_ = server_->stats().plan_cache.misses;
    if (primed_misses_ != batches * queries_) fail("serve-warm priming missed unexpectedly");
  }

 private:
  std::vector<std::string> phase_frames(std::size_t count) override {
    order_.clear();
    std::vector<std::string> frames;
    frames.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      order_.push_back(order_rng_.uniform_index(working_set_.size()));
      frames.push_back(working_set_[order_.back()]);
    }
    return frames;
  }

  bool response_ok(std::size_t i, const std::string& response) override {
    if (response == primed_[order_[i]]) return true;
    fail("serve-warm response differs from the primed cold response");
    return false;
  }

  void check_cache(const obs::CacheStats& cache) override {
    if (cache.misses != primed_misses_ || cache.evictions != 0) {
      fail("serve-warm: a working-set query missed or was evicted");
    }
  }

  std::size_t throughput_requests() const override { return config_.smoke ? 8 : 4000; }

  std::vector<std::string> working_set_;
  std::vector<std::string> primed_;
  std::uint64_t primed_misses_ = 0;
  stats::Rng order_rng_;
  std::vector<std::size_t> order_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"sweep-table2", "race-cell", "jobs-open",
                                                  "serve-cold", "serve-warm"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Config& config) {
  if (name == "sweep-table2") return std::make_unique<SweepWorkload>(config);
  if (name == "race-cell") return std::make_unique<RaceWorkload>(config);
  if (name == "jobs-open") return std::make_unique<JobsWorkload>(config);
  if (name == "serve-cold") return std::make_unique<ServeColdWorkload>(config);
  if (name == "serve-warm") return std::make_unique<ServeWarmWorkload>(config);
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace rumr::bench
