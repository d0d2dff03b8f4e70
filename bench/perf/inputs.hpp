#pragma once

/// \file inputs.hpp
/// Seeded input generators shared by the untraced and the traced runs, so a
/// traced replay runs on exactly the inputs the end-to-end metrics measured.
/// Every input is a pure function of (--seed, --smoke); the program under
/// test receives only the generated inputs.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/rumr.hpp"
#include "bench.hpp"

namespace rumr::bench {

/// FNV-1a fold of a value's bytes, for output digests compared across rounds.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// A per-workload seed lane derived from --seed.
[[nodiscard]] std::uint64_t lane_seed(const Config& config, std::uint64_t lane) noexcept;

/// The first `count` entries of a seeded permutation of 0..n-1.
[[nodiscard]] std::vector<std::size_t> seeded_subset(std::size_t n, std::size_t count,
                                                     std::uint64_t seed);

// --- sweep-table2 -------------------------------------------------------------

struct SweepInputs {
  std::vector<sweep::PlatformConfig> configs;  ///< Quick Table 1 grid (144).
  std::vector<double> errors;                  ///< One sweep call per level.
  std::vector<sweep::AlgorithmSpec> lineup;    ///< paper_competitors().
  std::size_t reps = 8;
  std::uint64_t base_seed = 0;
};
[[nodiscard]] SweepInputs sweep_inputs(const Config& config);

/// The sweep call every sweep-table2 operation makes (one error level).
[[nodiscard]] rumr::Sweep make_sweep(const SweepInputs& in,
                                     const std::vector<sweep::PlatformConfig>& configs,
                                     std::vector<double> errors, std::size_t threads);

/// Digest of a sweep's cells (indices, rep counts, makespan moments, wins).
[[nodiscard]] std::uint64_t digest_cells(const std::vector<sweep::SweepCell>& cells);

// --- race-cell ----------------------------------------------------------------

struct RaceInputs {
  std::vector<sweep::PlatformConfig> platforms;  ///< Six Table 1 platforms.
  std::vector<double> errors;                    ///< {0.1, 0.3}.
  std::vector<sweep::AlgorithmSpec> lineup;      ///< extended_competitors().
  double delta = 0.05;
  std::size_t block = 16;
  std::size_t budget = 2048;
  std::uint64_t base_seed = 0;

  [[nodiscard]] std::size_t cells() const noexcept { return platforms.size() * errors.size(); }
};
[[nodiscard]] RaceInputs race_inputs(const Config& config);

/// The race of cell `cell` (platform-major, error-minor).
[[nodiscard]] rumr::Race make_race(const RaceInputs& in, std::size_t cell, std::size_t threads);

/// Digest of a race's winner and full sample ledger.
[[nodiscard]] std::uint64_t digest_race(const race::RaceResult& result);

// --- jobs-open ------------------------------------------------------------------

struct JobsInputs {
  platform::StarPlatform platform;
  std::vector<rumr::JobsRun> runs;  ///< One seeded open-system run each.
};
[[nodiscard]] JobsInputs jobs_inputs(const Config& config);

/// Digest of an open-system run's ledger and counters.
[[nodiscard]] std::uint64_t digest_service(const jobs::ServiceResult& result);

// --- serve-cold / serve-warm -----------------------------------------------------

/// Server options of both serve workloads: the defaults, `threads` wide.
[[nodiscard]] serve::ServerOptions serve_options(std::size_t threads);

/// Seeded generator of 16-query what-if batches. Every query carries a fresh
/// 64-bit seed drawn from the generator, so queries do not repeat and a cold
/// server never hits (serve-cold checks that it did not).
class BatchGenerator {
 public:
  BatchGenerator(std::uint64_t seed, std::size_t queries_per_batch);

  /// Next request frame (header + JSON payload).
  [[nodiscard]] std::string next_frame();

 private:
  [[nodiscard]] util::JsonValue next_query();

  stats::Rng rng_;
  std::uint64_t next_id_ = 1;
  std::size_t queries_per_batch_;
};

/// Queries per batch for the configuration (16; 2 in smoke mode).
[[nodiscard]] std::size_t serve_batch_queries(const Config& config);

/// Sends `frames` through `server` as a closed loop with `outstanding`
/// submit() futures in flight (read_frame -> submit, get -> encode_frame),
/// handing each response to `check` with its frame index. Returns requests
/// per second.
double closed_loop_rate(serve::Server& server, const std::vector<std::string>& frames,
                        std::size_t outstanding,
                        const std::function<void(std::size_t, const std::string&)>& check);

/// True when `response` is a result envelope whose every slot is a plan.
[[nodiscard]] bool all_slots_are_plans(const std::string& response, std::size_t queries);

}  // namespace rumr::bench
