#pragma once

/// \file runner.hpp
/// Sharded map-reduce sweep engine.
///
/// A sweep is a grid of *cells* — (platform, axis value, algorithm) — each
/// summarizing many repetitions. The engine decomposes every (platform,
/// axis value) site into rep-block *shards*, runs the shards across
/// parallel_for's guided dynamic scheduler, folds each shard's runs into
/// mergeable accumulators (O(1) memory per shard), and reduces a site's
/// shard partials **in fixed shard-index order** the moment its last shard
/// lands. Completed cells stream out through a consumer callback; nothing
/// buffers the whole grid unless the caller asks for it.
///
/// Determinism contract (tested by sharded-vs-serial byte-identity tests and
/// audited at 1e-9 by audit_cell_merge):
///
///   - the shard decomposition is a pure function of (grid shape,
///     repetitions, rep_block) — never of the thread count;
///   - every repetition's seed is derived as
///       mix_seed(base_seed ^ fnv1a(platform label), round(axis*1000), rep)
///     (stats::mix_seed — the same scheme the facade's execute_all uses for
///     per-rep lanes), shared by all algorithms within the rep so paired
///     win-rate comparisons stay paired;
///   - shard partials merge in shard-index order, so the reduced cell is
///     byte-identical for any thread count or shard completion order (FP
///     addition is not associative; a fixed merge tree removes the only
///     source of divergence).
///
/// Emission order across *sites* is unspecified (sites complete when their
/// last shard does); the consumer is called under an internal mutex, so it
/// needs no synchronization of its own.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/des_audit.hpp"
#include "faults/fault_model.hpp"
#include "jobs/job_manager.hpp"
#include "obs/accumulators.hpp"
#include "sim/master_worker.hpp"
#include "stats/error_model.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/scheduler_factory.hpp"

namespace rumr::sweep {

/// Sweep configuration.
struct SweepOptions {
  std::vector<double> errors = error_axis();              ///< Error levels to test.
  std::size_t repetitions = 40;                           ///< Paper default: 40.
  double w_total = 1000.0;                                ///< Paper default: 1000 units.
  std::size_t threads = 0;                                ///< 0 = hardware concurrency.
  std::uint64_t base_seed = 0x5eed5eed5eedULL;            ///< Sweep-level seed.
  stats::ErrorDistribution distribution =
      stats::ErrorDistribution::kTruncatedNormal;         ///< Paper default model.
  /// Worker-availability fault model applied to every run (default: none,
  /// the paper's setting). Enables failure-rate grid sweeps.
  faults::FaultSpec faults{};
  /// Detection/backoff knobs forwarded to the engine when faults are on.
  sim::SimOptions::FaultToleranceOptions fault_tolerance{};
  /// Audit every repetition with check::audit_sim_result (work conservation
  /// plus the observability identities). Cheap — no trace is recorded — and
  /// a violation aborts the sweep with check::CheckError.
  bool audit_runs = true;
  /// Repetitions per shard. 0 = auto: ceil(repetitions / 8), so every site
  /// splits into up to 8 shards *regardless of thread count* (the shard
  /// structure must be thread-independent for byte-identity to hold).
  /// Clamped to [1, repetitions].
  std::size_t rep_block = 0;

  /// Validates every option in one pass and returns the full list of
  /// human-readable problems (empty means the options are usable).
  /// run_sweep_streaming calls this up front and raises
  /// std::invalid_argument with all of them.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Aggregated results for one (platform, error, algorithm) cell. Every field
/// is a mergeable accumulator (integer sums, Welford moments, a quantile
/// sketch), so shard partials combine with merge() and the whole struct
/// stays O(1) in the repetition count.
struct CellStats {
  stats::Accumulator makespan;      ///< Over repetitions.
  std::size_t reps = 0;
  /// Repetitions in which the reference algorithm (index 0) strictly beat
  /// this one, and beat it by at least 10% (paper Tables 2 and 3).
  std::size_t ref_wins = 0;
  std::size_t ref_wins_by_10pct = 0;

  stats::Accumulator uplink_utilization;   ///< Occupancy busy / makespan.
  stats::Accumulator worker_utilization;   ///< Mean over workers per run.
  stats::Accumulator events;               ///< DES events executed per run.
  stats::Accumulator hol_blocking_time;    ///< Head-of-line blocking seconds.
  stats::Accumulator work_redispatched;    ///< Fault-layer re-sent units.

  /// Streaming makespan distribution (median/p95 without storing the reps).
  /// Comb spans ~1e-2..2.7e3 at 5% relative resolution.
  obs::QuantileSketch makespan_quantiles{1e-2, 1.05, 256};

  /// Folds `other` (a later shard of the same cell) into this one.
  void merge(const CellStats& other);
};

/// One completed cell, streamed to the consumer as soon as its site's last
/// shard lands. Indices address the caller's platforms/errors/algorithms
/// vectors; label/error/algorithm are carried so consumers need no lookup.
struct SweepCell {
  std::size_t platform_index = 0;
  std::size_t error_index = 0;
  std::size_t algorithm_index = 0;
  std::string platform_label;
  std::string algorithm;
  double error = 0.0;
  CellStats stats;
};

/// Cell sink. Called under the engine's emission mutex: invocations are
/// serialized, but their order across sites is unspecified.
using CellConsumer = std::function<void(const SweepCell&)>;

/// The table fold of a closed-system sweep: the mean makespan of every
/// (platform, error, algorithm) cell and nothing else, so a sweep folded as
/// its cells stream (rumr::Sweep with buffer(false)) holds one double per
/// cell instead of a CellStats. Cells may be added in any order; the
/// reductions sum over platforms and errors in index order, so their values
/// do not depend on the order the cells arrived in.
class SweepResult {
 public:
  SweepResult(std::size_t platforms, std::vector<double> errors,
              std::vector<std::string> algorithms);

  /// Records `cell`'s mean makespan at its (platform, error, algorithm)
  /// indices. Throws std::out_of_range when an index exceeds the fold's shape.
  void add(const SweepCell& cell);

  [[nodiscard]] std::size_t platforms() const noexcept { return platforms_; }
  [[nodiscard]] const std::vector<double>& errors() const noexcept { return errors_; }
  [[nodiscard]] const std::vector<std::string>& algorithms() const noexcept {
    return algorithms_;
  }

  /// Mean makespan over the repetitions of one cell.
  [[nodiscard]] double mean_makespan(std::size_t platform, std::size_t error,
                                     std::size_t algo) const;

  /// Mean makespan of `algo` normalized to the reference (algorithm 0),
  /// averaged over all platforms, at error index `error`. This is the
  /// y-axis of the paper's Figures 4-7.
  [[nodiscard]] double mean_normalized_makespan(std::size_t error, std::size_t algo) const;

  /// Percentage (0-100) of experiments — a (platform, error value) pair
  /// whose result is the mean makespan over repetitions, as in the paper —
  /// across error band `band`, in which the reference strictly outperformed
  /// `algo` (Table 2) or did so by >= 10% (Table 3).
  [[nodiscard]] double win_percentage(std::size_t band, std::size_t algo,
                                      bool by_margin = false) const;

  /// Overall win percentage across every cell (the paper's "79% overall").
  [[nodiscard]] double overall_win_percentage(std::size_t algo) const;

 private:
  std::size_t platforms_;
  std::vector<double> errors_;
  std::vector<std::string> algorithms_;
  std::vector<double> means_;  ///< [platform][error][algorithm]
};

/// The streaming engine: shards every (platform, error) site, runs the grid
/// across the pool, and emits each completed cell through `consumer`. Peak
/// memory is O(sites in flight x shards per site), never O(grid x reps).
///
/// Algorithm index 0 is the reference for the paired win counters. Throws
/// std::invalid_argument on validation failure and propagates the first
/// in-shard exception (e.g. check::CheckError from a failed audit).
void run_sweep_streaming(const std::vector<SweepPlatform>& platforms,
                         const std::vector<AlgorithmSpec>& algorithms,
                         const SweepOptions& options, const CellConsumer& consumer);

/// The per-repetition seed the engine derives — exposed so tests and tools
/// can reproduce any single run of a sweep in isolation:
///   mix_seed(base_seed ^ fnv1a(platform_label), llround(axis_value*1000), rep).
[[nodiscard]] std::uint64_t derive_rep_seed(std::uint64_t base_seed,
                                            const std::string& platform_label,
                                            double axis_value, std::size_t rep) noexcept;

/// Shards each (platform, axis value) site splits into for a given
/// repetitions/rep_block setting (rep_block 0 = auto: ceil(reps / 8)). A pure
/// function of its arguments — never of the thread count — exposed so the
/// facade's validate() and the tests can reason about shard counts.
[[nodiscard]] std::size_t shards_per_site(std::size_t reps, std::size_t rep_block) noexcept;

// --- open-system (multi-job) sweeps ----------------------------------------

/// Mergeable aggregate for one (platform, load) cell of an open-system
/// sweep: integer ledger sums, per-repetition scalar moments, and the
/// per-job service histograms merged across repetitions (every run uses the
/// same fixed bucket edges, so the merge is exact on the counts).
struct JobsCellStats {
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t manager_events = 0;
  std::uint64_t oracle_runs = 0;
  std::uint64_t oracle_events = 0;
  std::size_t reps = 0;

  stats::Accumulator mean_response;       ///< Per-rep mean response times.
  stats::Accumulator mean_slowdown;       ///< Per-rep mean slowdowns.
  stats::Accumulator utilization;         ///< Per-rep goodput fractions.
  stats::Accumulator share_utilization;   ///< Per-rep allocated fractions.
  stats::Accumulator horizon;             ///< Per-rep drain times.

  obs::Histogram response_times;  ///< Per-job, merged across reps.
  obs::Histogram slowdowns;       ///< Per-job, merged across reps.
  obs::Histogram queue_waits;     ///< Per-job, merged across reps.
  obs::Histogram job_sizes;       ///< Per-job, merged across reps.

  void merge(const JobsCellStats& other);
};

/// Open-system sweep configuration: a load axis over a jobs::JobsOptions
/// template. Each cell re-resolves base.stream.arrival_rate for its
/// (platform, load) via JobStreamSpec::rate_for_load and re-seeds base.sim
/// per repetition with derive_rep_seed.
struct JobsSweepOptions {
  std::vector<double> loads = load_axis();  ///< Offered-load fractions.
  std::size_t repetitions = 3;
  std::size_t threads = 0;                  ///< 0 = hardware concurrency.
  std::uint64_t base_seed = 0x5eed5eed5eedULL;
  /// Template for every run. stream must be Poisson (the load axis maps to
  /// an arrival rate); set base.retain_jobs = false for large grids so each
  /// run streams its jobs instead of buffering them.
  jobs::JobsOptions base{};
  /// Audit every repetition with check::audit_service_result.
  bool audit_runs = true;
  /// Repetitions per shard; 0 = auto (ceil(repetitions / 8)), as above.
  std::size_t rep_block = 0;

  [[nodiscard]] std::vector<std::string> validate() const;
};

/// One completed open-system cell.
struct JobsSweepCell {
  std::size_t platform_index = 0;
  std::size_t load_index = 0;
  std::string platform_label;
  double load = 0.0;
  JobsCellStats stats;
};

using JobsCellConsumer = std::function<void(const JobsSweepCell&)>;

/// Streaming open-system sweep: platforms x loads, sharded and merged
/// exactly like run_sweep_streaming. With base.retain_jobs == false, peak
/// memory per shard is O(jobs concurrently in the system), so million-job
/// grids run in constant space.
void run_jobs_sweep(const std::vector<SweepPlatform>& platforms,
                    const JobsSweepOptions& options, const JobsCellConsumer& consumer);

// --- merge-consistency audits ----------------------------------------------

/// Appends a violation to `report` for every field of `merged` that strays
/// from `serial` (counts exact, floats at 1e-9) — the sharded-vs-serial
/// consistency check, assembled from check/merge_audit.hpp primitives.
void audit_cell_merge(const std::string& label, const CellStats& merged,
                      const CellStats& serial, check::AuditReport& report);
void audit_cell_merge(const std::string& label, const JobsCellStats& merged,
                      const JobsCellStats& serial, check::AuditReport& report);

}  // namespace rumr::sweep
