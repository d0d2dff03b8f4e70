#pragma once

/// \file factoring.hpp
/// Factoring self-scheduling (Flynn Hummel, CACM 35(8), 1992) — the
/// robustness-oriented competitor in the RUMR paper, and RUMR's phase 2.
///
/// Factoring allocates work in *batches*: each batch hands every one of the
/// N workers an equal chunk sized `remaining / (f * N)` (factor f, classically
/// 2, i.e. each batch schedules half the remaining work). Chunk sizes thus
/// decrease geometrically, which bounds the absolute impact of prediction
/// errors on the final chunks. Dispatch is greedy self-scheduling: a worker
/// gets its next chunk only when it has none outstanding — so factoring makes
/// no use of predictions at all, but also achieves little communication/
/// computation overlap (the paper's argument for combining it with UMR).
///
/// For continuous (divisible) workloads a lower bound on chunk size is
/// required to terminate; RUMR section 4.2 (design choice iii) bounds chunks
/// below by (cLat + nLat*N)/error when the error magnitude is known and by
/// (cLat + nLat*N) otherwise (following Hagerup 1997).

#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::baselines {

/// Overhead, in seconds, of sending one round of empty chunks: the
/// non-hidden latencies to send N messages plus starting the computation for
/// the last processor (paper section 4.2). Uses mean latencies on
/// heterogeneous platforms.
[[nodiscard]] double empty_round_overhead_seconds(const platform::StarPlatform& platform);

/// `empty_round_overhead_seconds` converted to workload units via the mean
/// worker speed, so it is commensurable with chunk sizes.
[[nodiscard]] double empty_round_overhead_work(const platform::StarPlatform& platform);

/// The immutable half of a self-scheduled run: the chunk-size queue and the
/// workers it feeds. One plan serves any number of runs, concurrently.
struct SelfSchedulingPlan {
  std::string name;
  /// Positive chunk sizes, in dispatch order.
  std::vector<double> chunks;
  /// Platform indices of the workers fed.
  std::vector<std::size_t> workers;
  double total_work = 0.0;
};

/// Builds a plan feeding `chunks` to `workers` (platform indices). Zero-sized
/// chunks are dropped; throws std::invalid_argument for an empty worker set.
[[nodiscard]] std::shared_ptr<const SelfSchedulingPlan> make_self_scheduling_plan(
    std::string name, const std::vector<double>& chunks, std::vector<std::size_t> workers);

/// Workers 0..n-1.
[[nodiscard]] std::vector<std::size_t> all_workers(std::size_t n);

/// Base for policies that dispatch a precomputed queue of chunk sizes
/// greedily to idle workers (pure self-scheduling: a worker is fed only when
/// it has no outstanding chunk). An instance is a cursor over a plan.
class SelfSchedulingPolicy : public sim::SchedulerPolicy {
 public:
  explicit SelfSchedulingPolicy(std::shared_ptr<const SelfSchedulingPlan> plan);

  /// Feeds chunks to workers 0..num_workers-1.
  SelfSchedulingPolicy(std::string name, const std::vector<double>& chunks,
                       std::size_t num_workers);

  /// Feeds chunks to an explicit worker subset (platform indices). Used by
  /// RUMR so phase 2 stays on the workers phase 1 selected.
  SelfSchedulingPolicy(std::string name, const std::vector<double>& chunks,
                       std::vector<std::size_t> workers);

  [[nodiscard]] std::string_view name() const override { return plan_->name; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  [[nodiscard]] bool finished() const override { return cursor_ >= plan_->chunks.size(); }
  [[nodiscard]] double total_work() const override { return plan_->total_work; }

  /// The precomputed chunk-size sequence, for inspection/testing.
  [[nodiscard]] const std::vector<double>& chunk_sequence() const noexcept {
    return plan_->chunks;
  }

  /// How many chunks a worker may have outstanding before it stops being fed.
  /// 1 (default) is pure request-driven self-scheduling: a worker gets its
  /// next chunk only when fully idle — no communication/computation overlap,
  /// which is the paper's criticism of Factoring. 2 prefetches one chunk
  /// while the current one computes (RUMR's phase 2 uses this, hiding the
  /// dispatch latency under the tail of phase 1).
  void set_max_outstanding(std::size_t max_outstanding) noexcept {
    max_outstanding_ = max_outstanding == 0 ? 1 : max_outstanding;
  }
  [[nodiscard]] std::size_t max_outstanding() const noexcept { return max_outstanding_; }

 private:
  std::shared_ptr<const SelfSchedulingPlan> plan_;
  std::size_t cursor_ = 0;
  std::size_t max_outstanding_ = 1;
};

/// Options for the factoring chunk-size sequence.
struct FactoringOptions {
  double factor = 2.0;     ///< f: each batch schedules 1/f of the remaining work.
  double min_chunk = 0.0;  ///< Lower bound on chunk size (workload units).
};

/// Computes the factoring chunk-size sequence for `w_total` units over
/// `num_workers` workers. The sequence sums exactly to w_total.
[[nodiscard]] std::vector<double> factoring_chunks(double w_total, std::size_t num_workers,
                                                   const FactoringOptions& options = {});

/// Factoring's plan: factoring_chunks over an explicit worker subset
/// (platform indices).
[[nodiscard]] std::shared_ptr<const SelfSchedulingPlan> prepare_factoring(
    double w_total, std::vector<std::size_t> workers, const FactoringOptions& options = {});

/// The Factoring policy: precomputed decreasing chunks, greedy dispatch.
class FactoringPolicy : public SelfSchedulingPolicy {
 public:
  FactoringPolicy(double w_total, std::size_t num_workers, const FactoringOptions& options = {});
  /// Restricted to an explicit worker subset (platform indices).
  FactoringPolicy(double w_total, std::vector<std::size_t> workers,
                  const FactoringOptions& options = {});
};

/// Factoring configured as the paper's standalone competitor on a given
/// platform: unknown error, so the chunk floor is (cLat + nLat*N) converted
/// to work units.
[[nodiscard]] std::shared_ptr<const SelfSchedulingPlan> prepare_factoring(
    const platform::StarPlatform& platform, double w_total);

}  // namespace rumr::baselines
