#pragma once

/// \file loop_scheduling.hpp
/// The classic loop self-scheduling family, adapted to divisible loads.
///
/// Factoring (factoring.hpp) is one member of a family of decreasing-chunk
/// self-schedulers developed for parallel loops; the RUMR paper's related
/// work points at this literature ([14, 15, 20]). This module implements the
/// other canonical members so the evaluation can position RUMR against the
/// whole family:
///
///   - CSS  (Chunk Self-Scheduling, Kruskal & Weiss 1985): fixed chunks of a
///     caller-chosen size k (FSC in fsc.hpp picks k optimally).
///   - GSS  (Guided Self-Scheduling, Polychronopoulos & Kuck 1987): each
///     dispatched chunk takes a 1/N fraction of the *remaining* work —
///     chunks decrease per-dispatch rather than per-batch.
///   - TSS  (Trapezoid Self-Scheduling, Tzen & Ni 1993): chunk sizes decay
///     linearly from a first size f (default W/(2N)) to a last size l
///     (default 1 work unit), which bounds the number of dispatches while
///     keeping a decreasing tail.
///   - WF   (Weighted Factoring, Flynn Hummel et al. 1996): factoring
///     batches, but each worker's share of a batch is proportional to its
///     speed — the natural heterogeneous generalization of Factoring.
///
/// All run under the same greedy self-scheduled dispatch as Factoring
/// (SelfSchedulingPolicy), so comparisons isolate the chunk-size rule.

#include <memory>
#include <vector>

#include "baselines/factoring.hpp"
#include "platform/platform.hpp"

namespace rumr::baselines {

/// GSS chunk sequence: chunk_k = max(remaining / N, min_chunk) until the
/// workload is exhausted. Sums exactly to w_total.
[[nodiscard]] std::vector<double> gss_chunks(double w_total, std::size_t num_workers,
                                             double min_chunk = 0.0);

/// TSS parameters. Defaults follow Tzen & Ni: first = W/(2N), decreasing to
/// `last` over the resulting dispatch count.
struct TssOptions {
  double first = 0.0;  ///< First chunk size; <= 0 selects W/(2N).
  double last = 1.0;   ///< Final chunk size (work units). Must be > 0.
};

/// TSS chunk sequence: linear decay from `first` to `last`. Sums exactly to
/// w_total (the final chunk absorbs rounding).
[[nodiscard]] std::vector<double> tss_chunks(double w_total, std::size_t num_workers,
                                             const TssOptions& options = {});

/// Weighted-factoring chunk assignment: like factoring_chunks, but each
/// batch is split across workers proportionally to `weights` (typically the
/// worker speeds). Returns per-dispatch (worker, chunk) pairs in batch
/// order. Sums exactly to w_total.
[[nodiscard]] std::vector<std::pair<std::size_t, double>> weighted_factoring_chunks(
    double w_total, const std::vector<double>& weights, const FactoringOptions& options = {});

/// CSS with a fixed chunk size k.
class CssPolicy : public SelfSchedulingPolicy {
 public:
  CssPolicy(double w_total, std::size_t num_workers, double chunk_size);
};

/// Weighted Factoring's plan: (platform worker, chunk) pairs in batch order,
/// each chunk pinned to the worker whose weight sized it.
struct WeightedFactoringPlan {
  std::vector<std::pair<std::size_t, double>> dispatches;
  double total_work = 0.0;
};

/// weighted_factoring_chunks over an explicit worker subset with explicit
/// weights (weights[k] belongs to platform worker workers[k]). RUMR's phase
/// 2 uses it on heterogeneous platforms.
[[nodiscard]] std::shared_ptr<const WeightedFactoringPlan> prepare_weighted_factoring(
    double w_total, const std::vector<std::size_t>& workers, const std::vector<double>& weights,
    const FactoringOptions& options = {});

/// Weighted Factoring: speed-proportional batch shares, greedy dispatch that
/// respects each chunk's designated worker. Its dispatch rule reorders the
/// chunks still to send, so an instance copies the plan's list.
class WeightedFactoringPolicy : public sim::SchedulerPolicy {
 public:
  explicit WeightedFactoringPolicy(const std::shared_ptr<const WeightedFactoringPlan>& plan);

  /// Speed-weighted over every worker of `platform`.
  WeightedFactoringPolicy(const platform::StarPlatform& platform, double w_total,
                          const FactoringOptions& options = {});

  [[nodiscard]] std::string_view name() const override { return "WF"; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  [[nodiscard]] bool finished() const override { return cursor_ >= plan_.size(); }
  [[nodiscard]] double total_work() const override { return total_work_; }

  [[nodiscard]] const std::vector<std::pair<std::size_t, double>>& plan() const noexcept {
    return plan_;
  }

 private:
  std::vector<std::pair<std::size_t, double>> plan_;
  std::size_t cursor_ = 0;
  double total_work_ = 0.0;
};

/// The registry's plans (config/policies.hpp): floors default to the
/// empty-round overhead so continuous loads terminate sensibly.
[[nodiscard]] std::shared_ptr<const SelfSchedulingPlan> prepare_gss(
    const platform::StarPlatform& platform, double w_total);
[[nodiscard]] std::shared_ptr<const SelfSchedulingPlan> prepare_tss(
    const platform::StarPlatform& platform, double w_total);
[[nodiscard]] std::shared_ptr<const WeightedFactoringPlan> prepare_weighted_factoring(
    const platform::StarPlatform& platform, double w_total);

}  // namespace rumr::baselines
