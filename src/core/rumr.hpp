#pragma once

/// \file rumr.hpp
/// RUMR — Robust Uniform Multi-Round (Yang & Casanova, HPDC 2003): the
/// paper's primary contribution.
///
/// RUMR schedules the workload in two consecutive phases:
///   - Phase 1: a revised UMR (increasing chunk sizes, out-of-order dispatch
///     within a round) pre-calculates the initial portion of the schedule for
///     high performance via communication/computation overlap.
///   - Phase 2: Factoring (decreasing chunk sizes, greedy self-scheduling)
///     limits the damage of performance-prediction errors at the end.
///
/// Design choices (paper section 4.2):
///   (i)   Phase-2 share: `error * W_total` when the error magnitude is
///         known, subject to the threshold that the per-worker phase-2 work
///         must cover one empty-round overhead (cLat + nLat*N); a fixed
///         fraction (default 20%) when it is unknown.
///   (ii)  Phase 1 allows out-of-order chunk dispatching so prematurely idle
///         workers are fed early.
///   (iii) Phase-2 chunk sizes are bounded below by (cLat + nLat*N)/error
///         (known error) or (cLat + nLat*N) (unknown), in work units.

#include <memory>
#include <optional>
#include <string>

#include "baselines/factoring.hpp"
#include "baselines/loop_scheduling.hpp"
#include "core/umr_policy.hpp"
#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::core {

/// RUMR configuration.
struct RumrOptions {
  /// Estimated prediction-error magnitude (the `error` of section 4.1), if
  /// one is available. nullopt selects the fixed-fraction fallback.
  std::optional<double> known_error{};

  /// Phase-2 share of the workload when the error is unknown (the paper's
  /// section 5.2.1 finds 20% a good practical choice).
  double unknown_error_phase2_fraction = 0.2;

  /// Apply the overhead-based threshold to the known-error split (original
  /// RUMR behavior): phase 2 engages only when its share can hold at least
  /// `phase2_min_chunks` chunks of the floor size (cLat + nLat*N)/error,
  /// i.e. error^2 * W >= phase2_min_chunks * (cLat + nLat*N). The paper's
  /// three threshold statements are mutually inconsistent (see DESIGN.md);
  /// this reading reproduces the phase-2 onset at error ~= 0.18 observed in
  /// the paper's Figure 5. The fixed-percentage variants of Figure 6 set
  /// this to false: they always reserve their share.
  bool apply_phase2_threshold = true;

  /// Minimum number of floor-sized chunks phase 2 must be able to schedule;
  /// 2 is the smallest count that allows any end-of-run rebalancing.
  double phase2_min_chunks = 2.0;

  /// Scales the overhead term (cLat + nLat*N) in both the threshold and the
  /// chunk floor. The default 0.5 calibrates the phase-2 onset to the
  /// error ~= 0.18 the paper's Figure 5 exhibits for cLat = 0.3, nLat = 0.9,
  /// N = 20 (see DESIGN.md).
  double phase2_threshold_scale = 0.5;

  /// Phase-1 dispatch order; kOutOfOrder is original RUMR, kInOrder is the
  /// "plain UMR in phase 1" ablation of Figure 7.
  DispatchOrder phase1_order = DispatchOrder::kOutOfOrder;

  /// Factoring factor for phase 2 (each batch schedules 1/f of what's left).
  double factoring_factor = 2.0;

  /// Options forwarded to the phase-1 UMR solver.
  UmrOptions umr{};

  /// Report name (variants override: "RUMR-80", "RUMR-inorder", ...).
  std::string name = "RUMR";
};

/// Workload units RUMR reserves for phase 2 under the given options —
/// exposed separately so the split heuristic is directly testable.
[[nodiscard]] double rumr_phase2_work(const platform::StarPlatform& platform, double w_total,
                                      const RumrOptions& options);

/// The immutable half of a RUMR run: the phase split, phase 1's UMR plan
/// and phase 2's factoring plan. One plan serves any number of runs,
/// concurrently.
struct RumrPlan {
  std::string name;
  double w_total = 0.0;
  double w_phase2 = 0.0;
  /// Null when phase 1 is empty.
  std::shared_ptr<const UmrPlan> phase1;
  /// Phase 2 on a homogeneous worker set: plain Factoring. Null otherwise.
  std::shared_ptr<const baselines::SelfSchedulingPlan> phase2_factoring;
  /// Phase 2 on a heterogeneous worker set: speed-weighted Factoring. Null
  /// otherwise.
  std::shared_ptr<const baselines::WeightedFactoringPlan> phase2_weighted;
};

/// Splits the workload and plans both phases. Throws std::invalid_argument
/// for a non-positive or non-finite workload.
[[nodiscard]] std::shared_ptr<const RumrPlan> prepare_rumr(const platform::StarPlatform& platform,
                                                           double w_total,
                                                           RumrOptions options = {});

/// The RUMR policy: a cursor over a RumrPlan.
class RumrPolicy : public sim::SchedulerPolicy {
 public:
  explicit RumrPolicy(const std::shared_ptr<const RumrPlan>& plan);

  /// Plans and wraps one run (see prepare_rumr).
  RumrPolicy(const platform::StarPlatform& platform, double w_total, RumrOptions options = {});

  [[nodiscard]] std::string_view name() const override { return plan_->name; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  void on_worker_down(const sim::MasterContext& ctx, std::size_t worker) override;
  void on_worker_up(const sim::MasterContext& ctx, std::size_t worker) override;
  [[nodiscard]] std::optional<des::SimTime> next_poll_time() const override;
  [[nodiscard]] bool finished() const override;
  [[nodiscard]] double total_work() const override { return plan_->w_total; }

  /// Workload reserved for phase 2 (0 means pure UMR; w_total means pure
  /// Factoring).
  [[nodiscard]] double phase2_work() const noexcept { return plan_->w_phase2; }
  /// Rounds the phase-1 UMR schedule uses (0 when phase 1 is empty).
  [[nodiscard]] std::size_t phase1_rounds() const noexcept;
  /// True once phase 1 has fully dispatched and phase 2 is (or would be) active.
  [[nodiscard]] bool in_phase2() const noexcept;

 private:
  std::shared_ptr<const RumrPlan> plan_;
  std::optional<UmrPolicy> phase1_;
  /// Plain Factoring (late binding, best when workers are interchangeable)
  /// on homogeneous worker sets; speed-weighted Factoring on heterogeneous
  /// ones, so slow workers get proportionally smaller phase-2 chunks.
  std::unique_ptr<sim::SchedulerPolicy> phase2_;
};

/// Fixed-split variant for the Figure 6 ablation: schedules
/// `phase1_percent`% of the workload in phase 1 regardless of error.
[[nodiscard]] RumrOptions rumr_fixed_split_options(double phase1_percent);

}  // namespace rumr::core
