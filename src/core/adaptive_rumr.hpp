#pragma once

/// \file adaptive_rumr.hpp
/// On-line error estimation for RUMR (extension; the paper's sections 4.1 and
/// 5.2.1 point at "monitoring prediction errors as the application runs" as
/// the practical way to obtain `error`, and defer it to the APST integration).
///
/// The adaptive policy schedules a pilot fraction of the workload with
/// (out-of-order) UMR while recording, for every completed chunk, the ratio
/// of predicted to observed computation time. When the pilot is fully
/// dispatched, the sample standard deviation of those ratios — exactly the
/// `error` of the paper's model — parameterizes a regular known-error RUMR
/// over the remaining workload.

#include <memory>
#include <optional>
#include <string>

#include "core/rumr.hpp"
#include "core/umr_policy.hpp"
#include "stats/summary.hpp"

namespace rumr::core {

/// Configuration for the adaptive policy.
struct AdaptiveRumrOptions {
  /// Fraction of the workload scheduled as the UMR pilot.
  double pilot_fraction = 0.3;
  /// Minimum ratio samples before trusting the estimate.
  std::size_t min_samples = 8;
  /// Error assumed when too few samples arrived by the end of the pilot.
  double fallback_error = 0.2;
  /// Forwarded to the inner RUMR (known_error is overwritten).
  RumrOptions rumr{};
};

/// The immutable half of an adaptive run: the pilot's UMR plan, plus what
/// the rest-policy is built from once the pilot has measured the error (a
/// copy of the platform, so a run never outlives its inputs). One plan
/// serves any number of runs, concurrently.
struct AdaptiveRumrPlan {
  platform::StarPlatform platform;
  double w_total = 0.0;
  double w_rest = 0.0;
  AdaptiveRumrOptions options;
  /// Null when the pilot fraction is zero.
  std::shared_ptr<const UmrPlan> pilot;
};

/// Splits the workload and plans the pilot. Throws std::invalid_argument
/// for a non-positive or non-finite workload.
[[nodiscard]] std::shared_ptr<const AdaptiveRumrPlan> prepare_adaptive_rumr(
    const platform::StarPlatform& platform, double w_total, AdaptiveRumrOptions options = {});

/// RUMR with on-line error estimation: a cursor over an AdaptiveRumrPlan.
class AdaptiveRumrPolicy : public sim::SchedulerPolicy {
 public:
  explicit AdaptiveRumrPolicy(std::shared_ptr<const AdaptiveRumrPlan> plan);

  /// Plans and wraps one run (see prepare_adaptive_rumr).
  AdaptiveRumrPolicy(const platform::StarPlatform& platform, double w_total,
                     AdaptiveRumrOptions options = {});

  [[nodiscard]] std::string_view name() const override { return name_; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  void on_chunk_completed(const sim::MasterContext& ctx, const sim::CompletionInfo& info) override;
  void on_worker_down(const sim::MasterContext& ctx, std::size_t worker) override;
  void on_worker_up(const sim::MasterContext& ctx, std::size_t worker) override;
  [[nodiscard]] bool finished() const override;
  [[nodiscard]] double total_work() const override { return plan_->w_total; }

  /// The error estimate in force (nullopt until the rest-policy is built).
  [[nodiscard]] std::optional<double> estimated_error() const noexcept { return estimate_; }

 private:
  void build_rest();

  std::string name_ = "RUMR-adaptive";
  std::shared_ptr<const AdaptiveRumrPlan> plan_;
  std::optional<UmrPolicy> pilot_;
  std::optional<RumrPolicy> rest_;
  std::optional<double> estimate_;
  stats::Accumulator ratios_;
};

}  // namespace rumr::core
