#include "core/adaptive_rumr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rumr::core {

std::shared_ptr<const AdaptiveRumrPlan> prepare_adaptive_rumr(
    const platform::StarPlatform& platform, double w_total, AdaptiveRumrOptions options) {
  if (!(w_total > 0.0) || !std::isfinite(w_total)) {
    throw std::invalid_argument("adaptive RUMR requires a positive, finite workload");
  }
  const double fraction = std::clamp(options.pilot_fraction, 0.0, 1.0);
  const double w_pilot = fraction * w_total;
  std::shared_ptr<const UmrPlan> pilot;
  if (w_pilot > 0.0) {
    pilot = prepare_umr(platform, w_pilot, DispatchOrder::kOutOfOrder, options.rumr.umr,
                        "RUMR-adaptive/pilot");
  }
  return std::make_shared<const AdaptiveRumrPlan>(AdaptiveRumrPlan{.platform = platform,
                                                                   .w_total = w_total,
                                                                   .w_rest = w_total - w_pilot,
                                                                   .options = std::move(options),
                                                                   .pilot = std::move(pilot)});
}

AdaptiveRumrPolicy::AdaptiveRumrPolicy(std::shared_ptr<const AdaptiveRumrPlan> plan)
    : plan_(std::move(plan)) {
  if (plan_->pilot) pilot_.emplace(plan_->pilot);
}

AdaptiveRumrPolicy::AdaptiveRumrPolicy(const platform::StarPlatform& platform, double w_total,
                                       AdaptiveRumrOptions options)
    : AdaptiveRumrPolicy(prepare_adaptive_rumr(platform, w_total, std::move(options))) {}

void AdaptiveRumrPolicy::build_rest() {
  const AdaptiveRumrOptions& options = plan_->options;
  double error = options.fallback_error;
  if (ratios_.count() >= options.min_samples) {
    // The sample spread of predicted/actual ratios is exactly the paper's
    // `error` parameter. Clamp into the meaningful range.
    error = std::clamp(ratios_.stddev(), 0.0, 1.0);
  }
  estimate_ = error;
  RumrOptions rumr = options.rumr;
  rumr.known_error = error;
  rumr.name = name_ + "/rest";
  rest_.emplace(plan_->platform, plan_->w_rest, std::move(rumr));
}

std::optional<sim::Dispatch> AdaptiveRumrPolicy::next_dispatch(const sim::MasterContext& ctx) {
  if (pilot_ && !pilot_->finished()) return pilot_->next_dispatch(ctx);
  if (!rest_ && plan_->w_rest > 0.0) build_rest();
  if (rest_ && !rest_->finished()) return rest_->next_dispatch(ctx);
  return std::nullopt;
}

void AdaptiveRumrPolicy::on_chunk_completed(const sim::MasterContext&,
                                            const sim::CompletionInfo& info) {
  if (rest_) return;  // Only pilot completions feed the estimator.
  // Sample actual/predicted: under the section 4.1 model this is exactly the
  // N(1, error) ratio, so its sample stddev estimates `error` directly
  // (the inverse predicted/actual would be 1/Normal, whose heavy tail
  // inflates the spread badly).
  if (info.predicted_comp > 0.0) ratios_.add(info.actual_comp / info.predicted_comp);
}

void AdaptiveRumrPolicy::on_worker_down(const sim::MasterContext& ctx, std::size_t worker) {
  if (pilot_) pilot_->on_worker_down(ctx, worker);
  if (rest_) rest_->on_worker_down(ctx, worker);
}

void AdaptiveRumrPolicy::on_worker_up(const sim::MasterContext& ctx, std::size_t worker) {
  if (pilot_) pilot_->on_worker_up(ctx, worker);
  if (rest_) rest_->on_worker_up(ctx, worker);
}

bool AdaptiveRumrPolicy::finished() const {
  const bool pilot_done = !pilot_ || pilot_->finished();
  if (!pilot_done) return false;
  if (plan_->w_rest <= 0.0) return true;
  return rest_ && rest_->finished();
}

}  // namespace rumr::core
