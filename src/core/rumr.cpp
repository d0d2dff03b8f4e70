#include "core/rumr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rumr::core {

double rumr_phase2_work(const platform::StarPlatform& platform, double w_total,
                        const RumrOptions& options) {
  if (!(w_total > 0.0)) return 0.0;

  if (!options.known_error) {
    const double fraction = std::clamp(options.unknown_error_phase2_fraction, 0.0, 1.0);
    return fraction * w_total;
  }

  const double error = *options.known_error;
  if (error <= 0.0) return 0.0;  // Perfect predictions: RUMR defaults to UMR.
  if (error >= 1.0) return w_total;  // Hopeless predictions: pure Factoring.

  double phase2 = error * w_total;
  if (options.apply_phase2_threshold) {
    const double overhead =
        baselines::empty_round_overhead_work(platform) * options.phase2_threshold_scale;
    const double floor_chunk = overhead / error;
    // Phase 2 engages only when (a) it can schedule at least
    // phase2_min_chunks chunks of the floor size — otherwise it cannot
    // rebalance anything — and (b) the per-worker phase-2 share covers the
    // empty-round overhead (cLat + nLat*N) its greedy dispatch pays.
    if (phase2 < options.phase2_min_chunks * floor_chunk ||
        phase2 / static_cast<double>(platform.size()) < overhead) {
      phase2 = 0.0;
    }
  }
  return phase2;
}

std::shared_ptr<const RumrPlan> prepare_rumr(const platform::StarPlatform& platform,
                                             double w_total, RumrOptions options) {
  if (!(w_total > 0.0) || !std::isfinite(w_total)) {
    throw std::invalid_argument("RUMR requires a positive, finite workload");
  }

  auto plan = std::make_shared<RumrPlan>();
  plan->name = std::move(options.name);
  plan->w_total = w_total;
  plan->w_phase2 = rumr_phase2_work(platform, w_total, options);
  const double w_phase2 = plan->w_phase2;
  const double w_phase1 = w_total - w_phase2;

  if (w_phase1 > 0.0) {
    plan->phase1 =
        prepare_umr(platform, w_phase1, options.phase1_order, options.umr, plan->name + "/phase1");
  }
  if (w_phase2 > 0.0) {
    // Phase 2 runs on the worker set phase 1 selected, so both phases agree
    // on which resources the application uses.
    std::vector<std::size_t> workers = plan->phase1 ? plan->phase1->schedule.selected_workers
                                                    : baselines::all_workers(platform.size());
    const platform::StarPlatform active =
        workers.size() == platform.size() ? platform : platform.subset(workers);

    baselines::FactoringOptions factoring;
    factoring.factor = options.factoring_factor;
    const double overhead =
        baselines::empty_round_overhead_work(active) * options.phase2_threshold_scale;
    if (options.known_error && *options.known_error > 0.0) {
      factoring.min_chunk = overhead / std::min(1.0, *options.known_error);
    } else {
      factoring.min_chunk = overhead;
    }
    // Never floor above the one-round share W/N: larger chunks could not be
    // scheduled even by a single-round algorithm and only lengthen the tail.
    // Never floor below W2/(8N) either: with near-zero latencies the paper's
    // floor vanishes and phase 2 would degenerate into hundreds of
    // micro-chunks whose request-reply round trips idle the workers.
    const auto n_active = static_cast<double>(workers.size());
    factoring.min_chunk =
        std::clamp(factoring.min_chunk, w_phase2 / (8.0 * n_active),
                   w_total / static_cast<double>(platform.size()));
    if (active.is_homogeneous()) {
      plan->phase2_factoring =
          baselines::prepare_factoring(w_phase2, std::move(workers), factoring);
    } else {
      // Speed-weighted shares: Hummel's equal chunks would hand a slow
      // worker an average-sized chunk and blow up the tail.
      std::vector<double> weights;
      weights.reserve(workers.size());
      for (std::size_t k = 0; k < workers.size(); ++k) weights.push_back(active.worker(k).speed);
      plan->phase2_weighted =
          baselines::prepare_weighted_factoring(w_phase2, workers, weights, factoring);
    }
    // Phase 2 stays strictly request-driven (max_outstanding = 1, the
    // SelfSchedulingPolicy default). We measured the one-chunk-prefetch
    // alternative (set_max_outstanding(2)): hiding the dispatch latency is
    // paid for by losing late binding — a chunk committed to a worker that
    // then runs slow cannot be rebalanced — and the net effect is slightly
    // negative across the Table 1 space. See `bench_experiments ablation-buffering`.
  }
  return plan;
}

RumrPolicy::RumrPolicy(const std::shared_ptr<const RumrPlan>& plan) : plan_(plan) {
  if (plan_->phase1) phase1_.emplace(plan_->phase1);
  if (plan_->phase2_factoring) {
    phase2_ = std::make_unique<baselines::SelfSchedulingPolicy>(plan_->phase2_factoring);
  } else if (plan_->phase2_weighted) {
    phase2_ = std::make_unique<baselines::WeightedFactoringPolicy>(plan_->phase2_weighted);
  }
}

RumrPolicy::RumrPolicy(const platform::StarPlatform& platform, double w_total,
                       RumrOptions options)
    : RumrPolicy(prepare_rumr(platform, w_total, std::move(options))) {}

std::optional<sim::Dispatch> RumrPolicy::next_dispatch(const sim::MasterContext& ctx) {
  if (phase1_ && !phase1_->finished()) return phase1_->next_dispatch(ctx);
  if (phase2_ && !phase2_->finished()) return phase2_->next_dispatch(ctx);
  return std::nullopt;
}

void RumrPolicy::on_worker_down(const sim::MasterContext& ctx, std::size_t worker) {
  // Both phases see the fence: the inactive phase may still hold undispatched
  // work pinned to the fenced worker.
  if (phase1_) phase1_->on_worker_down(ctx, worker);
  if (phase2_) phase2_->on_worker_down(ctx, worker);
}

void RumrPolicy::on_worker_up(const sim::MasterContext& ctx, std::size_t worker) {
  if (phase1_) phase1_->on_worker_up(ctx, worker);
  if (phase2_) phase2_->on_worker_up(ctx, worker);
}

std::optional<des::SimTime> RumrPolicy::next_poll_time() const {
  // Forward timetable wake-ups when phase 1 runs in kTimetable mode (not
  // the default, but a legal RumrOptions::phase1_order); without this the
  // engine would never re-poll a time-gated phase 1.
  if (phase1_ && !phase1_->finished()) return phase1_->next_poll_time();
  return std::nullopt;
}

bool RumrPolicy::finished() const {
  return (!phase1_ || phase1_->finished()) && (!phase2_ || phase2_->finished());
}

std::size_t RumrPolicy::phase1_rounds() const noexcept {
  return phase1_ ? phase1_->schedule().rounds : 0;
}

bool RumrPolicy::in_phase2() const noexcept { return !phase1_ || phase1_->finished(); }

RumrOptions rumr_fixed_split_options(double phase1_percent) {
  RumrOptions options;
  options.known_error.reset();
  options.unknown_error_phase2_fraction = std::clamp(1.0 - phase1_percent / 100.0, 0.0, 1.0);
  options.apply_phase2_threshold = false;
  options.name = "RUMR-" + std::to_string(static_cast<int>(std::lround(phase1_percent)));
  return options;
}

}  // namespace rumr::core
