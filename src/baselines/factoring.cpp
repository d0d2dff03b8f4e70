#include "baselines/factoring.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace rumr::baselines {

double empty_round_overhead_seconds(const platform::StarPlatform& platform) {
  const auto n = static_cast<double>(platform.size());
  double mean_clat = 0.0;
  double mean_nlat = 0.0;
  for (const platform::WorkerSpec& w : platform.workers()) {
    mean_clat += w.comp_latency;
    mean_nlat += w.comm_latency;
  }
  mean_clat /= n;
  mean_nlat /= n;
  return mean_clat + mean_nlat * n;
}

double empty_round_overhead_work(const platform::StarPlatform& platform) {
  const double mean_speed = platform.total_speed() / static_cast<double>(platform.size());
  return empty_round_overhead_seconds(platform) * mean_speed;
}

std::vector<std::size_t> all_workers(std::size_t n) {
  std::vector<std::size_t> workers(n);
  for (std::size_t i = 0; i < n; ++i) workers[i] = i;
  return workers;
}

std::shared_ptr<const SelfSchedulingPlan> make_self_scheduling_plan(
    std::string name, const std::vector<double>& chunks, std::vector<std::size_t> workers) {
  if (workers.empty()) throw std::invalid_argument("self-scheduling needs >= 1 worker");
  auto plan = std::make_shared<SelfSchedulingPlan>();
  plan->name = std::move(name);
  plan->workers = std::move(workers);
  plan->chunks.reserve(chunks.size());
  for (double c : chunks) {
    if (c > 0.0) {
      plan->chunks.push_back(c);
      plan->total_work += c;
    }
  }
  return plan;
}

SelfSchedulingPolicy::SelfSchedulingPolicy(std::shared_ptr<const SelfSchedulingPlan> plan)
    : plan_(std::move(plan)) {}

SelfSchedulingPolicy::SelfSchedulingPolicy(std::string name, const std::vector<double>& chunks,
                                           std::size_t num_workers)
    : SelfSchedulingPolicy(std::move(name), chunks, all_workers(num_workers)) {}

SelfSchedulingPolicy::SelfSchedulingPolicy(std::string name, const std::vector<double>& chunks,
                                           std::vector<std::size_t> workers)
    : SelfSchedulingPolicy(make_self_scheduling_plan(std::move(name), chunks, std::move(workers))) {}

std::optional<sim::Dispatch> SelfSchedulingPolicy::next_dispatch(const sim::MasterContext& ctx) {
  const std::vector<double>& chunks = plan_->chunks;
  const std::vector<std::size_t>& workers = plan_->workers;
  if (cursor_ >= chunks.size()) return std::nullopt;

  // Self-scheduling: feed only alive workers below the outstanding cap (1 =
  // pure request-driven, 2 = one-chunk prefetch). Among eligible workers
  // prefer the least loaded, then the one idle the longest (earliest
  // completion; subset order initially), matching a FIFO request queue.
  std::size_t best = workers.size();
  std::size_t best_outstanding = 0;
  double best_completion = 0.0;
  bool any_alive_in_subset = false;
  for (std::size_t k = 0; k < workers.size(); ++k) {
    const sim::WorkerStatus& st = ctx.worker_status(workers[k]);
    if (!st.alive) continue;
    any_alive_in_subset = true;
    if (st.outstanding >= max_outstanding_) continue;
    const bool better = best == workers.size() || st.outstanding < best_outstanding ||
                        (st.outstanding == best_outstanding &&
                         st.last_completion < best_completion);
    if (better) {
      best = k;
      best_outstanding = st.outstanding;
      best_completion = st.last_completion;
    }
  }
  if (best < workers.size()) return sim::Dispatch{workers[best], chunks[cursor_++]};
  if (any_alive_in_subset) return std::nullopt;  // Everyone loaded: wait.

  // Fault fallback: the whole subset is fenced. Rather than strand the
  // remaining chunks, feed the soonest-ready alive worker anywhere on the
  // platform (RUMR phase 2 thereby escapes a dead phase-1 selection).
  std::size_t fallback = ctx.num_workers();
  for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
    const sim::WorkerStatus& st = ctx.worker_status(w);
    if (!st.alive) continue;
    if (fallback == ctx.num_workers() ||
        st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
      fallback = w;
    }
  }
  if (fallback == ctx.num_workers()) return std::nullopt;  // All dead: wait/strand.
  return sim::Dispatch{fallback, chunks[cursor_++]};
}

std::vector<double> factoring_chunks(double w_total, std::size_t num_workers,
                                     const FactoringOptions& options) {
  if (!(w_total > 0.0)) return {};
  if (num_workers == 0) throw std::invalid_argument("factoring needs >= 1 worker");
  if (!(options.factor > 1.0)) throw std::invalid_argument("factoring factor must exceed 1");

  const auto n = static_cast<double>(num_workers);
  // A strictly positive floor is needed for termination on continuous loads;
  // 1e-6 of the workload is far below any overhead-relevant size.
  const double floor_chunk = std::max(options.min_chunk, 1e-6 * w_total);
  const double epsilon = 1e-12 * w_total;

  std::vector<double> chunks;
  double remaining = w_total;
  while (remaining > epsilon) {
    const double batch_chunk = std::max(remaining / (options.factor * n), floor_chunk);
    for (std::size_t i = 0; i < num_workers && remaining > epsilon; ++i) {
      double take = std::min(batch_chunk, remaining);
      // Absorb a vanishing remainder into this chunk instead of emitting a
      // degenerate extra one.
      if (remaining - take < 0.5 * floor_chunk) take = remaining;
      chunks.push_back(take);
      remaining -= take;
    }
  }
  return chunks;
}

std::shared_ptr<const SelfSchedulingPlan> prepare_factoring(double w_total,
                                                          std::vector<std::size_t> workers,
                                                          const FactoringOptions& options) {
  const std::vector<double> chunks = factoring_chunks(w_total, workers.size(), options);
  return make_self_scheduling_plan("Factoring", chunks, std::move(workers));
}

FactoringPolicy::FactoringPolicy(double w_total, std::size_t num_workers,
                                 const FactoringOptions& options)
    : SelfSchedulingPolicy(prepare_factoring(w_total, all_workers(num_workers), options)) {}

FactoringPolicy::FactoringPolicy(double w_total, std::vector<std::size_t> workers,
                                 const FactoringOptions& options)
    : SelfSchedulingPolicy(prepare_factoring(w_total, std::move(workers), options)) {}

std::shared_ptr<const SelfSchedulingPlan> prepare_factoring(
    const platform::StarPlatform& platform, double w_total) {
  FactoringOptions options;
  options.min_chunk = empty_round_overhead_work(platform);
  return prepare_factoring(w_total, all_workers(platform.size()), options);
}

}  // namespace rumr::baselines
