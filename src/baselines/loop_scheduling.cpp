#include "baselines/loop_scheduling.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rumr::baselines {

std::vector<double> gss_chunks(double w_total, std::size_t num_workers, double min_chunk) {
  if (!(w_total > 0.0)) return {};
  if (num_workers == 0) throw std::invalid_argument("GSS needs >= 1 worker");
  const auto n = static_cast<double>(num_workers);
  const double floor_chunk = std::max(min_chunk, 1e-6 * w_total);
  const double epsilon = 1e-12 * w_total;

  std::vector<double> chunks;
  double remaining = w_total;
  while (remaining > epsilon) {
    double take = std::max(remaining / n, floor_chunk);
    take = std::min(take, remaining);
    if (remaining - take < 0.5 * floor_chunk) take = remaining;
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

std::vector<double> tss_chunks(double w_total, std::size_t num_workers,
                               const TssOptions& options) {
  if (!(w_total > 0.0)) return {};
  if (num_workers == 0) throw std::invalid_argument("TSS needs >= 1 worker");
  if (!(options.last > 0.0)) throw std::invalid_argument("TSS last chunk must be positive");
  const auto n = static_cast<double>(num_workers);
  const double first =
      options.first > 0.0 ? options.first : std::max(options.last, w_total / (2.0 * n));
  const double last = std::min(options.last, first);

  // Tzen & Ni: with linear decay from f to l, the number of dispatches is
  // about ceil(2W / (f + l)); the per-dispatch decrement follows.
  const double count = std::max(1.0, std::ceil(2.0 * w_total / (first + last)));
  const double decrement = count > 1.0 ? (first - last) / (count - 1.0) : 0.0;

  std::vector<double> chunks;
  double remaining = w_total;
  double size = first;
  const double epsilon = 1e-12 * w_total;
  while (remaining > epsilon) {
    double take = std::min(std::max(size, last), remaining);
    if (remaining - take < 0.5 * last) take = remaining;  // Absorb the dust.
    chunks.push_back(take);
    remaining -= take;
    size -= decrement;
  }
  return chunks;
}

std::vector<std::pair<std::size_t, double>> weighted_factoring_chunks(
    double w_total, const std::vector<double>& weights, const FactoringOptions& options) {
  if (!(w_total > 0.0)) return {};
  if (weights.empty()) throw std::invalid_argument("weighted factoring needs >= 1 weight");
  if (!(options.factor > 1.0)) throw std::invalid_argument("factoring factor must exceed 1");
  double weight_sum = 0.0;
  for (double w : weights) {
    if (!(w > 0.0)) throw std::invalid_argument("weights must be positive");
    weight_sum += w;
  }

  const double floor_chunk = std::max(options.min_chunk, 1e-6 * w_total);
  const double epsilon = 1e-12 * w_total;
  std::vector<std::pair<std::size_t, double>> plan;
  double remaining = w_total;
  while (remaining > epsilon) {
    const double batch = std::max(remaining / options.factor,
                                  floor_chunk * static_cast<double>(weights.size()));
    for (std::size_t i = 0; i < weights.size() && remaining > epsilon; ++i) {
      double take = std::min(batch * weights[i] / weight_sum, remaining);
      if (remaining - take < 0.5 * floor_chunk) take = remaining;
      if (take > 0.0) {
        plan.emplace_back(i, take);
        remaining -= take;
      }
    }
  }
  return plan;
}

CssPolicy::CssPolicy(double w_total, std::size_t num_workers, double chunk_size)
    : SelfSchedulingPolicy("CSS",
                           [&] {
                             if (!(chunk_size > 0.0)) {
                               throw std::invalid_argument("CSS chunk size must be positive");
                             }
                             std::vector<double> chunks;
                             double remaining = w_total;
                             const double epsilon = 1e-12 * w_total;
                             while (remaining > epsilon) {
                               double take = std::min(chunk_size, remaining);
                               if (remaining - take < 1e-9 * w_total) take = remaining;
                               chunks.push_back(take);
                               remaining -= take;
                             }
                             return chunks;
                           }(),
                           num_workers) {}

std::shared_ptr<const WeightedFactoringPlan> prepare_weighted_factoring(
    double w_total, const std::vector<std::size_t>& workers, const std::vector<double>& weights,
    const FactoringOptions& options) {
  if (workers.size() != weights.size()) {
    throw std::invalid_argument("weighted factoring: workers/weights size mismatch");
  }
  auto plan = std::make_shared<WeightedFactoringPlan>();
  plan->dispatches = weighted_factoring_chunks(w_total, weights, options);
  // Map weight positions back to platform worker indices.
  for (auto& [position, chunk] : plan->dispatches) position = workers[position];
  for (const auto& [worker, chunk] : plan->dispatches) plan->total_work += chunk;
  return plan;
}

namespace {

std::vector<double> speeds(const platform::StarPlatform& platform) {
  std::vector<double> weights;
  weights.reserve(platform.size());
  for (const platform::WorkerSpec& w : platform.workers()) weights.push_back(w.speed);
  return weights;
}

}  // namespace

WeightedFactoringPolicy::WeightedFactoringPolicy(
    const std::shared_ptr<const WeightedFactoringPlan>& plan)
    : plan_(plan->dispatches), total_work_(plan->total_work) {}

WeightedFactoringPolicy::WeightedFactoringPolicy(const platform::StarPlatform& platform,
                                                 double w_total, const FactoringOptions& options)
    : WeightedFactoringPolicy(prepare_weighted_factoring(w_total, all_workers(platform.size()),
                                                         speeds(platform), options)) {}

std::optional<sim::Dispatch> WeightedFactoringPolicy::next_dispatch(
    const sim::MasterContext& ctx) {
  if (cursor_ >= plan_.size()) return std::nullopt;
  // Each chunk is pre-assigned to a worker (its size was computed from that
  // worker's weight); dispatch it only when its worker is idle, but allow
  // later chunks of the same batch to overtake blocked ones so one slow
  // worker does not stall the batch.
  for (std::size_t probe = cursor_; probe < plan_.size(); ++probe) {
    const auto [worker, chunk] = plan_[probe];
    const sim::WorkerStatus& st = ctx.worker_status(worker);
    if (st.alive && st.outstanding == 0) {
      // Swap the served chunk to the cursor to keep the plan compact.
      std::swap(plan_[cursor_], plan_[probe]);
      ++cursor_;
      return sim::Dispatch{worker, chunk};
    }
  }
  // Fault fallback: every remaining chunk is pinned to a fenced or busy
  // worker. Redirect the head chunk to an idle alive worker so a dead
  // worker's share is redistributed instead of stranding the plan.
  for (std::size_t probe = cursor_; probe < plan_.size(); ++probe) {
    if (ctx.worker_status(plan_[probe].first).alive) continue;
    std::size_t fallback = ctx.num_workers();
    for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
      const sim::WorkerStatus& st = ctx.worker_status(w);
      if (!st.alive || st.outstanding != 0) continue;
      if (fallback == ctx.num_workers() ||
          st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
        fallback = w;
      }
    }
    if (fallback == ctx.num_workers()) break;  // Nobody idle yet: wait.
    std::swap(plan_[cursor_], plan_[probe]);
    const double chunk = plan_[cursor_].second;
    ++cursor_;
    return sim::Dispatch{fallback, chunk};
  }
  return std::nullopt;
}

std::shared_ptr<const SelfSchedulingPlan> prepare_gss(const platform::StarPlatform& platform,
                                                     double w_total) {
  return make_self_scheduling_plan(
      "GSS", gss_chunks(w_total, platform.size(), empty_round_overhead_work(platform)),
      all_workers(platform.size()));
}

std::shared_ptr<const SelfSchedulingPlan> prepare_tss(const platform::StarPlatform& platform,
                                                     double w_total) {
  TssOptions options;
  options.last = std::max(1.0, empty_round_overhead_work(platform));
  return make_self_scheduling_plan("TSS", tss_chunks(w_total, platform.size(), options),
                                   all_workers(platform.size()));
}

std::shared_ptr<const WeightedFactoringPlan> prepare_weighted_factoring(
    const platform::StarPlatform& platform, double w_total) {
  FactoringOptions options;
  options.min_chunk = empty_round_overhead_work(platform);
  return prepare_weighted_factoring(w_total, all_workers(platform.size()), speeds(platform),
                                    options);
}

}  // namespace rumr::baselines
