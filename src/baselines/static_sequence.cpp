#include "baselines/static_sequence.hpp"

#include <algorithm>

namespace rumr::baselines {

std::shared_ptr<const StaticSequencePlan> make_static_sequence_plan(
    std::string name, const std::vector<sim::Dispatch>& dispatches) {
  auto plan = std::make_shared<StaticSequencePlan>();
  plan->name = std::move(name);
  plan->dispatches.reserve(dispatches.size());
  for (const sim::Dispatch& d : dispatches) {
    if (d.chunk > 0.0) {
      plan->dispatches.push_back(d);
      plan->total_work += d.chunk;
    }
  }
  return plan;
}

StaticSequencePolicy::StaticSequencePolicy(std::shared_ptr<const StaticSequencePlan> plan)
    : plan_(std::move(plan)) {}

StaticSequencePolicy::StaticSequencePolicy(std::string name,
                                           const std::vector<sim::Dispatch>& plan)
    : StaticSequencePolicy(make_static_sequence_plan(std::move(name), plan)) {}

std::optional<sim::Dispatch> StaticSequencePolicy::next_dispatch(const sim::MasterContext& ctx) {
  if (cursor_ >= plan_->dispatches.size()) return std::nullopt;
  sim::Dispatch next = plan_->dispatches[cursor_];
  // Fault fallback: a precalculated schedule has no feedback loop, so a plan
  // entry aimed at a fenced worker is redirected to the soonest-ready alive
  // worker (the dead worker's share is redistributed, not stranded).
  // Out-of-range plan entries pass through so the engine can reject them.
  if (next.worker < ctx.num_workers() && !ctx.worker_status(next.worker).alive) {
    std::size_t fallback = ctx.num_workers();
    for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
      const sim::WorkerStatus& st = ctx.worker_status(w);
      if (!st.alive) continue;
      if (fallback == ctx.num_workers() ||
          st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
        fallback = w;
      }
    }
    if (fallback == ctx.num_workers()) return std::nullopt;  // All dead: wait.
    next.worker = fallback;
  }
  ++cursor_;
  return next;
}

}  // namespace rumr::baselines
