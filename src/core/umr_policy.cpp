#include "core/umr_policy.hpp"

#include <stdexcept>
#include <utility>

namespace rumr::core {

namespace {

/// A plan for `schedule`, without a timetable.
std::shared_ptr<UmrPlan> plan_rounds(UmrSchedule schedule, DispatchOrder order,
                                     std::string name) {
  auto plan = std::make_shared<UmrPlan>();
  plan->name = std::move(name);
  plan->order = order;
  plan->total_work = schedule.total();
  plan->round_begin.reserve(schedule.rounds + 1);
  plan->round_begin.push_back(0);
  plan->sends_in_round.reserve(schedule.rounds);
  plan->initial_sent.reserve(schedule.rounds * schedule.selected_workers.size());
  for (std::size_t j = 0; j < schedule.rounds; ++j) {
    std::size_t sends = 0;
    for (const double chunk : schedule.chunk[j]) {
      const bool empty = chunk <= 0.0;
      plan->initial_sent.push_back(empty ? 1 : 0);
      if (!empty) ++sends;
    }
    plan->round_begin.push_back(plan->initial_sent.size());
    plan->sends_in_round.push_back(sends);
  }
  plan->schedule = std::move(schedule);
  return plan;
}

/// Planned send start times: the precalculated schedule keeps the uplink
/// saturated, so chunk k's send is planned to start when the (predicted)
/// serial parts of all earlier sends have completed. Zero-sized chunks are
/// skipped, mirroring the dispatch path.
std::vector<des::SimTime> plan_timetable(const UmrSchedule& schedule,
                                         const platform::StarPlatform& platform) {
  std::vector<des::SimTime> timetable;
  des::SimTime clock = 0.0;
  for (std::size_t j = 0; j < schedule.rounds; ++j) {
    for (std::size_t k = 0; k < schedule.chunk[j].size(); ++k) {
      const double chunk = schedule.chunk[j][k];
      if (chunk <= 0.0) continue;
      timetable.push_back(clock);
      clock += platform.comm_serial_time(schedule.selected_workers[k], chunk);
    }
  }
  return timetable;
}

}  // namespace

std::shared_ptr<const UmrPlan> prepare_umr(const platform::StarPlatform& platform,
                                           double w_total, DispatchOrder order,
                                           const UmrOptions& options, std::string name) {
  std::shared_ptr<UmrPlan> plan =
      plan_rounds(solve_umr(platform, w_total, options), order, std::move(name));
  if (order == DispatchOrder::kTimetable) {
    plan->timetable = plan_timetable(plan->schedule, platform);
  }
  return plan;
}

UmrPolicy::UmrPolicy(std::shared_ptr<const UmrPlan> plan)
    : plan_(std::move(plan)), sent_(plan_->initial_sent) {
  enter_round(0);
}

UmrPolicy::UmrPolicy(UmrSchedule schedule, DispatchOrder order, std::string name)
    : UmrPolicy([&] {
        if (order == DispatchOrder::kTimetable) {
          throw std::invalid_argument(
              "kTimetable needs the platform to compute planned send times; use the "
              "platform-taking UmrPolicy constructor");
        }
        return plan_rounds(std::move(schedule), order, std::move(name));
      }()) {}

UmrPolicy::UmrPolicy(const platform::StarPlatform& platform, double w_total, DispatchOrder order,
                     const UmrOptions& options, std::string name)
    : UmrPolicy(prepare_umr(platform, w_total, order, options, std::move(name))) {}

void UmrPolicy::enter_round(std::size_t round) {
  // Rounds whose every chunk is zero-sized need no send; skip them.
  const std::size_t rounds = plan_->schedule.rounds;
  current_round_ = round;
  while (current_round_ < rounds && plan_->sends_in_round[current_round_] == 0) ++current_round_;
  remaining_in_round_ = current_round_ < rounds ? plan_->sends_in_round[current_round_] : 0;
}

std::optional<sim::Dispatch> UmrPolicy::next_dispatch(const sim::MasterContext& ctx) {
  const UmrPlan& plan = *plan_;
  const UmrSchedule& schedule = plan.schedule;
  if (current_round_ >= schedule.rounds) return std::nullopt;

  // Timetable mode: never run ahead of the precalculated send times.
  if (plan.order == DispatchOrder::kTimetable && sent_count_ < plan.timetable.size() &&
      ctx.now() < plan.timetable[sent_count_]) {
    return std::nullopt;
  }

  char* const round_sent = sent_.data() + plan.round_begin[current_round_];
  const std::size_t slots =
      plan.round_begin[current_round_ + 1] - plan.round_begin[current_round_];
  const auto& round_chunks = schedule.chunk[current_round_];

  std::size_t pick = slots;
  if (plan.order != DispatchOrder::kOutOfOrder) {
    for (std::size_t k = 0; k < slots; ++k) {
      if (!round_sent[k]) {
        pick = k;
        break;
      }
    }
  } else {
    // Out of order (the paper's phase-1 revision): keep the round-robin
    // order unless a worker "finishes prematurely" — i.e. an unserved worker
    // of this round has nothing outstanding. Prematurely idle workers are
    // served first (earliest completion first); otherwise fall back to slot
    // order. Deviating only on observed idleness keeps the increasing-chunk
    // structure intact when predictions are good (Figure 7's observation
    // that aggressive reordering can hurt at low error).
    std::size_t first_unserved = slots;
    std::size_t first_receivable = slots;
    double best_completion = 0.0;
    for (std::size_t k = 0; k < slots; ++k) {
      if (round_sent[k]) continue;
      const std::size_t worker = schedule.selected_workers[k];
      if (first_unserved == slots) first_unserved = k;
      const sim::WorkerStatus& st = ctx.worker_status(worker);
      // Fenced workers never win a preference slot (their chunk will be
      // redirected below when slot order reaches them).
      if (!st.alive) continue;
      if (first_receivable == slots && ctx.can_receive(worker)) {
        first_receivable = k;
      }
      if (st.outstanding == 0 && st.completed_chunks > 0) {
        if (pick == slots || st.last_completion < best_completion) {
          pick = k;
          best_completion = st.last_completion;
        }
      }
    }
    // Preference: prematurely idle worker, then any worker that can receive
    // without blocking the uplink, then plain round-robin order.
    if (pick == slots) pick = first_receivable;
    if (pick == slots) pick = first_unserved;
  }
  if (pick == slots) return std::nullopt;  // Unreachable if invariants hold.

  // Fault fallback: the precalculated schedule assumed every selected worker
  // survives. A slot aimed at a fenced worker is redirected — preferably to
  // an alive *selected* worker (keeping phase structure), else to any alive
  // worker, soonest predicted-ready first. When nobody is alive the slot is
  // NOT consumed: the policy waits for a rejoin instead of dropping work.
  std::size_t target = schedule.selected_workers[pick];
  if (!ctx.worker_status(target).alive) {
    std::size_t fallback = ctx.num_workers();
    for (std::size_t w : schedule.selected_workers) {
      const sim::WorkerStatus& st = ctx.worker_status(w);
      if (!st.alive) continue;
      if (fallback == ctx.num_workers() ||
          st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
        fallback = w;
      }
    }
    if (fallback == ctx.num_workers()) {
      for (std::size_t w = 0; w < ctx.num_workers(); ++w) {
        const sim::WorkerStatus& st = ctx.worker_status(w);
        if (!st.alive) continue;
        if (fallback == ctx.num_workers() ||
            st.predicted_ready < ctx.worker_status(fallback).predicted_ready) {
          fallback = w;
        }
      }
    }
    if (fallback == ctx.num_workers()) return std::nullopt;
    target = fallback;
  }

  round_sent[pick] = 1;
  --remaining_in_round_;
  ++sent_count_;
  const sim::Dispatch d{target, round_chunks[pick]};
  if (remaining_in_round_ == 0) enter_round(current_round_ + 1);
  return d;
}

std::optional<des::SimTime> UmrPolicy::next_poll_time() const {
  if (plan_->order != DispatchOrder::kTimetable || finished() ||
      sent_count_ >= plan_->timetable.size()) {
    return std::nullopt;
  }
  return plan_->timetable[sent_count_];
}

bool UmrPolicy::finished() const { return current_round_ >= plan_->schedule.rounds; }

}  // namespace rumr::core
