#pragma once

/// \file umr_policy.hpp
/// Execution policy for UMR schedules, with the dispatch-order knob that
/// RUMR's phase 1 adds (paper section 4.2, design choice ii).

#include <memory>
#include <string>
#include <vector>

#include "core/umr.hpp"
#include "sim/policy.hpp"

namespace rumr::core {

/// How chunks inside a round are ordered and paced.
enum class DispatchOrder : unsigned char {
  /// Plain UMR, eagerly executed: strict round-robin (worker 0, 1, ...,
  /// N-1 every round), each send starting as soon as the uplink frees.
  kInOrder,
  /// RUMR's phase-1 modification: within the current round, a worker that
  /// finished prematurely (nothing outstanding) jumps the queue; next
  /// preference goes to workers that can receive without blocking. Rounds
  /// are never reordered, preserving the increasing-chunk-size property.
  kOutOfOrder,
  /// UMR as a literal precalculated schedule: round-robin order AND the
  /// precalculated send start times — a send never starts before its planned
  /// time, even if the uplink freed early (transfers that ran fast do not
  /// let the master run ahead of its timetable). This is the fully
  /// "precalculated at the onset" execution the paper contrasts RUMR's
  /// greedy component against.
  kTimetable,
};

/// The immutable half of a UMR run: the solved schedule, how it is paced,
/// and the slot bookkeeping every run starts from. One plan serves any
/// number of runs, concurrently.
struct UmrPlan {
  std::string name;
  UmrSchedule schedule;
  DispatchOrder order = DispatchOrder::kInOrder;
  double total_work = 0.0;
  /// Round j's slots are [round_begin[j], round_begin[j + 1]) in a flat
  /// array of every (round, selected-worker slot) pair.
  std::vector<std::size_t> round_begin;
  /// Slots with a positive chunk per round: the sends that round needs.
  std::vector<std::size_t> sends_in_round;
  /// A run's initial sent-mask: zero-sized chunks (a worker whose cLat
  /// consumed its whole round) count as already dispatched.
  std::vector<char> initial_sent;
  /// kTimetable only: planned send start time of each dispatch, flattened in
  /// round-robin order.
  std::vector<des::SimTime> timetable;
};

/// Solves UMR for (platform, w_total) and plans its execution.
[[nodiscard]] std::shared_ptr<const UmrPlan> prepare_umr(
    const platform::StarPlatform& platform, double w_total,
    DispatchOrder order = DispatchOrder::kInOrder, const UmrOptions& options = {},
    std::string name = "UMR");

/// Replays a UMR schedule round by round: a cursor over a UmrPlan.
class UmrPolicy : public sim::SchedulerPolicy {
 public:
  explicit UmrPolicy(std::shared_ptr<const UmrPlan> plan);

  /// Wraps an already-solved schedule. Throws std::invalid_argument for
  /// kTimetable, whose send times need the platform.
  UmrPolicy(UmrSchedule schedule, DispatchOrder order, std::string name = "UMR");

  /// Solves UMR for (platform, w_total) and wraps the result (see prepare_umr).
  UmrPolicy(const platform::StarPlatform& platform, double w_total,
            DispatchOrder order = DispatchOrder::kInOrder, const UmrOptions& options = {},
            std::string name = "UMR");

  [[nodiscard]] std::string_view name() const override { return plan_->name; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  [[nodiscard]] std::optional<des::SimTime> next_poll_time() const override;
  [[nodiscard]] bool finished() const override;
  [[nodiscard]] double total_work() const override { return plan_->total_work; }

  [[nodiscard]] const UmrSchedule& schedule() const noexcept { return plan_->schedule; }
  [[nodiscard]] DispatchOrder order() const noexcept { return plan_->order; }

 private:
  void enter_round(std::size_t round);

  std::shared_ptr<const UmrPlan> plan_;
  /// sent_[plan_->round_begin[j] + k]: round j's chunk for selected-worker
  /// slot k already dispatched.
  std::vector<char> sent_;
  std::size_t current_round_ = 0;
  std::size_t remaining_in_round_ = 0;
  /// Dispatches so far; indexes the kTimetable timetable.
  std::size_t sent_count_ = 0;
};

}  // namespace rumr::core
