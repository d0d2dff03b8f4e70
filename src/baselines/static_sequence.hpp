#pragma once

/// \file static_sequence.hpp
/// Policy adapter for precomputed schedules.
///
/// Algorithms that precalculate the entire schedule at the onset of the
/// application (MI-x, plain UMR) reduce, at execution time, to replaying a
/// fixed dispatch sequence as fast as the uplink allows. This policy does
/// exactly that: it never waits and never reacts to completions.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/policy.hpp"

namespace rumr::baselines {

/// The immutable half of a static-sequence run: the dispatches, front to
/// back. One plan serves any number of runs, concurrently.
struct StaticSequencePlan {
  std::string name;
  /// Positive chunks only.
  std::vector<sim::Dispatch> dispatches;
  double total_work = 0.0;
};

/// Builds a plan from `dispatches`. Zero-sized entries are dropped (a solver
/// may legitimately produce them).
[[nodiscard]] std::shared_ptr<const StaticSequencePlan> make_static_sequence_plan(
    std::string name, const std::vector<sim::Dispatch>& dispatches);

/// Replays a fixed sequence of dispatches in order: a cursor over a plan.
class StaticSequencePolicy : public sim::SchedulerPolicy {
 public:
  explicit StaticSequencePolicy(std::shared_ptr<const StaticSequencePlan> plan);

  /// `plan` is dispatched front to back (see make_static_sequence_plan).
  StaticSequencePolicy(std::string name, const std::vector<sim::Dispatch>& plan);

  [[nodiscard]] std::string_view name() const override { return plan_->name; }
  std::optional<sim::Dispatch> next_dispatch(const sim::MasterContext& ctx) override;
  [[nodiscard]] bool finished() const override { return cursor_ >= plan_->dispatches.size(); }
  [[nodiscard]] double total_work() const override { return plan_->total_work; }

  [[nodiscard]] const std::vector<sim::Dispatch>& plan() const noexcept {
    return plan_->dispatches;
  }

 private:
  std::shared_ptr<const StaticSequencePlan> plan_;
  std::size_t cursor_ = 0;
};

}  // namespace rumr::baselines
