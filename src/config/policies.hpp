#pragma once

/// \file policies.hpp
/// The policy registry: one table (kPolicies in policies.cpp) names every
/// scheduling algorithm. A row pairs a config name — the lower-case
/// spelling that `[schedule] algorithm`, job options, serve queries and
/// by-name line-ups use — with the display name results carry and the
/// `prepare` that solves the algorithm's plan. Two rows are families over a
/// decimal parameter ("mi-<x>", "rumr-<pct>"): digits only, no leading
/// zero, inside the row's range. Every other place that names an algorithm
/// looks it up here.
///
/// `prepare` solves the schedule once, from the platform parameters alone —
/// as the paper's UMR and MI-x are "precalculated at the onset of the
/// application" — and returns an immutable plan; each call of the result is
/// one run's policy, a cursor over that plan. Its error argument is the
/// level the algorithm is told: RUMR and FSC use it (the paper's "error is
/// known" setting, section 4.2); the others ignore it.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::config {

/// A prepared policy: each call returns a fresh per-run instance over one
/// immutable plan, so calls may run concurrently; an instance belongs to
/// one run.
using PreparedPolicy = std::function<std::unique_ptr<sim::SchedulerPolicy>()>;

/// A named scheduling algorithm: a line-up member.
struct AlgorithmSpec {
  std::string name;
  /// Solves the plan for one (platform, workload, error) site.
  std::function<PreparedPolicy(const platform::StarPlatform& platform, double w_total,
                               double error)>
      prepare;

  /// One run's policy from a freshly prepared plan: equal to every instance
  /// of prepare(platform, w_total, error).
  [[nodiscard]] std::unique_ptr<sim::SchedulerPolicy> make(const platform::StarPlatform& platform,
                                                           double w_total, double error) const {
    return prepare(platform, w_total, error)();
  }
};

/// Algorithm `name` as a line-up member labelled with its display name.
/// Throws ConfigError naming the problem when `name` does not resolve.
[[nodiscard]] AlgorithmSpec policy_spec(std::string_view name);

/// Why `name` does not resolve, or empty when it does.
[[nodiscard]] std::string policy_name_problem(std::string_view name);

/// Why `name` cannot be solved on a platform of `num_workers` workers — an
/// mi-<x> whose N*x linear unknowns exceed baselines::kMaxMiUnknowns — or
/// empty when it can, when `num_workers` is 0 (unknown), or when `name`
/// does not resolve (policy_name_problem reports that).
[[nodiscard]] std::string policy_size_problem(std::string_view name, std::size_t num_workers);

/// Every config name, in table order, with each family at the members the
/// evaluation runs (mi-1..mi-4, rumr-50..rumr-90).
[[nodiscard]] std::vector<std::string> policy_names();

/// One run of algorithm `name`: its prepare(platform, w_total,
/// known_error)(). The lookup allocates nothing. Throws ConfigError when
/// `name` does not resolve.
[[nodiscard]] std::unique_ptr<sim::SchedulerPolicy> make_policy(
    std::string_view name, const platform::StarPlatform& platform, double w_total,
    double known_error);

}  // namespace rumr::config
