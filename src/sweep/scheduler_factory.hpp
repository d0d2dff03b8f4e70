#pragma once

/// \file scheduler_factory.hpp
/// Named factories for every scheduling algorithm in the evaluation, so the
/// sweep runner and the bench harnesses share one definition of each
/// competitor.
///
/// The factory receives the true error level of the experiment: RUMR and FSC
/// are given it (the paper's "error is known" setting — see section 4.2);
/// UMR, MI-x and Factoring ignore it by construction.
///
/// Construction is split in two. `prepare` solves the algorithm's schedule
/// once, from the platform parameters alone — as the paper's UMR and MI-x
/// are "precalculated at the onset of the application" — and returns an
/// immutable plan; each call of the result is one run's policy, a cursor over
/// that plan. A sweep site or a raced cell prepares once and runs many.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::sweep {

/// A prepared policy: each call returns a fresh per-run instance over one
/// plan. The plan is immutable, so calls may run concurrently from any
/// number of threads; an instance belongs to one run.
using PreparedPolicy = std::function<std::unique_ptr<sim::SchedulerPolicy>()>;

/// A named scheduling algorithm.
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

/// RUMR with the error level known (original RUMR of the paper).
[[nodiscard]] AlgorithmSpec rumr_spec();
/// RUMR with in-order (plain UMR) phase 1 — the Figure 7 ablation.
[[nodiscard]] AlgorithmSpec rumr_inorder_spec();
/// RUMR scheduling a fixed percentage of the workload in phase 1 — Figure 6.
[[nodiscard]] AlgorithmSpec rumr_fixed_spec(double phase1_percent);
/// RUMR with on-line error estimation (extension).
[[nodiscard]] AlgorithmSpec rumr_adaptive_spec();
/// Plain UMR (Yang & Casanova, IPDPS'03).
[[nodiscard]] AlgorithmSpec umr_spec();
/// Multi-Installment with x installments (Bharadwaj et al.).
[[nodiscard]] AlgorithmSpec mi_spec(std::size_t installments);
/// Factoring (Flynn Hummel).
[[nodiscard]] AlgorithmSpec factoring_spec();
/// Fixed-Size Chunking (Hagerup / Kruskal-Weiss).
[[nodiscard]] AlgorithmSpec fsc_spec();

/// Guided Self-Scheduling (Polychronopoulos & Kuck 1987).
[[nodiscard]] AlgorithmSpec gss_spec();
/// Trapezoid Self-Scheduling (Tzen & Ni 1993).
[[nodiscard]] AlgorithmSpec tss_spec();
/// Weighted Factoring (Flynn Hummel et al. 1996).
[[nodiscard]] AlgorithmSpec weighted_factoring_spec();

/// The paper's section 5.1 line-up, reference (RUMR) first:
/// RUMR, UMR, MI-1, MI-2, MI-3, MI-4, Factoring.
[[nodiscard]] std::vector<AlgorithmSpec> paper_competitors();

/// paper_competitors() plus FSC (measured by the paper but not plotted).
[[nodiscard]] std::vector<AlgorithmSpec> extended_competitors();

/// RUMR against the whole loop self-scheduling family:
/// RUMR, Factoring, WF, GSS, TSS, FSC (extension study).
[[nodiscard]] std::vector<AlgorithmSpec> loop_family_competitors();

/// The best-arm racing line-up (race/race.hpp): RUMR and its fixed-split
/// ablations against the cross-family baselines —
/// RUMR, RUMR-50..RUMR-90, UMR, MI-2, Factoring, FSC (10 arms).
[[nodiscard]] std::vector<AlgorithmSpec> racing_competitors();

}  // namespace rumr::sweep
