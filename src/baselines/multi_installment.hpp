#pragma once

/// \file multi_installment.hpp
/// Multi-Installment divisible-load scheduling (Bharadwaj, Ghose, Mani &
/// Robertazzi, 1996, ch. 10) — the "MI-x" competitor in the RUMR paper.
///
/// MI computes, for a *zero-latency* star platform, the per-installment chunk
/// sizes such that (a) every installment after the first arrives at its
/// worker exactly when the previous one finishes computing (just-in-time),
/// and (b) all workers finish simultaneously. Unlike UMR, chunks within an
/// installment are not uniform, installment count `x` is an input (the paper
/// instantiates MI-1..MI-4 because MI has no way to pick x), and latencies
/// are not modeled — which is precisely the handicap it suffers when the
/// schedule executes on a platform that does have latencies.
///
/// With x = 1 this degenerates to the classical one-round divisible-load
/// solution (the paper's single-round competitor [11] family): chunk sizes
/// form a decreasing geometric sequence with ratio B/(B+S) on homogeneous
/// platforms.
///
/// The just-in-time/simultaneous-finish conditions form an (N*x) x (N*x)
/// linear system, solved with the in-repo dense LU (`rumr::linalg`).

#include <cstddef>
#include <memory>
#include <vector>

#include "baselines/static_sequence.hpp"
#include "platform/platform.hpp"
#include "sim/policy.hpp"

namespace rumr::baselines {

/// A solved MI schedule.
struct MiSchedule {
  std::size_t installments = 0;
  /// chunk[j][i]: installment j's chunk for worker i (workload units).
  std::vector<std::vector<double>> chunk;
  /// True when the raw linear solution contained negative chunks that were
  /// clamped to zero (the remaining mass is renormalized). MI is infeasible
  /// in its pure form for such configurations.
  bool clamped = false;
  /// Predicted makespan under the zero-latency model MI assumes.
  double predicted_makespan = 0.0;

  /// Flattens to the dispatch order MI uses: installments outer, workers
  /// inner (worker 0 first).
  [[nodiscard]] std::vector<sim::Dispatch> to_plan() const;

  /// Sum of all chunks.
  [[nodiscard]] double total() const;
};

/// Largest MI system solved, in unknowns (N workers x x installments). The
/// dense LU costs O((N*x)^3), so each doubling past this bound costs 8x the
/// time (DESIGN.md section 4 has the measurements); the largest system any
/// caller in the repo builds is 200 (N = 50, MI-4).
inline constexpr std::size_t kMaxMiUnknowns = 1024;

/// Solves the MI-x schedule for `w_total` units on `platform`.
///
/// Only the speeds and bandwidths of the platform are used (MI models no
/// latencies). Heterogeneous platforms are supported by the same linear
/// system. Throws std::invalid_argument for x == 0, for w_total <= 0, and
/// when N*x exceeds kMaxMiUnknowns.
[[nodiscard]] MiSchedule solve_multi_installment(const platform::StarPlatform& platform,
                                                 double w_total, std::size_t installments);

/// MI-x's plan: the solved schedule as a static dispatch sequence named
/// "MI-x".
[[nodiscard]] std::shared_ptr<const StaticSequencePlan> prepare_mi(
    const platform::StarPlatform& platform, double w_total, std::size_t installments);

}  // namespace rumr::baselines
