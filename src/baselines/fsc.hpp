#pragma once

/// \file fsc.hpp
/// Fixed-Size Chunking (Kruskal & Weiss 1985, as studied experimentally by
/// Hagerup, JPDC 47, 1997).
///
/// FSC is "optimized self-scheduling": all chunks share one size, chosen to
/// balance per-chunk overhead against end-of-run imbalance. We use the
/// Kruskal-Weiss optimum adapted to divisible loads:
///
///     c* = ( sqrt(2) * W * h / (sigma * N * sqrt(ln N)) )^(2/3)
///
/// with W the total workload, h the per-chunk overhead in work units
/// ((cLat + nLat*N) * S), N the worker count, and sigma the absolute
/// execution-time spread of a unit of work (error * S seconds, i.e. `error`
/// work units). The RUMR paper measured FSC, found it dominated by Factoring
/// in most experiments and omitted it from the plots; we include it as an
/// extension and reproduce that domination.

#include <memory>

#include "baselines/factoring.hpp"
#include "platform/platform.hpp"

namespace rumr::baselines {

/// Computes the FSC chunk size for the given configuration, clamped into
/// [min_chunk_floor, W/N]. `error` <= 0 (no uncertainty) yields W/N (a single
/// round, the overhead-optimal choice when nothing can go wrong).
[[nodiscard]] double fsc_chunk_size(const platform::StarPlatform& platform, double w_total,
                                    double error);

/// FSC's plan: equal chunks of the Kruskal-Weiss size over every worker.
[[nodiscard]] std::shared_ptr<const SelfSchedulingPlan> prepare_fsc(
    const platform::StarPlatform& platform, double w_total, double error);

/// The FSC policy: equal chunks of the Kruskal-Weiss size, greedy
/// self-scheduled dispatch (same mechanics as Factoring).
class FscPolicy : public SelfSchedulingPolicy {
 public:
  FscPolicy(const platform::StarPlatform& platform, double w_total, double error);
};

}  // namespace rumr::baselines
