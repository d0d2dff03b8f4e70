// End-to-end integration tests: the paper's headline claims at pinned
// configurations, exercised through the same pipeline bench_experiments
// uses (factory -> rumr::Sweep -> SweepResult fold).

#include <gtest/gtest.h>

#include "api/rumr.hpp"
#include "sweep_fold.hpp"

namespace rumr::sweep {
namespace {

/// Low-latency platform, moderate error: RUMR's home turf (paper Fig. 4b).
TEST(Integration, RumrBeatsAllCompetitorsOnLowLatencyPlatformAtHighError) {
  GridSpec spec;
  spec.n_values = {20};
  spec.b_over_n_values = {1.8};
  spec.clat_values = {0.1};
  spec.nlat_values = {0.1};
  const SweepResult res =
      fold(Sweep().grid(spec).errors({0.4}).reps(40).policies(paper_competitors()).execute());
  for (std::size_t a = 1; a < res.algorithms().size(); ++a) {
    EXPECT_GT(res.mean_normalized_makespan(0, a), 1.0)
        << res.algorithms()[a] << " should lose to RUMR here";
  }
}

/// At zero error UMR is at least as good as RUMR (paper: "the only algorithm
/// that outperforms RUMR on average is UMR when the prediction error is
/// small") and both beat MI-x and Factoring.
TEST(Integration, UmrIsBestAtZeroError) {
  GridSpec spec;
  spec.n_values = {10, 30};
  spec.b_over_n_values = {1.5};
  spec.clat_values = {0.2};
  spec.nlat_values = {0.2};
  // One repetition: deterministic at zero error.
  const SweepResult res =
      fold(Sweep().grid(spec).errors({0.0}).reps(1).policies(paper_competitors()).execute());
  const double umr = res.mean_normalized_makespan(0, 1);
  EXPECT_LE(umr, 1.0 + 1e-9);
  for (std::size_t a = 2; a < res.algorithms().size(); ++a) {
    EXPECT_GT(res.mean_normalized_makespan(0, a), umr) << res.algorithms()[a];
  }
}

/// Factoring's relative makespan improves (falls) as error grows, the
/// paper's "inverted trends" observation, while UMR's worsens (rises) —
/// checked on a low-latency configuration where phase 2 is active.
TEST(Integration, InvertedTrendsForUmrAndFactoring) {
  GridSpec spec;
  spec.n_values = {20};
  spec.b_over_n_values = {1.6};
  spec.clat_values = {0.1};
  spec.nlat_values = {0.05};
  const SweepResult res = fold(
      Sweep().grid(spec).errors({0.08, 0.44}).reps(40).policies(paper_competitors()).execute());
  const std::size_t umr = 1;
  const std::size_t factoring = 6;
  EXPECT_GT(res.mean_normalized_makespan(1, umr), res.mean_normalized_makespan(0, umr));
  EXPECT_LT(res.mean_normalized_makespan(1, factoring),
            res.mean_normalized_makespan(0, factoring));
}

/// MI-x stays well behind RUMR on average over a spread of configurations
/// (the paper: "never get within less than 20% of RUMR on average").
/// Point-wise MI can tie RUMR on benign configs, so — like the paper — the
/// claim is about the average.
TEST(Integration, MultiInstallmentTrailsBadlyOnAverage) {
  GridSpec spec;
  spec.n_values = {10, 30};
  spec.b_over_n_values = {1.2, 1.8};
  spec.clat_values = {0.1, 0.7};
  spec.nlat_values = {0.1, 0.7};
  const SweepResult res =
      fold(Sweep().grid(spec).errors({0.2}).reps(10).policies(paper_competitors()).execute());
  for (std::size_t a = 2; a <= 5; ++a) {  // MI-1 .. MI-4.
    EXPECT_GT(res.mean_normalized_makespan(0, a), 1.05) << res.algorithms()[a];
  }
}

/// FSC is dominated by Factoring in most experiments (the paper measured it
/// and dropped it from the plots for this reason).
TEST(Integration, FscIsDominatedByFactoring) {
  GridSpec spec;
  spec.n_values = {10, 30};
  spec.b_over_n_values = {1.5};
  spec.clat_values = {0.2, 0.6};
  spec.nlat_values = {0.2, 0.6};
  const SweepResult res =
      fold(Sweep().grid(spec).errors({0.3}).reps(15).policies(extended_competitors()).execute());
  const std::size_t factoring = 6;
  const std::size_t fsc = 7;
  std::size_t factoring_wins = 0;
  for (std::size_t c = 0; c < res.platforms(); ++c) {
    if (res.mean_makespan(c, 0, factoring) < res.mean_makespan(c, 0, fsc)) {
      ++factoring_wins;
    }
  }
  EXPECT_GE(factoring_wins * 2, res.platforms());  // Majority.
}

/// The fixed 80/20 split is a sensible unknown-error default: it stays
/// within a modest factor of known-error RUMR across the error range
/// (paper section 5.2.1).
TEST(Integration, FixedSplitIsReasonableDefault) {
  GridSpec spec;
  spec.n_values = {20};
  spec.b_over_n_values = {1.6};
  spec.clat_values = {0.1};
  spec.nlat_values = {0.1};
  const std::vector<AlgorithmSpec> algos{rumr_spec(), rumr_fixed_spec(80)};
  const SweepResult res =
      fold(Sweep().grid(spec).errors({0.1, 0.3, 0.5}).reps(20).policies(algos).execute());
  for (std::size_t e = 0; e < res.errors().size(); ++e) {
    EXPECT_LT(res.mean_normalized_makespan(e, 1), 1.35);
  }
}

}  // namespace
}  // namespace rumr::sweep
