/// \file test_race_regression.cpp
/// Raced-winner cross-check property: on pinned seeds, the winner a race
/// certifies must equal the argmin of a full fixed-repetition sweep over the
/// SAME seed lanes — two Table 1 platforms x two error regimes. The race and
/// the fixed sweep both derive repetition seeds from
/// sweep::derive_rep_seed(base_seed, label, error, rep), so the fixed sweep's
/// per-arm means are exactly the full-lane means the race's survivors were
/// converging to; a disagreement means the elimination rule discarded the
/// true argmin. Everything is deterministic (pinned base seed), so this is a
/// regression property, not a flaky statistical one — hence the
/// "regression" ctest label. At the larger budget every cell must also
/// certify, with at least 3x fewer simulations than the fixed sweep.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "check/race_audit.hpp"
#include "race/race.hpp"
#include "sweep/grid.hpp"
#include "sweep/runner.hpp"
#include "sweep/scheduler_factory.hpp"

namespace {

using namespace rumr;

TEST(RaceRegression, RacedWinnerMatchesFixedRepArgmin) {
  const std::vector<sweep::SweepPlatform> platforms = {
      sweep::SweepPlatform::from_config({10, 1.5, 0.1, 0.05}),
      sweep::SweepPlatform::from_config({20, 1.2, 0.3, 0.1}),
  };
  const std::vector<double> errors = {0.3, 0.45};
  const std::vector<sweep::AlgorithmSpec> lineup = sweep::extended_competitors();
  constexpr std::uint64_t kSeed = 0x5eed5eed5eedULL;
  constexpr double kWorkload = 300.0;

  // At 512 three of the four cells exhaust the budget; at 2048 every cell
  // certifies (2096, 3152, 5040 and 4240 samples, 3.3-7.8x fewer than the
  // fixed sweep), the raced grid EXPERIMENTS.md reports.
  for (const std::size_t budget : {std::size_t{512}, std::size_t{2048}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    // The fixed-repetition reference: every arm spends the full budget.
    sweep::SweepOptions fixed;
    fixed.errors = errors;
    fixed.repetitions = budget;
    fixed.w_total = kWorkload;
    fixed.base_seed = kSeed;
    fixed.threads = 4;
    std::map<std::pair<std::size_t, std::size_t>, std::pair<std::string, double>> argmin;
    sweep::run_sweep_streaming(platforms, lineup, fixed,
                               [&argmin](const sweep::SweepCell& cell) {
                                 const auto key = std::make_pair(cell.platform_index,
                                                                 cell.error_index);
                                 const double mean = cell.stats.makespan.mean();
                                 const auto it = argmin.find(key);
                                 if (it == argmin.end() || mean < it->second.second) {
                                   argmin[key] = {cell.algorithm, mean};
                                 }
                               });
    ASSERT_EQ(argmin.size(), platforms.size() * errors.size());

    // The raced grid over the same seed lanes.
    race::RaceOptions options;
    options.block = 16;
    options.max_reps = budget;
    options.base_seed = kSeed;
    options.w_total = kWorkload;
    options.threads = 4;
    std::size_t cells = 0;
    race::run_race_sweep(platforms, lineup, errors, options, [&](const race::RaceCell& cell) {
      ++cells;
      const std::string& raced = cell.result.arms[cell.result.winner].name;
      const auto& fixed_best = argmin.at({cell.platform_index, cell.error_index});
      EXPECT_EQ(raced, fixed_best.first)
          << cell.platform_label << " err=" << cell.error << ": race certified '" << raced
          << "' (budget_exhausted=" << cell.result.budget_exhausted
          << ") but the fixed-rep argmin is '" << fixed_best.first << "' (mean "
          << fixed_best.second << ")";
      const check::AuditReport audit = check::audit_race_result(cell.result);
      EXPECT_TRUE(audit.ok()) << cell.platform_label << ": " << audit.summary();
      if (budget == 2048) {
        EXPECT_FALSE(cell.result.budget_exhausted)
            << cell.platform_label << " err=" << cell.error << " did not certify";
        EXPECT_GE(cell.result.sims_saved_ratio(), 3.0)
            << cell.platform_label << " err=" << cell.error << ": "
            << cell.result.total_samples << " samples";
      }
    });
    EXPECT_EQ(cells, platforms.size() * errors.size());
  }
}

}  // namespace
