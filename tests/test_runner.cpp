// Tests for the sweep runner (sweep/runner.hpp), driven through the
// rumr::Sweep facade: determinism, aggregation, and the Table 2 / Table 3 /
// Figure 4 reductions of the SweepResult fold.

#include "sweep/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "api/rumr.hpp"
#include "baselines/static_sequence.hpp"
#include "report/metrics_io.hpp"
#include "sweep_fold.hpp"
#include "util/json_lite.hpp"

namespace rumr::sweep {
namespace {

GridSpec tiny_grid() {
  GridSpec spec;
  spec.n_values = {10};
  spec.b_over_n_values = {1.5};
  spec.clat_values = {0.1};
  spec.nlat_values = {0.05};
  return spec;
}

SweepOptions tiny_options() {
  SweepOptions options;
  options.errors = {0.0, 0.2, 0.4};
  options.repetitions = 5;
  return options;
}

/// The tiny grid's one platform at errors {0, 0.2, 0.4}, 5 repetitions.
Sweep tiny_sweep(std::vector<AlgorithmSpec> algos) {
  Sweep builder;
  builder.grid(tiny_grid()).errors({0.0, 0.2, 0.4}).reps(5).policies(std::move(algos));
  return builder;
}

/// Cell (error e, algorithm a) of a one-platform sweep of `algos` algorithms,
/// in execute()'s (platform, error, algorithm) order.
const CellStats& cell_at(const std::vector<SweepCell>& cells, std::size_t algos, std::size_t e,
                         std::size_t a) {
  return cells.at(e * algos + a).stats;
}

TEST(Runner, RejectsEmptyAlgorithmList) {
  EXPECT_THROW((void)tiny_sweep({}).execute(), std::invalid_argument);
}

TEST(Runner, ShapesMatchInputs) {
  const std::vector<SweepCell> cells = tiny_sweep({rumr_spec(), umr_spec()}).execute();
  ASSERT_EQ(cells.size(), 6u);
  const SweepResult res = fold(cells);
  EXPECT_EQ(res.platforms(), 1u);
  EXPECT_EQ(res.errors().size(), 3u);
  ASSERT_EQ(res.algorithms().size(), 2u);
  EXPECT_EQ(res.algorithms()[0], "RUMR");
  EXPECT_EQ(res.algorithms()[1], "UMR");
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_EQ(cell_at(cells, 2, e, a).reps, 5u);
      EXPECT_EQ(cell_at(cells, 2, e, a).makespan.count(), 5u);
      EXPECT_GT(cell_at(cells, 2, e, a).makespan.mean(), 0.0);
    }
  }
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec(), factoring_spec()};
  const std::vector<SweepCell> a = tiny_sweep(algos).threads(1).execute();
  const std::vector<SweepCell> b = tiny_sweep(algos).threads(8).execute();
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t algo = 0; algo < algos.size(); ++algo) {
      EXPECT_DOUBLE_EQ(cell_at(a, 3, e, algo).makespan.mean(),
                       cell_at(b, 3, e, algo).makespan.mean());
      EXPECT_EQ(cell_at(a, 3, e, algo).ref_wins, cell_at(b, 3, e, algo).ref_wins);
    }
  }
}

TEST(Runner, BaseSeedChangesResultsUnderError) {
  const std::vector<SweepCell> ra = tiny_sweep({umr_spec()}).seed(1).execute();
  const std::vector<SweepCell> rb = tiny_sweep({umr_spec()}).seed(2).execute();
  // Error = 0 cells agree (no randomness); error > 0 cells differ.
  EXPECT_DOUBLE_EQ(cell_at(ra, 1, 0, 0).makespan.mean(), cell_at(rb, 1, 0, 0).makespan.mean());
  EXPECT_NE(cell_at(ra, 1, 2, 0).makespan.mean(), cell_at(rb, 1, 2, 0).makespan.mean());
}

TEST(Runner, ReferenceIsNeverItsOwnWin) {
  const std::vector<SweepCell> cells = tiny_sweep({rumr_spec(), umr_spec()}).execute();
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(cell_at(cells, 2, e, 0).ref_wins, 0u);
    EXPECT_EQ(cell_at(cells, 2, e, 0).ref_wins_by_10pct, 0u);
  }
}

TEST(Runner, NormalizedMakespanOfReferenceIsOne) {
  const SweepResult res = fold(tiny_sweep({rumr_spec(), umr_spec()}).execute());
  for (std::size_t e = 0; e < res.errors().size(); ++e) {
    EXPECT_DOUBLE_EQ(res.mean_normalized_makespan(e, 0), 1.0);
    EXPECT_GT(res.mean_normalized_makespan(e, 1), 0.0);
  }
}

TEST(Runner, WinPercentagesAreBounded) {
  GridSpec spec = tiny_grid();
  spec.n_values = {10, 20};
  const SweepResult res = fold(Sweep()
                                   .grid(spec)
                                   .errors({0.04, 0.24, 0.44})
                                   .reps(4)
                                   .policies({rumr_spec(), mi_spec(2)})
                                   .execute());
  for (std::size_t band = 0; band < 5; ++band) {
    const double t2 = res.win_percentage(band, 1);
    const double t3 = res.win_percentage(band, 1, true);
    EXPECT_GE(t2, 0.0);
    EXPECT_LE(t2, 100.0);
    EXPECT_LE(t3, t2 + 1e-12);  // Winning by 10% implies winning.
  }
  EXPECT_GE(res.overall_win_percentage(1), 0.0);
  EXPECT_LE(res.overall_win_percentage(1), 100.0);
}

TEST(Runner, FoldIsIndependentOfCellOrder) {
  GridSpec spec = tiny_grid();
  spec.n_values = {10, 20};
  const std::vector<SweepCell> cells =
      Sweep().grid(spec).errors({0.04, 0.24, 0.44}).reps(4).policies({rumr_spec(), mi_spec(2)})
          .execute();
  const SweepResult in_order = fold(cells);
  SweepResult reversed(in_order.platforms(), in_order.errors(), in_order.algorithms());
  for (auto cell = cells.rbegin(); cell != cells.rend(); ++cell) reversed.add(*cell);
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(reversed.mean_normalized_makespan(e, 1), in_order.mean_normalized_makespan(e, 1));
  }
  for (std::size_t band = 0; band < 5; ++band) {
    EXPECT_EQ(reversed.win_percentage(band, 1, true), in_order.win_percentage(band, 1, true));
  }
  EXPECT_EQ(reversed.overall_win_percentage(1), in_order.overall_win_percentage(1));
}

TEST(Runner, FoldRejectsCellsOutsideItsShape) {
  SweepResult result(1, {0.0, 0.2}, {"RUMR", "UMR"});
  SweepCell cell;
  cell.error_index = 2;
  EXPECT_THROW(result.add(cell), std::out_of_range);
  cell.error_index = 1;
  cell.algorithm_index = 2;
  EXPECT_THROW(result.add(cell), std::out_of_range);
  cell.algorithm_index = 1;
  cell.platform_index = 1;
  EXPECT_THROW(result.add(cell), std::out_of_range);
}

TEST(Runner, UniformDistributionOptionIsHonored) {
  const std::vector<SweepCell> rn = tiny_sweep({umr_spec()}).execute();
  const std::vector<SweepCell> ru =
      tiny_sweep({umr_spec()}).distribution(stats::ErrorDistribution::kUniform).execute();
  // Different distributions, same seeds: different perturbed makespans.
  EXPECT_NE(cell_at(rn, 1, 2, 0).makespan.mean(), cell_at(ru, 1, 2, 0).makespan.mean());
  // But similar magnitude (the paper's "essentially similar" claim).
  EXPECT_NEAR(cell_at(rn, 1, 2, 0).makespan.mean() / cell_at(ru, 1, 2, 0).makespan.mean(), 1.0,
              0.2);
}

// --- option validation ------------------------------------------------------

TEST(SweepOptionsValidate, AcceptsDefaults) {
  EXPECT_TRUE(SweepOptions{}.validate().empty());
  EXPECT_TRUE(tiny_options().validate().empty());
}

TEST(SweepOptionsValidate, FlagsEachDegenerateField) {
  SweepOptions options;
  options.errors = {};
  EXPECT_FALSE(options.validate().empty());

  options = tiny_options();
  options.errors = {0.1, -0.2};
  EXPECT_FALSE(options.validate().empty());

  options = tiny_options();
  options.repetitions = 0;
  EXPECT_FALSE(options.validate().empty());

  options = tiny_options();
  options.w_total = -5.0;
  EXPECT_FALSE(options.validate().empty());
}

TEST(SweepOptionsValidate, MessagesAreHumanReadable) {
  SweepOptions options;
  options.errors = {};
  options.repetitions = 0;
  const std::vector<std::string> errors = options.validate();
  ASSERT_GE(errors.size(), 2u);
  for (const std::string& message : errors) EXPECT_FALSE(message.empty());
}

TEST(Runner, RejectsInvalidOptionsUpFront) {
  EXPECT_THROW((void)tiny_sweep({umr_spec()}).errors({0.1, -0.2}).execute(),
               std::invalid_argument);
}

// --- metrics aggregation and export ----------------------------------------

TEST(Runner, AggregatesObservabilityMetricsPerCell) {
  const std::vector<SweepCell> cells = tiny_sweep({rumr_spec(), umr_spec()}).execute();
  ASSERT_EQ(cells.size(), 6u);
  for (const SweepCell& swept : cells) {
    const CellStats& cell = swept.stats;
    EXPECT_EQ(cell.uplink_utilization.count(), cell.reps);
    EXPECT_EQ(cell.worker_utilization.count(), cell.reps);
    EXPECT_EQ(cell.events.count(), cell.reps);
    EXPECT_EQ(cell.hol_blocking_time.count(), cell.reps);
    EXPECT_EQ(cell.work_redispatched.count(), cell.reps);
    EXPECT_GT(cell.uplink_utilization.mean(), 0.0);
    EXPECT_LE(cell.uplink_utilization.mean(), 1.0);
    EXPECT_GT(cell.events.mean(), 0.0);
    // No faults in this sweep: nothing may be re-dispatched.
    EXPECT_DOUBLE_EQ(cell.work_redispatched.mean(), 0.0);
  }
}

TEST(MetricsIo, CsvHasOneRowPerCellWithStableHeader) {
  const std::vector<SweepCell> cells = tiny_sweep({rumr_spec(), umr_spec()}).execute();
  const std::string csv = report::sweep_metrics_csv(cells);
  EXPECT_NE(csv.find("config,error,algorithm,reps,makespan_mean,makespan_stddev"),
            std::string::npos);
  // Header + one row per (config, error, algorithm) cell.
  const std::size_t rows = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1u + 1u * 3u * 2u);
  EXPECT_NE(csv.find("RUMR"), std::string::npos);
  EXPECT_NE(csv.find("UMR"), std::string::npos);
}

TEST(MetricsIo, JsonIsBalancedAndCarriesEveryCell) {
  const std::vector<SweepCell> swept = tiny_sweep({umr_spec()}).execute();
  // Parsing is the balance check: a document with an unbalanced brace throws.
  const util::JsonValue json = util::JsonValue::parse(report::sweep_metrics_json(swept));
  const auto& cells = json.as_array();
  ASSERT_EQ(cells.size(), 1u * 3u * 1u);
  for (const util::JsonValue& cell : cells) {
    EXPECT_NE(cell.find("algorithm"), nullptr);
    EXPECT_NE(cell.find("uplink_utilization_mean"), nullptr);
  }
}

TEST(PaperRule, Table3MarginIsTenPercentOfRumrsMakespan) {
  // Paper Table 3: RUMR (algorithm 0) outperforms a competitor "by at least
  // 10%" when 1.1 * RUMR <= competitor — ten percent of RUMR's makespan, not
  // of the competitor's (RUMR <= 0.9 * competitor). A competitor 10.5%
  // slower than RUMR meets the first and not the second.
  const auto one_chunk_to = [](std::size_t worker) {
    return AlgorithmSpec{"to-" + std::to_string(worker),
                         [worker](const platform::StarPlatform&, double w_total, double) {
                           return PreparedPolicy([worker, w_total] {
                             return std::make_unique<baselines::StaticSequencePolicy>(
                                 "one-chunk", std::vector<sim::Dispatch>{{worker, w_total}});
                           });
                         }};
  };
  // Worker 1 computes 1.105x slower; the link is fast enough not to matter.
  const platform::StarPlatform p({{1.0, 1e9, 0.0, 0.0, 0.0}, {1.0 / 1.105, 1e9, 0.0, 0.0, 0.0}});
  SweepOptions options;
  options.errors = {0.0};
  options.repetitions = 2;
  options.w_total = 100.0;
  options.threads = 1;
  std::vector<SweepCell> cells;
  run_sweep_streaming({{"p", p}}, {one_chunk_to(0), one_chunk_to(1)}, options,
                      [&cells](const SweepCell& cell) { cells.push_back(cell); });
  ASSERT_EQ(cells.size(), 2u);
  const SweepCell& competitor = cells[0].algorithm_index == 1 ? cells[0] : cells[1];
  EXPECT_EQ(competitor.stats.ref_wins, 2u);
  EXPECT_EQ(competitor.stats.ref_wins_by_10pct, 2u);

  // The same margin over cell means.
  const auto cell_with_mean = [](std::size_t algo, double makespan) {
    SweepCell cell;
    cell.algorithm_index = algo;
    cell.stats.makespan.add(makespan);
    return cell;
  };
  SweepResult result(1, {0.0}, {"RUMR", "competitor"});
  result.add(cell_with_mean(0, 100.0));
  result.add(cell_with_mean(1, 110.5));
  EXPECT_EQ(result.win_percentage(error_band(0.0), 1, /*by_margin=*/true), 100.0);
  result.add(cell_with_mean(1, 109.9));
  EXPECT_EQ(result.win_percentage(error_band(0.0), 1, /*by_margin=*/true), 0.0);
  EXPECT_EQ(result.win_percentage(error_band(0.0), 1), 100.0);
}

TEST(AlgorithmFactory, PaperLineUpNamesAndOrder) {
  const auto algos = paper_competitors();
  ASSERT_EQ(algos.size(), 7u);
  EXPECT_EQ(algos[0].name, "RUMR");
  EXPECT_EQ(algos[1].name, "UMR");
  EXPECT_EQ(algos[2].name, "MI-1");
  EXPECT_EQ(algos[5].name, "MI-4");
  EXPECT_EQ(algos[6].name, "Factoring");
  const auto extended = extended_competitors();
  ASSERT_EQ(extended.size(), 8u);
  EXPECT_EQ(extended[7].name, "FSC");
}

}  // namespace
}  // namespace rumr::sweep
