// Tests for the sweep runner (sweep/runner.hpp): determinism, aggregation,
// and the Table 2 / Table 3 / Figure 4 accessors.

#include "sweep/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_sequence.hpp"
#include "report/metrics_io.hpp"
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

TEST(Runner, RejectsEmptyAlgorithmList) {
  EXPECT_THROW((void)run_sweep(make_grid(tiny_grid()), {}, tiny_options()),
               std::invalid_argument);
}

TEST(Runner, ShapesMatchInputs) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec()};
  const SweepResult res = run_sweep(configs, algos, tiny_options());
  EXPECT_EQ(res.configs().size(), 1u);
  EXPECT_EQ(res.errors().size(), 3u);
  ASSERT_EQ(res.algorithms().size(), 2u);
  EXPECT_EQ(res.algorithms()[0], "RUMR");
  EXPECT_EQ(res.algorithms()[1], "UMR");
  for (std::size_t e = 0; e < 3; ++e) {
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_EQ(res.cell(0, e, a).reps, 5u);
      EXPECT_EQ(res.cell(0, e, a).makespan.count(), 5u);
      EXPECT_GT(res.cell(0, e, a).makespan.mean(), 0.0);
    }
  }
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec(), factoring_spec()};
  SweepOptions one = tiny_options();
  one.threads = 1;
  SweepOptions many = tiny_options();
  many.threads = 8;
  const SweepResult a = run_sweep(configs, algos, one);
  const SweepResult b = run_sweep(configs, algos, many);
  for (std::size_t e = 0; e < a.errors().size(); ++e) {
    for (std::size_t algo = 0; algo < algos.size(); ++algo) {
      EXPECT_DOUBLE_EQ(a.cell(0, e, algo).makespan.mean(), b.cell(0, e, algo).makespan.mean());
      EXPECT_EQ(a.cell(0, e, algo).ref_wins, b.cell(0, e, algo).ref_wins);
    }
  }
}

TEST(Runner, BaseSeedChangesResultsUnderError) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{umr_spec()};
  SweepOptions a = tiny_options();
  a.base_seed = 1;
  SweepOptions b = tiny_options();
  b.base_seed = 2;
  const SweepResult ra = run_sweep(configs, algos, a);
  const SweepResult rb = run_sweep(configs, algos, b);
  // Error = 0 cells agree (no randomness); error > 0 cells differ.
  EXPECT_DOUBLE_EQ(ra.cell(0, 0, 0).makespan.mean(), rb.cell(0, 0, 0).makespan.mean());
  EXPECT_NE(ra.cell(0, 2, 0).makespan.mean(), rb.cell(0, 2, 0).makespan.mean());
}

TEST(Runner, ReferenceIsNeverItsOwnWin) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec()};
  const SweepResult res = run_sweep(configs, algos, tiny_options());
  for (std::size_t e = 0; e < res.errors().size(); ++e) {
    EXPECT_EQ(res.cell(0, e, 0).ref_wins, 0u);
    EXPECT_EQ(res.cell(0, e, 0).ref_wins_by_10pct, 0u);
  }
}

TEST(Runner, NormalizedMakespanOfReferenceIsOne) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec()};
  const SweepResult res = run_sweep(configs, algos, tiny_options());
  for (std::size_t e = 0; e < res.errors().size(); ++e) {
    EXPECT_DOUBLE_EQ(res.mean_normalized_makespan(e, 0), 1.0);
    EXPECT_GT(res.mean_normalized_makespan(e, 1), 0.0);
  }
}

TEST(Runner, WinPercentagesAreBounded) {
  GridSpec spec = tiny_grid();
  spec.n_values = {10, 20};
  const auto configs = make_grid(spec);
  SweepOptions options;
  options.errors = {0.04, 0.24, 0.44};
  options.repetitions = 4;
  const std::vector<AlgorithmSpec> algos{rumr_spec(), mi_spec(2)};
  const SweepResult res = run_sweep(configs, algos, options);
  for (std::size_t band = 0; band < 5; ++band) {
    const double t2 = res.win_percentage(band, 1);
    const double t3 = res.win_percentage(band, 1, true);
    EXPECT_GE(t2, 0.0);
    EXPECT_LE(t2, 100.0);
    EXPECT_LE(t3, t2 + 1e-12);  // Winning by 10% implies winning.
  }
  EXPECT_GE(res.overall_win_percentage(1), 0.0);
  EXPECT_LE(res.overall_win_percentage(1), 100.0);
  EXPECT_GE(res.per_rep_win_percentage(2, 1), 0.0);
  EXPECT_LE(res.per_rep_win_percentage(2, 1), 100.0);
}

TEST(Runner, RunOnceMatchesManualSimulation) {
  const PlatformConfig config{10, 1.5, 0.1, 0.05};
  const double a = run_once(config, umr_spec(), 0.3, 42);
  const double b = run_once(config, umr_spec(), 0.3, 42);
  EXPECT_DOUBLE_EQ(a, b);
  const double c = run_once(config, umr_spec(), 0.3, 43);
  EXPECT_NE(a, c);
}

TEST(Runner, UniformDistributionOptionIsHonored) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{umr_spec()};
  SweepOptions normal = tiny_options();
  SweepOptions uniform = tiny_options();
  uniform.distribution = stats::ErrorDistribution::kUniform;
  const SweepResult rn = run_sweep(configs, algos, normal);
  const SweepResult ru = run_sweep(configs, algos, uniform);
  // Different distributions, same seeds: different perturbed makespans.
  EXPECT_NE(rn.cell(0, 2, 0).makespan.mean(), ru.cell(0, 2, 0).makespan.mean());
  // But similar magnitude (the paper's "essentially similar" claim).
  EXPECT_NEAR(rn.cell(0, 2, 0).makespan.mean() / ru.cell(0, 2, 0).makespan.mean(), 1.0, 0.2);
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
  SweepOptions options = tiny_options();
  options.repetitions = 0;
  EXPECT_THROW((void)run_sweep(make_grid(tiny_grid()), {umr_spec()}, options),
               std::invalid_argument);
}

// --- metrics aggregation and export ----------------------------------------

TEST(Runner, AggregatesObservabilityMetricsPerCell) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec()};
  const SweepResult res = run_sweep(configs, algos, tiny_options());
  for (std::size_t e = 0; e < res.errors().size(); ++e) {
    for (std::size_t a = 0; a < algos.size(); ++a) {
      const CellStats& cell = res.cell(0, e, a);
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
}

TEST(MetricsIo, CsvHasOneRowPerCellWithStableHeader) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{rumr_spec(), umr_spec()};
  const SweepResult res = run_sweep(configs, algos, tiny_options());
  const std::string csv = report::sweep_metrics_csv(res);
  EXPECT_NE(csv.find("config,error,algorithm,reps,makespan_mean,makespan_stddev"),
            std::string::npos);
  // Header + one row per (config, error, algorithm) cell.
  const std::size_t rows = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1u + res.configs().size() * res.errors().size() * res.algorithms().size());
  EXPECT_NE(csv.find("RUMR"), std::string::npos);
  EXPECT_NE(csv.find("UMR"), std::string::npos);
}

TEST(MetricsIo, JsonIsBalancedAndCarriesEveryCell) {
  const auto configs = make_grid(tiny_grid());
  const std::vector<AlgorithmSpec> algos{umr_spec()};
  const SweepResult res = run_sweep(configs, algos, tiny_options());
  // Parsing is the balance check: a document with an unbalanced brace throws.
  const util::JsonValue json = util::JsonValue::parse(report::sweep_metrics_json(res));
  const auto& cells = json.as_array();
  ASSERT_EQ(cells.size(), res.configs().size() * res.errors().size() * res.algorithms().size());
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
  SweepResult result({PlatformConfig{}}, {0.0}, {"RUMR", "competitor"});
  result.cell(0, 0, 0).makespan.add(100.0);
  result.cell(0, 0, 1).makespan.add(110.5);
  EXPECT_EQ(result.win_percentage(error_band(0.0), 1, /*by_margin=*/true), 100.0);
  result.cell(0, 0, 1).makespan = {};
  result.cell(0, 0, 1).makespan.add(109.9);
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
