// bench_experiments: the paper's Tables 2-3 and Figures 4-7, and the
// repository's extension studies, as the rows of one table.
//
//   bench_experiments <name>... [--full] [--reps N] [--threads N]
//
// <name> is a row of experiments() below, or `all` for every row in table
// order. By default each row runs at its quick scale: most sweep a 144-point
// grid spanning the Table 1 ranges, 13 error levels and a few repetitions.
// --full switches to the paper-exact grid (9801 configurations x 25 error
// levels x 40 repetitions), --reps N overrides every row's repetition count,
// and --threads N sets the sweep width (0, the default, uses every hardware
// thread; the output is identical for any width). Figures also write their
// exact numbers to results/<csv> under the working directory.
//
// Eight rows sweep a policy line-up over a platform grid and an error axis
// through rumr::Sweep. Their cells are folded into a sweep::SweepResult as
// they stream, one mean makespan per cell, so not even the paper-exact grid
// keeps a cell's statistics. The other four rows are studies that need
// engine options a sweep does not take (uplink channels, buffer depth, error
// processes, random heterogeneous platforms); they keep their own loops and
// seeds.

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "api/rumr.hpp"
#include "platform/heterogeneity.hpp"
#include "util/problems.hpp"

namespace {

using namespace rumr;

/// The scale the command line asks for.
struct Scale {
  bool full = false;
  std::size_t reps = 0;     ///< --reps; 0 = each row's own count.
  std::size_t threads = 0;  ///< --threads; 0 = hardware concurrency.

  /// --reps if given, else the paper's 40 at full scale and `quick` otherwise.
  [[nodiscard]] std::size_t repetitions(std::size_t quick) const {
    if (reps > 0) return reps;
    return full ? 40 : quick;
  }
};

void print_banner(std::ostream& out, std::string_view title, const Scale& scale,
                  const sweep::GridSpec& grid, std::size_t errors, std::size_t reps) {
  out << "=== " << title << " ===\n"
      << (scale.full ? "paper-exact grid" : "quick grid (pass --full for the paper-exact one)")
      << ": " << grid.size() << " configurations x " << errors << " error levels x " << reps
      << " repetitions\n\n";
}

// --- the sweep rows ------------------------------------------------------------

/// A row of the paper's Table 2 or 3, printed under the measured row of the
/// same algorithm.
struct PaperRow {
  std::string_view algorithm;
  std::vector<double> values;  ///< One per error band.
};

/// One grid swept under one banner. Figure 4 has two panels, every other
/// sweep one.
struct Panel {
  std::string_view title;
  sweep::GridSpec quick;
  sweep::GridSpec full;
  std::string_view figure;  ///< Title of the normalized-makespan plot; empty for none.
  std::string_view csv;     ///< The plot's numbers, under results/.
};

/// An error model the line-up runs under, and the suffix its table rows carry.
struct Model {
  stats::ErrorDistribution distribution;
  std::string_view suffix;
};

/// The table a sweep prints after its panels.
enum class Table {
  kNone,
  kWins,        ///< % of experiments RUMR wins, per error band (Table 2; Table 3 too
                ///< when margin_caption is set).
  kNormalized,  ///< Normalized makespan per algorithm and model, per error level.
};

/// Lines only one row prints, from its last panel's grid and fold.
using Epilogue = void (*)(const sweep::GridSpec& grid, const sweep::SweepResult& result,
                          std::ostream& out);

/// A row that sweeps a line-up. Every member has a default, so a row names
/// only what sets it apart.
struct SweepSpec {
  std::vector<Panel> panels{};
  double quick_step = 0.04;  ///< Error-axis step at the quick scale; --full uses 0.02.
  std::size_t quick_reps = 8;
  std::vector<sweep::AlgorithmSpec> lineup{};  ///< Algorithm 0 is the reference.
  std::vector<Model> models = {{stats::ErrorDistribution::kTruncatedNormal, ""}};
  Table table = Table::kNone;
  std::string_view caption{};  ///< Printed before the table.
  std::vector<PaperRow> table2{};
  std::string_view margin_caption{};
  std::vector<PaperRow> table3{};
  std::string_view header = "Algorithm";  ///< First column of a kNormalized table.
  Epilogue epilogue = nullptr;
  std::string_view note{};  ///< Printed last.
};

std::vector<double> error_axis(const SweepSpec& spec, const Scale& scale) {
  return sweep::error_axis(0.48, scale.full ? 0.02 : spec.quick_step);
}

/// The sweep of one grid under one model, without a consumer.
Sweep sweep_of(const SweepSpec& spec, const sweep::GridSpec& grid, const Model& model,
               const Scale& scale) {
  Sweep builder;
  builder.grid(grid)
      .errors(error_axis(spec, scale))
      .policies(spec.lineup)
      .distribution(model.distribution)
      .reps(scale.repetitions(spec.quick_reps))
      .threads(scale.threads);
  return builder;
}

/// Runs one grid under one model, folding each cell as it streams.
sweep::SweepResult fold_sweep(const SweepSpec& spec, const sweep::GridSpec& grid,
                             const Model& model, const Scale& scale) {
  std::vector<std::string> names;
  for (const sweep::AlgorithmSpec& algorithm : spec.lineup) names.push_back(algorithm.name);
  sweep::SweepResult result(grid.size(), error_axis(spec, scale), std::move(names));
  (void)sweep_of(spec, grid, model, scale)
      .buffer(false)
      .on_cell(sweep::CellConsumer([&result](const sweep::SweepCell& cell) { result.add(cell); }))
      .execute();
  return result;
}

/// Mean makespan normalized to the reference vs error, one series per other
/// algorithm, plotted and saved under results/.
void print_figure(std::ostream& out, const sweep::SweepResult& result, std::string_view title,
                  std::string_view csv) {
  report::SeriesSet set;
  set.title = title;
  set.x_label = "error";
  set.y_label = "makespan normalized to " + result.algorithms()[0];
  for (std::size_t a = 1; a < result.algorithms().size(); ++a) {
    report::Series series;
    series.name = result.algorithms()[a];
    for (std::size_t e = 0; e < result.errors().size(); ++e) {
      series.add(result.errors()[e], result.mean_normalized_makespan(e, a));
    }
    set.series.push_back(std::move(series));
  }
  out << report::render_plot(set) << '\n';
  std::error_code ec;
  std::filesystem::create_directories("results", ec);
  const std::string path = "results/" + std::string(csv);
  if (report::save_csv(path, set)) out << "exact numbers written to " << path << "\n\n";
}

void print_win_table(std::ostream& out, const sweep::SweepResult& result, bool by_margin,
                     const std::vector<PaperRow>& paper_rows) {
  std::vector<std::string> headers = {"Algorithm"};
  for (const std::string& label : sweep::error_band_labels()) headers.push_back(label);
  report::TextTable table(std::move(headers));
  for (std::size_t a = 1; a < result.algorithms().size(); ++a) {
    std::vector<double> row;
    for (std::size_t band = 0; band < 5; ++band) {
      row.push_back(result.win_percentage(band, a, by_margin));
    }
    table.add_row(result.algorithms()[a], row, 2);
    for (const PaperRow& paper : paper_rows) {
      if (paper.algorithm == result.algorithms()[a]) table.add_row("  (paper)", paper.values, 2);
    }
  }
  table.print(out);
}

void print_normalized_table(std::ostream& out, const SweepSpec& spec,
                            const std::vector<sweep::SweepResult>& results) {
  std::vector<std::string> headers = {std::string(spec.header)};
  for (double e : results.front().errors()) headers.push_back("e=" + report::format_double(e, 2));
  report::TextTable table(std::move(headers));
  for (std::size_t a = 1; a < spec.lineup.size(); ++a) {
    for (std::size_t m = 0; m < spec.models.size(); ++m) {
      std::vector<double> row;
      for (std::size_t e = 0; e < results[m].errors().size(); ++e) {
        row.push_back(results[m].mean_normalized_makespan(e, a));
      }
      table.add_row(spec.lineup[a].name + std::string(spec.models[m].suffix), row, 3);
    }
  }
  table.print(out);
}

void run_sweeps(const SweepSpec& spec, const Scale& scale, std::ostream& out) {
  const std::size_t errors = error_axis(spec, scale).size();
  const std::size_t reps = scale.repetitions(spec.quick_reps);
  const sweep::GridSpec* grid = nullptr;
  std::vector<sweep::SweepResult> results;  // The last panel's, one per model.
  for (const Panel& panel : spec.panels) {
    grid = scale.full ? &panel.full : &panel.quick;
    print_banner(out, panel.title, scale, *grid, errors, reps);
    results.clear();
    for (const Model& model : spec.models) results.push_back(fold_sweep(spec, *grid, model, scale));
    if (!panel.figure.empty()) print_figure(out, results.front(), panel.figure, panel.csv);
  }
  out << spec.caption;
  if (spec.table == Table::kWins) {
    print_win_table(out, results.front(), /*by_margin=*/false, spec.table2);
    if (!spec.margin_caption.empty()) {
      out << spec.margin_caption;
      print_win_table(out, results.front(), /*by_margin=*/true, spec.table3);
    }
  } else if (spec.table == Table::kNormalized) {
    print_normalized_table(out, spec, results);
  }
  if (spec.epilogue != nullptr) spec.epilogue(*grid, results.front(), out);
  out << spec.note;
}

void overall_win_rate(const sweep::GridSpec&, const sweep::SweepResult& result,
                      std::ostream& out) {
  double overall = 0.0;
  for (std::size_t a = 1; a < result.algorithms().size(); ++a) {
    overall += result.overall_win_percentage(a);
  }
  overall /= static_cast<double>(result.algorithms().size() - 1);
  out << "\nOverall: RUMR outperforms its competitors in " << overall
      << "% of experiments (paper: 79%).\n";
}

/// Where phase 2 engages: the mechanism behind Figure 5's jump.
void phase2_shares(const sweep::GridSpec& grid, const sweep::SweepResult& result,
                   std::ostream& out) {
  const platform::StarPlatform platform = sweep::make_grid(grid).front().to_platform();
  out << "RUMR phase-2 share of the workload by error level:\n  ";
  for (double error : result.errors()) {
    core::RumrOptions options;
    options.known_error = error;
    const double w2 = core::rumr_phase2_work(platform, 1000.0, options);
    out << error << ":" << w2 / 10.0 << "% ";
  }
  out << "\n(paper: phase 2 engages at error ~= 0.18 for this configuration)\n";
}

/// The paper's summary of Figure 6: averaged over error, the 80% split is the
/// best fixed choice, within ~15% of original RUMR.
void best_fixed_split(const sweep::GridSpec&, const sweep::SweepResult& result,
                      std::ostream& out) {
  out << "mean normalized makespan over the whole error range:\n";
  std::size_t best = 1;
  double best_mean = 1e300;
  for (std::size_t a = 1; a < result.algorithms().size(); ++a) {
    stats::Accumulator acc;
    for (std::size_t e = 0; e < result.errors().size(); ++e) {
      acc.add(result.mean_normalized_makespan(e, a));
    }
    out << "  " << result.algorithms()[a] << ": " << acc.mean() << '\n';
    if (acc.mean() < best_mean) {
      best_mean = acc.mean();
      best = a;
    }
  }
  out << "best fixed split: " << result.algorithms()[best] << " at " << best_mean
      << "x original RUMR (paper: RUMR-80, within ~1.15x)\n";
}

void inorder_by_error(const sweep::GridSpec&, const sweep::SweepResult& result,
                      std::ostream& out) {
  out << "normalized makespan of the in-order variant by error:\n";
  for (std::size_t e = 0; e < result.errors().size(); ++e) {
    out << "  error " << result.errors()[e] << ": " << result.mean_normalized_makespan(e, 1)
        << '\n';
  }
  out << "(paper: ~1.01 at high error, fractionally below 1 at very low error)\n";
}

// --- the studies -----------------------------------------------------------------

/// Scheduler performance as platform heterogeneity grows (the study the paper
/// defers to its UMR companion [17, 13]). Worker speeds and link bandwidths
/// are drawn with increasing coefficients of variation; heterogeneous UMR
/// sizes per-worker chunks so rounds finish simultaneously, and greedy
/// resource selection drops workers when the aggregate compute outruns the
/// uplink. Weighted Factoring is the heterogeneous self-scheduling baseline.
void heterogeneous(const Scale& scale, std::ostream& out) {
  const std::size_t platforms_per_cv = scale.full ? 40 : 12;
  const std::size_t reps = scale.repetitions(8);
  const double error = 0.25;
  const std::vector<double> cvs = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};

  out << "=== Heterogeneity study (extension; cf. UMR [17,13]) ===\n"
      << platforms_per_cv << " random platforms per heterogeneity level, error = " << error
      << ", " << reps << " repetitions each\n\n";

  report::TextTable table({"speed/bandwidth CV", "UMR/RUMR", "Factoring/RUMR", "WF/RUMR",
                           "GSS/RUMR", "selection used"});
  for (double cv : cvs) {
    stats::Accumulator umr_ratio;
    stats::Accumulator factoring_ratio;
    stats::Accumulator wf_ratio;
    stats::Accumulator gss_ratio;
    std::size_t selections = 0;
    for (std::size_t draw = 0; draw < platforms_per_cv; ++draw) {
      platform::HeterogeneityParams params;
      params.workers = 16;
      params.speed_cv = cv;
      params.bandwidth_cv = cv;
      params.bandwidth_over_ns = 1.5;
      params.mean_comp_latency = 0.2;
      params.mean_comm_latency = 0.1;
      stats::Rng platform_rng(stats::mix_seed(0x4e7, static_cast<std::uint64_t>(cv * 100), draw));
      const platform::StarPlatform p = platform::random_heterogeneous(params, platform_rng);
      if (core::solve_umr(p, 1000.0).used_resource_selection) ++selections;

      stats::Accumulator rumr_acc;
      stats::Accumulator umr_acc;
      stats::Accumulator factoring_acc;
      stats::Accumulator wf_acc;
      stats::Accumulator gss_acc;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const sim::SimOptions options =
            sim::SimOptions::with_error(error, stats::mix_seed(0x4e8, draw, rep));
        core::RumrOptions rumr_options;
        rumr_options.known_error = error;
        core::RumrPolicy rumr(p, 1000.0, std::move(rumr_options));
        rumr_acc.add(simulate(p, rumr, options).makespan);
        core::UmrPolicy umr(p, 1000.0, core::DispatchOrder::kTimetable);
        umr_acc.add(simulate(p, umr, options).makespan);
        const auto factoring = config::make_policy("factoring", p, 1000.0, error);
        factoring_acc.add(simulate(p, *factoring, options).makespan);
        const auto wf = config::make_policy("wf", p, 1000.0, error);
        wf_acc.add(simulate(p, *wf, options).makespan);
        const auto gss = config::make_policy("gss", p, 1000.0, error);
        gss_acc.add(simulate(p, *gss, options).makespan);
      }
      umr_ratio.add(umr_acc.mean() / rumr_acc.mean());
      factoring_ratio.add(factoring_acc.mean() / rumr_acc.mean());
      wf_ratio.add(wf_acc.mean() / rumr_acc.mean());
      gss_ratio.add(gss_acc.mean() / rumr_acc.mean());
    }
    table.add_row({report::format_double(cv, 1), report::format_double(umr_ratio.mean(), 3),
                   report::format_double(factoring_ratio.mean(), 3),
                   report::format_double(wf_ratio.mean(), 3),
                   report::format_double(gss_ratio.mean(), 3),
                   std::to_string(selections) + "/" + std::to_string(platforms_per_cv)});
  }
  table.print(out);
  out << "\nexpected: RUMR stays ahead as heterogeneity grows; plain Factoring\n"
         "degrades fastest (it ignores worker speeds entirely), Weighted Factoring\n"
         "tracks better; resource selection engages once skewed bandwidth draws\n"
         "push sum S_i/B_i past the full-utilization budget.\n";
}

/// Non-stationary prediction errors (paper sections 4.1 and 6, future work).
/// The paper conjectures RUMR "should still be effective" when the error
/// distribution drifts slowly, because phase 2 uses no predictions at all.
/// Stationary, random-walk and burst processes of comparable magnitude, over
/// RUMR (told the stationary magnitude), adaptive RUMR, UMR and Factoring.
void nonstationary(const Scale& scale, std::ostream& out) {
  const std::size_t reps = scale.repetitions(16);
  const double level = 0.2;
  const auto configs = sweep::make_grid({{10, 20, 40}, {1.4, 1.8}, {0.1, 0.4}, {0.05, 0.2}});
  const auto process = [level](stats::ErrorDynamics dynamics) {
    stats::ErrorProcessSpec spec;
    spec.base = stats::ErrorModel::truncated_normal(level);
    spec.dynamics = dynamics;
    spec.walk_step = 0.02;
    spec.walk_max = 2.0 * level;
    spec.burst_factor = 3.0;
    spec.switch_probability = 0.02;
    return spec;
  };

  out << "=== Non-stationary error processes (extension) ===\n"
      << configs.size() << " configurations, base error level " << level << ", " << reps
      << " repetitions\n\n";

  report::TextTable table(
      {"dynamics", "UMR/RUMR", "Factoring/RUMR", "adaptive/RUMR", "RUMR mean (s)"});
  const struct {
    const char* name;
    stats::ErrorDynamics dynamics;
  } cases[] = {{"stationary", stats::ErrorDynamics::kStationary},
               {"random walk", stats::ErrorDynamics::kRandomWalk},
               {"burst", stats::ErrorDynamics::kBurst}};

  for (const auto& dynamics_case : cases) {
    stats::Accumulator umr_ratio;
    stats::Accumulator factoring_ratio;
    stats::Accumulator adaptive_ratio;
    stats::Accumulator rumr_mean;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const platform::StarPlatform p = configs[c].to_platform();
      stats::Accumulator rumr_acc;
      stats::Accumulator umr_acc;
      stats::Accumulator factoring_acc;
      stats::Accumulator adaptive_acc;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        sim::SimOptions options;
        options.comm_error = process(dynamics_case.dynamics);
        options.comp_error = process(dynamics_case.dynamics);
        options.seed = stats::mix_seed(0xd1f, c, rep,
                                       static_cast<std::uint64_t>(dynamics_case.dynamics));

        core::RumrOptions rumr_options;
        rumr_options.known_error = level;  // RUMR only knows the base level.
        core::RumrPolicy rumr(p, 1000.0, std::move(rumr_options));
        rumr_acc.add(simulate(p, rumr, options).makespan);

        core::UmrPolicy umr(p, 1000.0, core::DispatchOrder::kTimetable);
        umr_acc.add(simulate(p, umr, options).makespan);

        const auto factoring = config::make_policy("factoring", p, 1000.0, 0.0);
        factoring_acc.add(simulate(p, *factoring, options).makespan);

        core::AdaptiveRumrPolicy adaptive(p, 1000.0);
        adaptive_acc.add(simulate(p, adaptive, options).makespan);
      }
      umr_ratio.add(umr_acc.mean() / rumr_acc.mean());
      factoring_ratio.add(factoring_acc.mean() / rumr_acc.mean());
      adaptive_ratio.add(adaptive_acc.mean() / rumr_acc.mean());
      rumr_mean.add(rumr_acc.mean());
    }
    table.add_row({dynamics_case.name, report::format_double(umr_ratio.mean(), 3),
                   report::format_double(factoring_ratio.mean(), 3),
                   report::format_double(adaptive_ratio.mean(), 3),
                   report::format_double(rumr_mean.mean(), 1)});
  }
  table.print(out);
  out << "\nexpected: RUMR's edge over UMR persists under drifting and bursty\n"
         "errors (its phase 2 is prediction-free); the adaptive variant tracks\n"
         "RUMR since its pilot estimate follows the effective magnitude.\n";
}

/// Parallel master uplink channels (paper section 3.1: "it could be
/// beneficial to allow for simultaneous transfers for better throughput in
/// some cases (e.g. WANs)"): UMR and RUMR makespans with k channels, most
/// telling where the single-channel uplink is the bottleneck.
void simultaneous(const Scale& scale, std::ostream& out) {
  const std::size_t reps = scale.repetitions(16);
  const double error = 0.2;

  out << "=== Simultaneous transfers (extension; paper section 3.1 future work) ===\n"
      << "mean makespans with k parallel uplink channels, error = " << error << ", " << reps
      << " repetitions\n\n";

  report::TextTable table({"platform", "algo", "k=1", "k=2", "k=4", "gain k=4"});
  const struct {
    const char* label;
    double b_over_n;  // Near 1.0 = uplink-bound; 2.0 = compute-bound.
  } platforms[] = {{"uplink-bound (B=1.05*N)", 1.05}, {"balanced (B=1.4*N)", 1.4},
                   {"compute-bound (B=2*N)", 2.0}};

  for (const auto& platform_case : platforms) {
    platform::HomogeneousParams params;
    params.workers = 20;
    params.bandwidth = platform_case.b_over_n * 20.0;
    params.comp_latency = 0.2;
    params.comm_latency = 0.1;
    const platform::StarPlatform p = platform::StarPlatform::homogeneous(params);

    for (const bool use_rumr : {false, true}) {
      std::vector<double> means;
      for (const std::size_t channels : {1u, 2u, 4u}) {
        stats::Accumulator acc;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          const auto platform_seed = static_cast<std::uint64_t>(platform_case.b_over_n * 100);
          sim::SimOptions options = sim::SimOptions::with_error(
              error, stats::mix_seed(0x51a, platform_seed, channels, rep));
          options.uplink_channels = channels;
          if (use_rumr) {
            core::RumrOptions rumr_options;
            rumr_options.known_error = error;
            core::RumrPolicy policy(p, 1000.0, std::move(rumr_options));
            acc.add(simulate(p, policy, options).makespan);
          } else {
            core::UmrPolicy policy(p, 1000.0, core::DispatchOrder::kTimetable);
            acc.add(simulate(p, policy, options).makespan);
          }
        }
        means.push_back(acc.mean());
      }
      const double gain = 100.0 * (means[0] - means[2]) / means[0];
      table.add_row({platform_case.label, use_rumr ? "RUMR" : "UMR",
                     report::format_double(means[0], 1), report::format_double(means[1], 1),
                     report::format_double(means[2], 1), report::format_double(gain, 1) + "%"});
    }
  }
  table.print(out);
  out << "\nexpected: extra channels pay off mainly when the uplink is the\n"
         "bottleneck (B close to N*S); compute-bound platforms see little gain —\n"
         "matching the paper's intuition that simultaneous transfers matter for\n"
         "WAN-like (bandwidth-poor) settings.\n";
}

/// Ablation of worker receive-buffer depth (DESIGN.md §4). Capacity 1 is the
/// classic double-buffered front end: a send to a full worker blocks the
/// uplink (rendezvous semantics). SIZE_MAX is the idealized infinitely
/// buffered worker. The blocking model is what makes precalculated in-order
/// schedules fragile under prediction error and gives RUMR's out-of-order
/// phase 1 its measurable edge.
void ablation_buffering(const Scale& scale, std::ostream& out) {
  const sweep::GridSpec grid{{10, 30}, {1.4, 1.8}, {0.1, 0.5}, {0.1, 0.5}};
  const std::vector<double> errors = {0.0, 0.16, 0.32, 0.48};
  const std::size_t reps = scale.repetitions(20);
  print_banner(out, "Ablation: worker buffer depth (blocking vs infinite)", scale, grid,
               errors.size(), reps);

  const auto configs = sweep::make_grid(grid);
  std::vector<std::string> headers = {"capacity / metric"};
  for (double e : errors) headers.push_back("e=" + report::format_double(e, 2));
  report::TextTable table(std::move(headers));

  for (const std::size_t capacity : {std::size_t{1}, std::size_t{2}, SIZE_MAX}) {
    std::vector<double> timed_vs_rumr(errors.size());
    std::vector<double> eager_vs_rumr(errors.size());
    std::vector<double> inorder_vs_ooo(errors.size());
    for (std::size_t e = 0; e < errors.size(); ++e) {
      stats::Accumulator timed_ratio;
      stats::Accumulator eager_ratio;
      stats::Accumulator order_ratio;
      for (const auto& config : configs) {
        const platform::StarPlatform platform = config.to_platform();
        stats::Accumulator timed_acc;
        stats::Accumulator eager_acc;
        stats::Accumulator ooo_acc;
        stats::Accumulator rumr_acc;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          sim::SimOptions options = sim::SimOptions::with_error(
              errors[e], stats::mix_seed(0xb1f, config.n, static_cast<std::uint64_t>(e), rep));
          options.worker_buffer_capacity = capacity;
          core::UmrPolicy timed(platform, 1000.0, core::DispatchOrder::kTimetable);
          timed_acc.add(simulate(platform, timed, options).makespan);
          core::UmrPolicy eager(platform, 1000.0, core::DispatchOrder::kInOrder);
          eager_acc.add(simulate(platform, eager, options).makespan);
          core::UmrPolicy ooo(platform, 1000.0, core::DispatchOrder::kOutOfOrder);
          ooo_acc.add(simulate(platform, ooo, options).makespan);
          core::RumrOptions rumr_options;
          rumr_options.known_error = errors[e];
          core::RumrPolicy rumr(platform, 1000.0, std::move(rumr_options));
          rumr_acc.add(simulate(platform, rumr, options).makespan);
        }
        timed_ratio.add(timed_acc.mean() / rumr_acc.mean());
        eager_ratio.add(eager_acc.mean() / rumr_acc.mean());
        order_ratio.add(eager_acc.mean() / ooo_acc.mean());
      }
      timed_vs_rumr[e] = timed_ratio.mean();
      eager_vs_rumr[e] = eager_ratio.mean();
      inorder_vs_ooo[e] = order_ratio.mean();
    }
    const std::string label = capacity == SIZE_MAX ? "inf" : std::to_string(capacity);
    table.add_row("cap=" + label + "  UMR-timed/RUMR", timed_vs_rumr, 4);
    table.add_row("cap=" + label + "  UMR-eager/RUMR", eager_vs_rumr, 4);
    table.add_row("cap=" + label + "  eager/out-of-order", inorder_vs_ooo, 4);
  }
  table.print(out);
  out << "\nexpected: the timetabled UMR (the paper's precalculated baseline) trails\n"
         "RUMR increasingly with error; eager execution closes most of that gap\n"
         "(pre-buffering when transfers finish early); with cap=1 out-of-order\n"
         "dispatch adds ~1% at high error, evaporating with infinite buffers.\n";
}

// --- the table -------------------------------------------------------------------

using Study = void (*)(const Scale& scale, std::ostream& out);

struct Experiment {
  std::string_view name;
  std::variant<SweepSpec, Study> run;
};

std::vector<Experiment> experiments() {
  using stats::ErrorDistribution;
  // The quick grid spans the Table 1 ranges: N in {10,30,50}, B/N in
  // {1.2,1.6,2.0}, cLat and nLat in {0,0.3,0.7,1.0}.
  const sweep::GridSpec quick{{10, 30, 50}, {1.2, 1.6, 2.0}, {0.0, 0.3, 0.7, 1.0},
                              {0.0, 0.3, 0.7, 1.0}};
  const sweep::GridSpec paper = sweep::GridSpec::paper_full();
  const sweep::GridSpec subgrid{{10, 20, 40}, {1.4, 1.8}, {0.1, 0.4}, {0.05, 0.2}};
  const sweep::GridSpec fig5_point{{20}, {1.8}, {0.3}, {0.9}};
  // Figure 4(b)'s low-latency subset; the quick grid's own slice of it is
  // only zeros, so the quick panel uses the paper's step inside the subset.
  const sweep::GridSpec quick_low_latency{quick.n_values, quick.b_over_n_values,
                                          {0.0, 0.1, 0.2}, {0.0, 0.1, 0.2}};
  // error-models runs the line-up twice, so its quick grid is trimmed.
  const sweep::GridSpec quick_trimmed{quick.n_values, quick.b_over_n_values, {0.0, 0.5, 1.0},
                                      {0.0, 0.5, 1.0}};

  std::vector<sweep::AlgorithmSpec> fixed_splits{sweep::rumr_spec()};
  for (std::size_t percent = 50; percent <= 90; percent += 10) {
    fixed_splits.push_back(sweep::rumr_fixed_spec(percent));
  }

  std::vector<Experiment> table;
  // Tables 2 and 3: % of experiments in which RUMR outperforms each
  // competitor per error band, and by at least 10%, plus the paper's "79%
  // overall". FSC, which the paper measured but did not tabulate, is an
  // extra row.
  table.push_back(
      {"tables",
       SweepSpec{
           .panels = {{"Tables 2 & 3: RUMR win percentages vs competitors", quick, paper, "", ""}},
           .lineup = sweep::extended_competitors(),
           .table = Table::kWins,
           .caption = "Table 2 — % of experiments in which RUMR outperforms each algorithm\n"
                      "(an experiment = one configuration x error value, mean over "
                      "repetitions):\n\n",
           .table2 = {{"UMR", {54.96, 56.60, 73.45, 81.99, 86.48}},
                      {"MI-1", {98.27, 86.08, 75.27, 68.27, 69.82}},
                      {"MI-2", {94.44, 88.38, 94.95, 98.91, 98.61}},
                      {"MI-3", {94.70, 95.70, 97.33, 98.76, 99.94}},
                      {"MI-4", {95.55, 97.77, 98.17, 98.71, 99.84}},
                      {"Factoring", {98.21, 94.06, 93.84, 90.16, 84.74}}},
           .margin_caption =
               "\nTable 3 — % of experiments in which RUMR outperforms by at least 10%:\n\n",
           .table3 = {{"UMR", {0.00, 4.64, 27.59, 43.29, 55.80}},
                      {"MI-1", {68.89, 44.97, 48.70, 56.25, 57.02}},
                      {"MI-2", {59.67, 56.64, 65.55, 69.74, 70.03}},
                      {"MI-3", {69.55, 68.51, 85.24, 90.92, 93.03}},
                      {"MI-4", {76.46, 78.49, 90.18, 94.73, 96.70}},
                      {"Factoring", {90.09, 61.88, 45.62, 35.39, 23.86}}},
           .epilogue = overall_win_rate}});
  // Figure 4: mean makespan of UMR, MI-1..4 and Factoring normalized to
  // RUMR vs error, (a) over the whole space and (b) over cLat, nLat < 0.3.
  // UMR rises with error (below 1 only at tiny error); Factoring falls
  // toward RUMR; MI-x stays well above 1, falling over the whole space but
  // rising again in the low-latency subset, where RUMR's phase 2 engages.
  table.push_back(
      {"fig4", SweepSpec{.panels = {{"Figure 4(a): normalized makespan vs error, all parameters",
                                     quick, paper, "Figure 4(a): all Table 1 parameters",
                                     "fig4a.csv"},
                                    {"Figure 4(b): low-latency subset (cLat<0.3, nLat<0.3)",
                                     quick_low_latency, paper.restrict_low_latency(),
                                     "Figure 4(b): cLat<0.3, nLat<0.3", "fig4b.csv"}},
                         .lineup = sweep::paper_competitors()}});
  // Figure 5: one high-latency point, cLat = 0.3, nLat = 0.9, N = 20, B = 36.
  // The paper's landmark is a jump in every competitor's normalized makespan
  // at error ~= 0.18, where RUMR starts using phase 2 (DESIGN.md §4 fits the
  // phase-2 trigger to that onset). One configuration is cheap, so the axis
  // has the paper's step at every scale.
  table.push_back({"fig5", SweepSpec{.panels = {{"Figure 5: cLat=0.3, nLat=0.9, N=20, B=36",
                                                 fig5_point, fig5_point,
                                                 "Figure 5: high-nLat configuration", "fig5.csv"}},
                                     .quick_step = 0.02,
                                     .quick_reps = 40,
                                     .lineup = sweep::paper_competitors(),
                                     .epilogue = phase2_shares}});
  // Figure 6: RUMR with a fixed phase-1 share (50%..90%) normalized to
  // original RUMR, which sizes phase 2 from the error. Every fixed split
  // loses at low error, where original RUMR skips phase 2; larger phase-1
  // shares do best at low error and worst at high error.
  table.push_back(
      {"fig6", SweepSpec{.panels = {{"Figure 6: fixed phase-1 percentage vs original RUMR", quick,
                                     paper, "Figure 6: fixed splits vs original RUMR",
                                     "fig6.csv"}},
                         .lineup = fixed_splits,
                         .epilogue = best_fixed_split}});
  // Figure 7: RUMR with a plain in-order UMR phase 1, normalized to original
  // RUMR. Out-of-order dispatch buys only ~1% at high error: "most of the
  // effectiveness of RUMR comes from the division into two phases".
  table.push_back(
      {"fig7",
       SweepSpec{.panels = {{"Figure 7: in-order (plain-UMR) phase 1 vs original RUMR", quick,
                             paper, "Figure 7: plain-UMR phase 1 vs original RUMR", "fig7.csv"}},
                 .quick_reps = 12,
                 .lineup = {sweep::rumr_spec(), sweep::rumr_inorder_spec()},
                 .epilogue = inorder_by_error}});
  // Paper section 4.1: "We also ran all the experiments under a uniformly
  // distributed error model, but our results were essentially similar".
  // Figure 4(a)'s comparison under both models, side by side.
  table.push_back(
      {"error-models",
       SweepSpec{
           .panels = {{"Error-model robustness: truncated normal vs uniform", quick_trimmed,
                       paper, "", ""}},
           .quick_step = 0.08,
           .lineup = sweep::paper_competitors(),
           .models = {{ErrorDistribution::kTruncatedNormal, " (normal)"},
                      {ErrorDistribution::kUniform, " (uniform)"}},
           .table = Table::kNormalized,
           .caption = "mean makespan normalized to RUMR under both error models:\n\n",
           .note = "\nexpected: the two rows of each pair nearly coincide — the paper's\n"
                   "\"essentially similar\" claim.\n"}});
  // On-line error estimation (paper sections 4.1 and 5.2.1, future work):
  // oracle RUMR, told the true error, against adaptive RUMR, which estimates
  // it from pilot-phase completions, and the fixed 80/20 split the paper
  // recommends when no estimate exists.
  table.push_back(
      {"online-estimation",
       SweepSpec{.panels = {{"On-line error estimation (extension)", subgrid, subgrid, "", ""}},
                 .quick_step = 0.08,
                 .quick_reps = 12,
                 .lineup = {sweep::rumr_spec(), sweep::rumr_adaptive_spec(),
                            sweep::rumr_fixed_spec(80)},
                 .table = Table::kNormalized,
                 .header = "vs oracle RUMR",
                 .note = "\nexpected: the adaptive policy tracks the oracle more closely than "
                         "the\nfixed 80/20 split once the error is large enough to matter.\n"}});
  // RUMR against the whole loop self-scheduling family (Factoring, Weighted
  // Factoring, GSS, TSS, FSC) that the robustness literature [14, 15] comes
  // from; the paper compares only against Factoring and (unreported) FSC.
  table.push_back(
      {"loop-family",
       SweepSpec{
           .panels = {{"Loop self-scheduling family vs RUMR (extension)", quick, paper,
                       "Loop self-scheduling family vs RUMR", "loop_family.csv"}},
           .quick_step = 0.08,
           .lineup = sweep::loop_family_competitors(),
           .table = Table::kWins,
           .caption = "win percentages (RUMR outperforms, per error band):\n\n",
           .note = "\nexpected: every pure self-scheduler trails RUMR — they pay per-chunk\n"
                   "latencies without UMR's overlap phase — with GSS's huge first chunks\n"
                   "hurting most at high error and FSC/TSS sitting between Factoring and GSS.\n"}});
  table.push_back({"heterogeneous", heterogeneous});
  table.push_back({"nonstationary", nonstationary});
  table.push_back({"simultaneous", simultaneous});
  table.push_back({"ablation-buffering", ablation_buffering});
  return table;
}

int usage(const std::vector<Experiment>& table, const std::string& problem) {
  std::cerr << "bench_experiments: " << problem
            << "\nusage: bench_experiments <name>... [--full] [--reps N] [--threads N]\n"
               "names:";
  for (const Experiment& experiment : table) std::cerr << ' ' << experiment.name;
  std::cerr << " all\n";
  return 2;
}

/// Reads all of `text` as an unsigned integer.
bool parse_count(std::string_view text, std::size_t& value) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && stop == end;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<Experiment> table = experiments();
  Scale scale;
  std::vector<const Experiment*> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      scale.full = true;
    } else if (arg == "--reps" || arg == "--threads") {
      std::size_t& value = arg == "--reps" ? scale.reps : scale.threads;
      if (i + 1 == argc || !parse_count(argv[++i], value)) {
        return usage(table, arg + " needs an unsigned integer");
      }
      if (arg == "--reps" && value == 0) return usage(table, "--reps must be at least 1");
    } else if (arg == "all") {
      for (const Experiment& experiment : table) selected.push_back(&experiment);
    } else if (arg.starts_with("-")) {
      return usage(table, "unknown flag '" + arg + "'");
    } else {
      const auto named = std::find_if(table.begin(), table.end(),
                                      [&arg](const Experiment& e) { return e.name == arg; });
      if (named == table.end()) return usage(table, "unknown experiment '" + arg + "'");
      selected.push_back(&*named);
    }
  }
  if (selected.empty()) return usage(table, "no experiment named");

  // Refuse a sweep rumr::Sweep would refuse (such as more --threads than
  // shards) before any row prints.
  for (const Experiment* experiment : selected) {
    const auto* spec = std::get_if<SweepSpec>(&experiment->run);
    if (spec == nullptr) continue;
    for (const Panel& panel : spec->panels) {
      const std::vector<std::string> problems =
          sweep_of(*spec, scale.full ? panel.full : panel.quick, spec->models.front(), scale)
              .validate();
      if (!problems.empty()) {
        return usage(table, util::join_problems(std::string(experiment->name) + ":", problems));
      }
    }
  }

  try {
    for (const Experiment* experiment : selected) {
      if (const auto* spec = std::get_if<SweepSpec>(&experiment->run)) {
        run_sweeps(*spec, scale, std::cout);
      } else {
        std::get<Study>(experiment->run)(scale, std::cout);
      }
    }
  } catch (const std::exception& error) {
    std::cerr << "bench_experiments: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
