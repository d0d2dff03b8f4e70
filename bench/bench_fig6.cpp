// Reproduces the paper's Figure 6: RUMR scheduling a FIXED percentage of
// the workload in phase 1 (50%..90%), normalized to original RUMR (which
// sizes phase 2 as error * W with the overhead threshold), versus error.
// Expected shape: every fixed split loses clearly at low error (original
// RUMR skips phase 2 entirely there); larger phase-1 shares converge best at
// low error and degrade at high error; 80% is the best fixed choice on
// average (the paper's practical recommendation when error is unknown).

#include <iostream>

#include "common.hpp"
#include "stats/summary.hpp"

int main(int argc, char** argv) {
  using namespace rumr;
  const bench::BenchSettings settings = bench::parse_settings(argc, argv);
  const sweep::GridSpec grid = bench::bench_grid(settings);
  const auto errors = bench::bench_errors(settings);
  const std::size_t reps = bench::bench_reps(settings, 8);
  bench::print_banner(std::cout, "Figure 6: fixed phase-1 percentage vs original RUMR", settings,
                      grid, errors.size(), reps);

  std::vector<sweep::AlgorithmSpec> algorithms{sweep::rumr_spec()};
  for (std::size_t percent = 50; percent <= 90; percent += 10) {
    algorithms.push_back(sweep::rumr_fixed_spec(percent));
  }

  const sweep::SweepResult result = run_sweep(sweep::make_grid(grid), algorithms,
                                              bench::bench_sweep_options(settings, errors, reps));
  bench::emit_figure(
      std::cout, bench::normalized_series(result, "Figure 6: fixed splits vs original RUMR"),
      "fig6.csv");

  // The paper's summary: averaged over error, the 80% split is the best
  // fixed choice, within ~15% of original RUMR.
  std::cout << "mean normalized makespan over the whole error range:\n";
  std::size_t best = 1;
  double best_mean = 1e300;
  for (std::size_t a = 1; a < result.algorithms().size(); ++a) {
    stats::Accumulator acc;
    for (std::size_t e = 0; e < result.errors().size(); ++e) {
      acc.add(result.mean_normalized_makespan(e, a));
    }
    std::cout << "  " << result.algorithms()[a] << ": " << acc.mean() << '\n';
    if (acc.mean() < best_mean) {
      best_mean = acc.mean();
      best = a;
    }
  }
  std::cout << "best fixed split: " << result.algorithms()[best] << " at " << best_mean
            << "x original RUMR (paper: RUMR-80, within ~1.15x)\n";
  return 0;
}
