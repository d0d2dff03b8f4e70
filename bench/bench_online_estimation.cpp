// Extension experiment (paper sections 4.1 / 5.2.1 future work): on-line
// error estimation. Compares (1) oracle RUMR (told the true error), (2) the
// adaptive policy that estimates error from pilot-phase completion timings,
// and (3) the fixed 80/20 split the paper recommends when no estimate
// exists. The paper's conjecture is that even a coarse estimate recovers
// most of the oracle's advantage.

#include <iostream>

#include "common.hpp"
#include "report/table.hpp"

int main(int argc, char** argv) {
  using namespace rumr;
  const bench::BenchSettings settings = bench::parse_settings(argc, argv);
  sweep::GridSpec grid;
  grid.n_values = {10, 20, 40};
  grid.b_over_n_values = {1.4, 1.8};
  grid.clat_values = {0.1, 0.4};
  grid.nlat_values = {0.05, 0.2};
  const auto errors = bench::bench_errors(settings, 0.08);
  const std::size_t reps = bench::bench_reps(settings, 12);
  bench::print_banner(std::cout, "On-line error estimation (extension)", settings, grid,
                      errors.size(), reps);

  const std::vector<sweep::AlgorithmSpec> algorithms{
      sweep::rumr_spec(), sweep::rumr_adaptive_spec(), sweep::rumr_fixed_spec(80)};
  const sweep::SweepResult result = run_sweep(sweep::make_grid(grid), algorithms,
                                              bench::bench_sweep_options(settings, errors, reps));

  std::vector<std::string> headers = {"vs oracle RUMR"};
  for (double e : errors) headers.push_back("e=" + report::format_double(e, 2));
  report::TextTable table(std::move(headers));
  for (std::size_t a = 1; a < algorithms.size(); ++a) {
    std::vector<double> row;
    for (std::size_t e = 0; e < errors.size(); ++e) {
      row.push_back(result.mean_normalized_makespan(e, a));
    }
    table.add_row(result.algorithms()[a], row, 3);
  }
  table.print(std::cout);
  std::cout << "\nexpected: the adaptive policy tracks the oracle more closely than the\n"
               "fixed 80/20 split once the error is large enough to matter.\n";
  return 0;
}
