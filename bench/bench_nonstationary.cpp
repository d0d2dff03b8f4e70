// Extension experiment (paper sections 4.1/6 future work): non-stationary
// prediction errors. The paper conjectures RUMR "should still be effective"
// when the error distribution drifts slowly, because phase 2 uses no
// predictions at all. We compare stationary, random-walk, and burst error
// processes with comparable magnitudes across RUMR (told the stationary
// magnitude), adaptive RUMR, UMR, and Factoring.

#include <iostream>

#include "common.hpp"
#include "core/adaptive_rumr.hpp"
#include "core/rumr.hpp"
#include "core/umr_policy.hpp"
#include "config/policies.hpp"
#include "report/table.hpp"
#include "sim/master_worker.hpp"
#include "stats/summary.hpp"

namespace {

using namespace rumr;

stats::ErrorProcessSpec make_spec(stats::ErrorDynamics dynamics, double level) {
  stats::ErrorProcessSpec spec;
  spec.base = stats::ErrorModel::truncated_normal(level);
  spec.dynamics = dynamics;
  spec.walk_step = 0.02;
  spec.walk_max = 2.0 * level;
  spec.burst_factor = 3.0;
  spec.switch_probability = 0.02;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchSettings settings = bench::parse_settings(argc, argv);
  const std::size_t reps = bench::bench_reps(settings, 16);
  const double level = 0.2;

  sweep::GridSpec grid;
  grid.n_values = {10, 20, 40};
  grid.b_over_n_values = {1.4, 1.8};
  grid.clat_values = {0.1, 0.4};
  grid.nlat_values = {0.05, 0.2};
  const auto configs = sweep::make_grid(grid);

  std::cout << "=== Non-stationary error processes (extension) ===\n"
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
        options.comm_error = make_spec(dynamics_case.dynamics, level);
        options.comp_error = make_spec(dynamics_case.dynamics, level);
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
  table.print(std::cout);
  std::cout << "\nexpected: RUMR's edge over UMR persists under drifting and bursty\n"
               "errors (its phase 2 is prediction-free); the adaptive variant tracks\n"
               "RUMR since its pilot estimate follows the effective magnitude.\n";
  return 0;
}
