// Sequence matching on a heterogeneous campus grid (the paper's BLAST-style
// motivating application [2, 20]): one query sequence is compared against a
// large dictionary file; running time is proportional to the letters
// scanned, so the dictionary is a textbook divisible workload.
//
// The platform is deliberately heterogeneous and over-subscribed: a mix of
// fast/slow nodes behind fast/slow links whose aggregate compute outstrips
// the master's uplink. This exercises two pieces the homogeneous benchmarks
// don't: the heterogeneous UMR solver (per-worker chunk fractions) and
// greedy resource selection (the full-utilization condition from the UMR
// paper).

#include <cstdio>
#include <vector>

#include "api/rumr.hpp"

int main() {
  using namespace rumr;

  // Dictionary: 36 gigaletters, in units of 10 megaletters => 3600 units.
  const double dictionary = 3600.0;

  // A campus grid: 4 fast cluster nodes, 6 mid lab machines, 8 slow desktops.
  // Speeds in units/s; bandwidths in units/s from the master's NFS server.
  std::vector<platform::WorkerSpec> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back({8.0, 40.0, 0.3, 0.05, 0.01});
  for (int i = 0; i < 6; ++i) nodes.push_back({4.0, 18.0, 0.4, 0.08, 0.02});
  for (int i = 0; i < 8; ++i) nodes.push_back({1.5, 4.0, 0.6, 0.15, 0.05});
  const platform::StarPlatform grid{std::move(nodes)};

  std::printf("dictionary : %.0f units (10 Mletters each)\n", dictionary);
  std::printf("grid       : %s\n", grid.describe().c_str());
  std::printf("             sum S_i/B_i = %.2f -> %s\n\n", grid.utilization_ratio(),
              grid.utilization_ratio() < 1.0 ? "network can feed all nodes"
                                             : "uplink saturated, selection required");

  // Heterogeneous UMR with resource selection.
  const core::UmrSchedule schedule = core::solve_umr(grid, dictionary);
  std::printf("UMR selected %zu of %zu workers%s, M = %zu rounds\n",
              schedule.selected_workers.size(), grid.size(),
              schedule.used_resource_selection ? " (dropped saturating nodes)" : "",
              schedule.rounds);
  std::printf("round-0 per-worker chunks:");
  for (std::size_t k = 0; k < schedule.chunk[0].size(); ++k) {
    std::printf(" %.1f", schedule.chunk[0][k]);
  }
  std::printf("\npredicted makespan: %.1f s\n\n", schedule.predicted_makespan);

  // Race RUMR against UMR and Factoring under load-dependent uncertainty
  // (shared lab machines: ~25% error).
  const double error = 0.25;
  const int reps = 30;
  stats::Accumulator umr_acc;
  stats::Accumulator rumr_acc;
  stats::Accumulator factoring_acc;
  for (int rep = 0; rep < reps; ++rep) {
    const auto seed = static_cast<std::uint64_t>(1000 + rep);
    const sim::SimOptions options = sim::SimOptions::with_error(error, seed);

    core::UmrPolicy umr(grid, dictionary);
    umr_acc.add(simulate(grid, umr, options).makespan);

    core::RumrOptions rumr_options;
    rumr_options.known_error = error;
    core::RumrPolicy rumr(grid, dictionary, rumr_options);
    rumr_acc.add(simulate(grid, rumr, options).makespan);

    const auto factoring = config::make_policy("factoring", grid, dictionary, error);
    factoring_acc.add(simulate(grid, *factoring, options).makespan);
  }

  std::printf("makespans under %.0f%% prediction error (%d reps, mean +/- sd):\n",
              100.0 * error, reps);
  std::printf("  UMR       : %7.1f s +/- %.1f\n", umr_acc.mean(), umr_acc.stddev());
  std::printf("  Factoring : %7.1f s +/- %.1f\n", factoring_acc.mean(), factoring_acc.stddev());
  std::printf("  RUMR      : %7.1f s +/- %.1f  (%.1f%% faster than UMR, %.1f%% than Factoring)\n",
              rumr_acc.mean(), rumr_acc.stddev(),
              100.0 * (umr_acc.mean() - rumr_acc.mean()) / umr_acc.mean(),
              100.0 * (factoring_acc.mean() - rumr_acc.mean()) / factoring_acc.mean());
  return 0;
}
