/// \file robustness_demo.cpp
/// Makespan degradation under worker faults: RUMR vs UMR vs Factoring.
///
/// Sweeps a transient-outage MTBF axis (plus the fault-free baseline) on one
/// Table 1-style platform and prints the mean makespan of each scheduler.
/// Every run records a trace and is audited (no completions from dead
/// workers; lost chunks re-dispatched exactly once), so this doubles as an
/// end-to-end gate for the fault subsystem — the exit code is nonzero when
/// any run fails its audit or strands work.

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "check/trace_audit.hpp"
#include "faults/fault_model.hpp"
#include "report/table.hpp"
#include "sim/master_worker.hpp"
#include "stats/error_model.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "sweep/grid.hpp"
#include "sweep/scheduler_factory.hpp"

namespace {

constexpr double kError = 0.1;
constexpr double kWTotal = 1000.0;
constexpr std::size_t kReps = 8;

struct AxisPoint {
  double mtbf = 0.0;  ///< 0 = faults disabled.
  std::string label;
};

}  // namespace

int main() {
  using namespace rumr;

  const sweep::PlatformConfig config{10, 1.6, 0.3, 0.3};
  const platform::StarPlatform platform = config.to_platform();

  const std::vector<AxisPoint> axis = {
      {0.0, "no faults"}, {1600.0, "1600"}, {800.0, "800"}, {400.0, "400"}, {200.0, "200"},
  };
  const std::vector<sweep::AlgorithmSpec> algorithms = {
      sweep::rumr_spec(), sweep::umr_spec(), sweep::factoring_spec()};

  report::TextTable table([&] {
    std::vector<std::string> headers = {"MTBF (s)"};
    for (const auto& spec : algorithms) headers.push_back(spec.name);
    return headers;
  }());

  bool all_ok = true;
  for (const AxisPoint& point : axis) {
    std::vector<double> means;
    for (const sweep::AlgorithmSpec& spec : algorithms) {
      stats::Accumulator makespans;
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        sim::SimOptions options = sim::SimOptions::with_error(
            kError,
            stats::mix_seed(0x0B057ULL, rep, static_cast<std::uint64_t>(point.mtbf * 1000.0)));
        options.record_trace = true;
        if (point.mtbf > 0.0) {
          // Repairable outages with MTTR = MTBF/10: availability ~ 91%.
          options.faults = faults::FaultSpec::transient(point.mtbf, point.mtbf / 10.0);
        }
        const auto policy = spec.make(platform, kWTotal, kError);
        try {
          const sim::SimResult result = simulate(platform, *policy, options);
          const check::AuditReport audit = check::audit_run(result, platform, kWTotal, options);
          if (!audit.ok()) {
            std::cerr << "AUDIT FAILED (" << spec.name << ", mtbf=" << point.label
                      << ", rep=" << rep << "):\n"
                      << audit.summary() << '\n';
            all_ok = false;
          }
          makespans.add(result.makespan);
        } catch (const sim::SimError& error) {
          std::cerr << "SimError (" << spec.name << ", mtbf=" << point.label << ", rep=" << rep
                    << "): " << error.what() << '\n';
          all_ok = false;
        }
      }
      means.push_back(makespans.mean());
    }
    table.add_row(point.label, means, 1);
  }

  std::cout << "Mean makespan (s) over " << kReps << " reps, W=" << kWTotal << ", error=" << kError
            << ", N=" << platform.size() << ", transient faults with MTTR=MTBF/10\n\n";
  table.print(std::cout);
  std::cout << "\n(makespans grow as MTBF shrinks; every run is trace-audited)\n";
  return all_ok ? 0 : 1;
}
