#include "baselines/fsc.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace rumr::baselines {

namespace {

/// Equal chunks of size `chunk` covering w_total (last chunk may be smaller,
/// with a vanishing remainder absorbed).
std::vector<double> equal_chunks(double w_total, double chunk) {
  std::vector<double> chunks;
  double remaining = w_total;
  const double epsilon = 1e-12 * w_total;
  while (remaining > epsilon) {
    double take = std::min(chunk, remaining);
    if (remaining - take < 1e-9 * w_total) take = remaining;
    chunks.push_back(take);
    remaining -= take;
  }
  return chunks;
}

}  // namespace

double fsc_chunk_size(const platform::StarPlatform& platform, double w_total, double error) {
  const auto n = static_cast<double>(platform.size());
  const double one_round = w_total / n;
  if (!(error > 0.0)) return one_round;

  const double overhead = empty_round_overhead_work(platform);
  if (overhead <= 0.0) {
    // No per-chunk overhead: smaller is strictly better; bound by the same
    // internal floor factoring uses so the run stays finite.
    return std::max(1e-4 * w_total / n, 1e-6 * w_total);
  }
  const double sigma = error;  // Work-unit spread of one unit of work.
  const double log_n = std::log(std::max(n, 2.0));
  const double raw =
      std::pow(std::numbers::sqrt2 * w_total * overhead / (sigma * n * std::sqrt(log_n)),
               2.0 / 3.0);
  return std::clamp(raw, std::min(overhead, one_round), one_round);
}

std::shared_ptr<const SelfSchedulingPlan> prepare_fsc(const platform::StarPlatform& platform,
                                                     double w_total, double error) {
  return make_self_scheduling_plan(
      "FSC", equal_chunks(w_total, fsc_chunk_size(platform, w_total, error)),
      all_workers(platform.size()));
}

FscPolicy::FscPolicy(const platform::StarPlatform& platform, double w_total, double error)
    : SelfSchedulingPolicy(prepare_fsc(platform, w_total, error)) {}

}  // namespace rumr::baselines
