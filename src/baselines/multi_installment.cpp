#include "baselines/multi_installment.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace rumr::baselines {

std::vector<sim::Dispatch> MiSchedule::to_plan() const {
  std::vector<sim::Dispatch> plan;
  for (const auto& round : chunk) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (round[i] > 0.0) plan.push_back({i, round[i]});
    }
  }
  return plan;
}

double MiSchedule::total() const {
  double sum = 0.0;
  for (const auto& round : chunk) {
    for (double c : round) sum += c;
  }
  return sum;
}

MiSchedule solve_multi_installment(const platform::StarPlatform& platform, double w_total,
                                   std::size_t installments) {
  if (installments == 0) throw std::invalid_argument("MI requires at least one installment");
  if (!(w_total > 0.0)) throw std::invalid_argument("MI requires a positive workload");

  const std::size_t n = platform.size();
  const std::size_t x = installments;
  // Divides rather than multiplies, so an N*x that overflows is caught too.
  if (x > kMaxMiUnknowns / n) {
    throw std::invalid_argument("MI-" + std::to_string(x) + " on " + std::to_string(n) +
                                " workers exceeds the solver's bound of " +
                                std::to_string(kMaxMiUnknowns) + " unknowns (N*x)");
  }
  const std::size_t vars = n * x;
  const auto var = [n](std::size_t j, std::size_t i) { return j * n + i; };

  // Row v in dispatch order is installment v / n, worker v % n. The
  // serialized transfer time of variable v is alpha_v / B_{v % n} (zero
  // latency: MI models neither nLat nor cLat nor tLat).
  linalg::Matrix a(vars, vars);
  std::vector<double> b(vars, 0.0);
  std::size_t row = 0;

  // (1) Just-in-time: chunk (j+1, i) arrives exactly when chunk (j, i)
  // finishes computing, i.e.
  //   sum_{v0(i) < v <= v(j+1,i)} alpha_v / B_{w(v)} = sum_{k<=j} alpha_{k,i} / S_i.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j + 1 < x; ++j) {
      for (std::size_t v = var(0, i) + 1; v <= var(j + 1, i); ++v) {
        a(row, v) += 1.0 / platform.worker(v % n).bandwidth;
      }
      for (std::size_t k = 0; k <= j; ++k) {
        a(row, var(k, i)) -= 1.0 / platform.worker(i).speed;
      }
      b[row] = 0.0;
      ++row;
    }
  }

  // (2) Simultaneous finish: finish(x-1, i) == finish(x-1, i+1), where
  //   finish(x-1, i) = arrival(0, i) + sum_k alpha_{k,i} / S_i
  // and arrival(0, i) = sum_{v <= v(0,i)} alpha_v / B_{w(v)}.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t v = 0; v <= var(0, i); ++v) {
      a(row, v) += 1.0 / platform.worker(v % n).bandwidth;
    }
    for (std::size_t k = 0; k < x; ++k) a(row, var(k, i)) += 1.0 / platform.worker(i).speed;
    for (std::size_t v = 0; v <= var(0, i + 1); ++v) {
      a(row, v) -= 1.0 / platform.worker(v % n).bandwidth;
    }
    for (std::size_t k = 0; k < x; ++k) {
      a(row, var(k, i + 1)) -= 1.0 / platform.worker(i + 1).speed;
    }
    b[row] = 0.0;
    ++row;
  }

  // (3) Conservation.
  for (std::size_t v = 0; v < vars; ++v) a(row, v) = 1.0;
  b[row] = w_total;
  ++row;

  std::vector<double> alpha = linalg::solve(a, b);

  MiSchedule schedule;
  schedule.installments = x;
  schedule.chunk.assign(x, std::vector<double>(n, 0.0));

  if (alpha.empty()) {
    // Singular system (degenerate platform): fall back to a uniform split so
    // the caller still gets a valid, conservative schedule.
    schedule.clamped = true;
    const double uniform = w_total / static_cast<double>(vars);
    for (std::size_t j = 0; j < x; ++j) {
      for (std::size_t i = 0; i < n; ++i) schedule.chunk[j][i] = uniform;
    }
  } else {
    double positive_mass = 0.0;
    for (double& v : alpha) {
      if (v < 0.0) {
        // MI's closed form is infeasible here; clamp and renormalize below.
        if (v < -1e-9 * w_total) schedule.clamped = true;
        v = 0.0;
      }
      positive_mass += v;
    }
    const double scale = positive_mass > 0.0 ? w_total / positive_mass : 0.0;
    for (std::size_t j = 0; j < x; ++j) {
      for (std::size_t i = 0; i < n; ++i) schedule.chunk[j][i] = alpha[var(j, i)] * scale;
    }
  }

  // Predicted makespan under MI's own (zero-latency) model: worker 0's finish.
  double arrival0 = 0.0;
  for (std::size_t v = 0; v <= var(0, std::size_t{0}); ++v) {
    arrival0 += schedule.chunk[v / n][v % n] / platform.worker(v % n).bandwidth;
  }
  double compute0 = 0.0;
  for (std::size_t k = 0; k < x; ++k) compute0 += schedule.chunk[k][0] / platform.worker(0).speed;
  schedule.predicted_makespan = arrival0 + compute0;
  return schedule;
}

std::shared_ptr<const StaticSequencePlan> prepare_mi(const platform::StarPlatform& platform,
                                                    double w_total, std::size_t installments) {
  const MiSchedule schedule = solve_multi_installment(platform, w_total, installments);
  return make_static_sequence_plan("MI-" + std::to_string(installments), schedule.to_plan());
}

}  // namespace rumr::baselines
