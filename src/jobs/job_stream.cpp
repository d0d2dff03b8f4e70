#include "jobs/job_stream.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "faults/fault_model.hpp"
#include "util/problems.hpp"

namespace rumr::jobs {

double JobStreamSpec::rate_for_load(const platform::StarPlatform& platform, double load,
                                    double mean_size) {
  if (!(load > 0.0)) throw std::invalid_argument("rate_for_load: load must be positive");
  if (!(mean_size > 0.0)) throw std::invalid_argument("rate_for_load: mean_size must be positive");
  return load * platform.total_speed() / mean_size;
}

JobStreamSpec JobStreamSpec::poisson(double arrival_rate, std::size_t max_jobs, double mean_size) {
  JobStreamSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.arrival_rate = arrival_rate;
  spec.max_jobs = max_jobs;
  spec.mean_size = mean_size;
  return spec;
}

JobStreamSpec JobStreamSpec::from_trace(std::vector<Job> trace) {
  JobStreamSpec spec;
  spec.kind = ArrivalKind::kTrace;
  spec.trace = std::move(trace);
  return spec;
}

std::vector<std::string> JobStreamSpec::validate() const {
  std::vector<std::string> problems;
  const auto complain = [&problems](const auto&... parts) {
    std::ostringstream out;
    (out << ... << parts);
    problems.push_back(out.str());
  };

  if (kind == ArrivalKind::kPoisson) {
    if (!(arrival_rate > 0.0)) complain("stream: arrival_rate must be > 0, got ", arrival_rate);
    if (max_jobs == 0) complain("stream: max_jobs must be > 0 for poisson arrivals");
    if (!(mean_size > 0.0)) complain("stream: mean_size must be > 0, got ", mean_size);
    if (!(size_spread >= 0.0) || size_spread >= 1.0) {
      complain("stream: size_spread must lie in [0, 1), got ", size_spread);
    }
    if (!(max_weight >= 1.0)) complain("stream: max_weight must be >= 1, got ", max_weight);
  } else {
    if (trace.empty()) complain("stream: trace arrivals need a non-empty trace");
    des::SimTime prev = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      const Job& job = trace[i];
      if (!(job.arrival >= prev)) {
        complain("stream: trace job ", i, " arrival ", job.arrival,
                 " is before its predecessor (trace must be sorted)");
      }
      if (!(job.size > 0.0)) complain("stream: trace job ", i, " size must be > 0");
      if (!(job.weight >= 1.0)) complain("stream: trace job ", i, " weight must be >= 1");
      prev = std::max(prev, job.arrival);
    }
  }
  return problems;
}

JobStream::JobStream(const JobStreamSpec& spec, std::uint64_t seed)
    : spec_(spec), rng_(stats::mix_seed(seed, 0x1065'57EAULL)) {
  const std::vector<std::string> problems = spec.validate();
  if (!problems.empty()) {
    throw std::invalid_argument(util::join_problems("invalid job stream:", problems));
  }
}

std::optional<Job> JobStream::next() {
  if (spec_.kind == ArrivalKind::kTrace) {
    if (emitted_ >= spec_.trace.size()) return std::nullopt;
    Job job = spec_.trace[emitted_];
    job.id = emitted_++;
    return job;
  }

  if (emitted_ >= spec_.max_jobs) return std::nullopt;

  // Fixed draw order per job — inter-arrival, size, weight — so a stream is
  // byte-identical on replay no matter how the caller interleaves queries.
  clock_ += faults::sample_exponential(1.0 / spec_.arrival_rate, rng_);
  double size = spec_.mean_size;
  switch (spec_.size_dist) {
    case SizeDistribution::kFixed:
      break;
    case SizeDistribution::kUniform:
      size = spec_.mean_size * rng_.uniform(1.0 - spec_.size_spread, 1.0 + spec_.size_spread);
      break;
    case SizeDistribution::kExponential:
      size = std::max(faults::sample_exponential(spec_.mean_size, rng_),
                      1e-3 * spec_.mean_size);
      break;
  }
  const double weight =
      spec_.max_weight > 1.0 ? rng_.uniform(1.0, spec_.max_weight) : 1.0;

  Job job;
  job.id = emitted_++;
  job.arrival = clock_;
  job.size = size;
  job.weight = weight;
  return job;
}

}  // namespace rumr::jobs
