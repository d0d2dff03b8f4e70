#include "jobs/jobs_config.hpp"

#include <algorithm>
#include <cctype>

#include "config/run_description.hpp"
#include "util/problems.hpp"

namespace rumr::jobs {

namespace {

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return text;
}

SizeDistribution parse_size_distribution(const std::string& name) {
  if (name == "fixed") return SizeDistribution::kFixed;
  if (name == "uniform") return SizeDistribution::kUniform;
  if (name == "exponential") return SizeDistribution::kExponential;
  throw config::ConfigError(
      "[jobs] size_distribution must be 'fixed', 'uniform', or 'exponential', got '" + name +
      "'");
}

}  // namespace

SharingPolicy parse_sharing(const std::string& name) {
  if (name == "exclusive") return SharingPolicy::kExclusive;
  if (name == "partitioned") return SharingPolicy::kPartitioned;
  if (name == "fractional") return SharingPolicy::kFractional;
  throw config::ConfigError(
      "sharing must be 'exclusive', 'partitioned', or 'fractional', got '" + name + "'");
}

QueueDiscipline parse_discipline(const std::string& name) {
  if (name == "fcfs") return QueueDiscipline::kFcfs;
  if (name == "sjf") return QueueDiscipline::kSjf;
  if (name == "priority") return QueueDiscipline::kPriority;
  throw config::ConfigError("queue must be 'fcfs', 'sjf', or 'priority', got '" + name + "'");
}

AdmissionPolicy parse_admission(const std::string& name) {
  if (name == "reject") return AdmissionPolicy::kRejectNew;
  if (name == "shed") return AdmissionPolicy::kShedOldest;
  throw config::ConfigError("admission must be 'reject' or 'shed', got '" + name + "'");
}

JobsOptions jobs_options_from_config(const config::ConfigFile& file,
                                     const platform::StarPlatform& platform) {
  JobsOptions options;

  options.stream.kind = ArrivalKind::kPoisson;
  options.stream.max_jobs = file.get_size("jobs", "jobs", options.stream.max_jobs);
  options.stream.mean_size = file.get_double("jobs", "mean_size", options.stream.mean_size);
  options.stream.size_dist =
      parse_size_distribution(lower(file.get_string("jobs", "size_distribution", "fixed")));
  options.stream.size_spread = file.get_double("jobs", "size_spread", 0.0);
  options.stream.max_weight = file.get_double("jobs", "max_weight", 1.0);
  const double load = file.get_double("jobs", "load", 0.0);
  if (load > 0.0) {
    options.stream.arrival_rate =
        JobStreamSpec::rate_for_load(platform, load, options.stream.mean_size);
  } else {
    options.stream.arrival_rate =
        file.get_double("jobs", "arrival_rate", options.stream.arrival_rate);
  }

  options.sharing = parse_sharing(lower(file.get_string("jobs", "sharing", "exclusive")));
  options.partitions = file.get_size("jobs", "partitions", options.partitions);
  options.max_degree = file.get_size("jobs", "max_degree", 0);
  options.discipline = parse_discipline(lower(file.get_string("jobs", "queue", "fcfs")));
  options.admission = parse_admission(lower(file.get_string("jobs", "admission", "reject")));
  options.queue_capacity = file.get_size("jobs", "queue_capacity", options.queue_capacity);
  options.record_trace = file.get_bool("jobs", "record_trace", false);

  options.algorithm = lower(file.get_string("schedule", "algorithm", "rumr"));
  options.known_error = file.get_double("schedule", "error",
                                        file.get_double("simulation", "error", 0.0));
  options.sim = config::sim_options_from_config(file);

  const std::vector<std::string> problems = options.validate(platform.size());
  if (!problems.empty()) {
    throw config::ConfigError(util::join_problems("invalid [jobs] description:", problems));
  }
  return options;
}

JobsDescription jobs_from_config(const config::ConfigFile& file) {
  JobsDescription description{config::platform_from_config(file)};
  description.options = jobs_options_from_config(file, description.platform);
  return description;
}

}  // namespace rumr::jobs
