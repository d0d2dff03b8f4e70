#include "config/run_description.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace rumr::config {

platform::StarPlatform platform_from_config(const ConfigFile& file) {
  platform::WorkerSpec defaults;
  defaults.speed = file.get_double("platform", "speed", 1.0);
  defaults.bandwidth = file.get_double("platform", "bandwidth", 0.0);
  defaults.comp_latency = file.get_double("platform", "comp_latency", 0.0);
  defaults.comm_latency = file.get_double("platform", "comm_latency", 0.0);
  defaults.transfer_latency = file.get_double("platform", "transfer_latency", 0.0);

  // Worker count: explicit, or inferred from the largest [worker i] index.
  std::size_t workers = file.get_size("platform", "workers", 0);
  for (const std::string& section : file.sections()) {
    if (section.rfind("worker ", 0) != 0) continue;
    const std::string index_text = trim(section.substr(7));
    char* end = nullptr;
    const unsigned long long index = std::strtoull(index_text.c_str(), &end, 10);
    if (end == index_text.c_str() || *end != '\0') {
      throw ConfigError("bad worker section name: [" + section + "]");
    }
    workers = std::max<std::size_t>(workers, static_cast<std::size_t>(index) + 1);
  }
  if (workers == 0) {
    throw ConfigError("[platform] workers missing (and no [worker i] sections)");
  }
  if (defaults.bandwidth <= 0.0 && !file.has_section("worker 0")) {
    // A default bandwidth is required unless every worker overrides it;
    // validation below will catch residual gaps via StarPlatform.
    throw ConfigError("[platform] bandwidth missing or non-positive");
  }

  std::vector<platform::WorkerSpec> specs(workers, defaults);
  for (std::size_t i = 0; i < workers; ++i) {
    const std::string section = "worker " + std::to_string(i);
    if (!file.has_section(section)) continue;
    specs[i].speed = file.get_double(section, "speed", specs[i].speed);
    specs[i].bandwidth = file.get_double(section, "bandwidth", specs[i].bandwidth);
    specs[i].comp_latency = file.get_double(section, "comp_latency", specs[i].comp_latency);
    specs[i].comm_latency = file.get_double(section, "comm_latency", specs[i].comm_latency);
    specs[i].transfer_latency =
        file.get_double(section, "transfer_latency", specs[i].transfer_latency);
  }
  try {
    return platform::StarPlatform(std::move(specs));
  } catch (const platform::PlatformError& error) {
    throw ConfigError(std::string("invalid platform: ") + error.what());
  }
}

sim::SimOptions sim_options_from_config(const ConfigFile& file) {
  sim::SimOptions options;
  const double actual_error = file.get_double("simulation", "error", 0.0);
  const std::string distribution = file.get_string("simulation", "distribution", "normal");
  stats::ErrorModel model;
  if (distribution == "normal") {
    model = stats::ErrorModel::truncated_normal(actual_error);
  } else if (distribution == "uniform") {
    model = stats::ErrorModel::uniform(actual_error);
  } else {
    throw ConfigError("[simulation] distribution must be 'normal' or 'uniform'");
  }
  options.comm_error = model;
  options.comp_error = model;
  options.seed = static_cast<std::uint64_t>(file.get_size("simulation", "seed", 1));
  options.output_ratio = file.get_double("simulation", "output_ratio", 0.0);
  options.uplink_channels = file.get_size("simulation", "uplink_channels", 1);

  const std::string fault_model = file.get_string("faults", "model", "none");
  if (fault_model == "fail-stop") {
    options.faults = faults::FaultSpec::fail_stop(
        file.get_double("faults", "mtbf", 1.0e9),
        file.get_double("faults", "fail_probability", 1.0));
  } else if (fault_model == "transient") {
    options.faults = faults::FaultSpec::transient(
        file.get_double("faults", "mtbf", 1.0e9), file.get_double("faults", "mttr", 10.0));
  } else if (fault_model != "none") {
    throw ConfigError("[faults] model must be 'none', 'fail-stop', or 'transient'");
  }
  auto& tolerance = options.fault_tolerance;
  tolerance.timeout_slack = file.get_double("faults", "timeout_slack", tolerance.timeout_slack);
  tolerance.backoff_base = file.get_double("faults", "backoff_base", tolerance.backoff_base);
  tolerance.backoff_factor =
      file.get_double("faults", "backoff_factor", tolerance.backoff_factor);
  tolerance.backoff_max = file.get_double("faults", "backoff_max", tolerance.backoff_max);

  auto& link = options.link;
  link.loss = file.get_double("faults.link", "loss", link.loss);
  link.spike_probability =
      file.get_double("faults.link", "spike_probability", link.spike_probability);
  link.spike_mean = file.get_double("faults.link", "spike_mean", link.spike_mean);
  link.degraded_mtbf = file.get_double("faults.link", "degraded_mtbf", link.degraded_mtbf);
  link.degraded_mttr = file.get_double("faults.link", "degraded_mttr", link.degraded_mttr);
  link.degraded_factor =
      file.get_double("faults.link", "degraded_factor", link.degraded_factor);

  auto& retransmit = options.retransmit;
  retransmit.enabled = file.get_bool("retransmit", "enabled", retransmit.enabled);
  retransmit.alpha = file.get_double("retransmit", "alpha", retransmit.alpha);
  retransmit.beta = file.get_double("retransmit", "beta", retransmit.beta);
  retransmit.k = file.get_double("retransmit", "k", retransmit.k);
  retransmit.rto_min = file.get_double("retransmit", "rto_min", retransmit.rto_min);
  retransmit.rto_initial_factor =
      file.get_double("retransmit", "rto_initial_factor", retransmit.rto_initial_factor);
  retransmit.max_retries = file.get_size("retransmit", "max_retries", retransmit.max_retries);

  options.checkpoint.interval =
      file.get_double("checkpoint", "interval", options.checkpoint.interval);
  return options;
}

RunDescription run_from_config(const ConfigFile& file) {
  RunDescription run{platform_from_config(file)};
  run.w_total = file.require_double("workload", "total");
  if (!(run.w_total > 0.0)) throw ConfigError("[workload] total must be positive");

  run.algorithm = file.get_string("schedule", "algorithm", "rumr");
  std::transform(run.algorithm.begin(), run.algorithm.end(), run.algorithm.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  run.known_error = file.get_double("schedule", "error",
                                    file.get_double("simulation", "error", 0.0));

  run.sim_options = sim_options_from_config(file);
  run.repetitions = std::max<std::size_t>(1, file.get_size("simulation", "repetitions", 1));
  return run;
}

}  // namespace rumr::config
