#pragma once

/// \file run_description.hpp
/// Bridges configuration files to the scheduling library: platform,
/// workload, algorithm, and simulation settings from one description file.
///
/// Schema (all keys optional unless noted):
///
///   [platform]
///   workers = 16           ; required unless explicit [worker i] sections exist
///   speed = 1.0            ; defaults for every worker
///   bandwidth = 24.0
///   comp_latency = 0.2
///   comm_latency = 0.1
///   transfer_latency = 0
///
///   [worker 3]             ; per-worker overrides (0-based index)
///   speed = 4.0
///
///   [workload]
///   total = 1000           ; required, > 0
///
///   [schedule]
///   algorithm = rumr       ; a config name from the registry (config/policies.cpp)
///   error = 0.2            ; known/assumed prediction-error magnitude
///
///   [simulation]
///   error = 0.2            ; actual error level driving the run
///   distribution = normal  ; normal | uniform
///   seed = 42
///   repetitions = 1
///   output_ratio = 0
///   uplink_channels = 1
///
///   [faults]
///   model = none           ; none | fail-stop | transient
///   mtbf = 800             ; mean time between failures (seconds)
///   mttr = 80              ; mean time to repair (transient only)
///   fail_probability = 1.0 ; fail-stop: fraction of workers that ever fail
///   timeout_slack = 4      ; completion-timeout = slack x predicted remaining
///   backoff_base = 1
///   backoff_factor = 4
///   backoff_max = 1024
///
///   [faults.link]
///   loss = 0.05            ; per-message loss probability in [0, 1]
///   spike_probability = 0  ; per-message latency-spike probability in [0, 1]
///   spike_mean = 0         ; mean spike delay (seconds, Exp-distributed)
///   degraded_mtbf = 0      ; mean clean time between degradation windows
///   degraded_mttr = 0      ; mean degradation-window length
///   degraded_factor = 1    ; bandwidth-term stretch inside a window (>= 1)
///
///   [retransmit]
///   enabled = false        ; ACK/timeout/retransmit protocol (RFC6298-style)
///   alpha = 0.125          ; SRTT gain
///   beta = 0.25            ; RTTVAR gain
///   k = 4                  ; RTO = SRTT + k x RTTVAR
///   rto_min = 0.001        ; floor on the retransmission timeout (seconds)
///   rto_initial_factor = 3 ; pre-sample RTO = factor x predicted round trip
///   max_retries = 8        ; send attempts per delivery before fencing
///
///   [checkpoint]
///   interval = 0           ; partial-work banking period (seconds; 0 = off)

#include <string>

#include "config/config_file.hpp"
#include "platform/platform.hpp"
#include "sim/master_worker.hpp"

namespace rumr::config {

/// Everything needed to execute a described run.
struct RunDescription {
  platform::StarPlatform platform;
  double w_total = 0.0;
  std::string algorithm = "rumr";
  double known_error = 0.0;      ///< What the scheduler is told.
  sim::SimOptions sim_options{}; ///< Including the actual error level.
  std::size_t repetitions = 1;
};

/// Builds the platform from [platform] + [worker i] sections. Throws
/// ConfigError on invalid or missing description.
[[nodiscard]] platform::StarPlatform platform_from_config(const ConfigFile& file);

/// Parses just the inner-engine options from the [simulation] and [faults]
/// sections (shared by single-job runs and the multi-job engine). Throws
/// ConfigError on problems.
[[nodiscard]] sim::SimOptions sim_options_from_config(const ConfigFile& file);

/// Parses the full run description. Throws ConfigError on problems.
[[nodiscard]] RunDescription run_from_config(const ConfigFile& file);

}  // namespace rumr::config
