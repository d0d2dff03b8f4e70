#pragma once

/// \file probe.hpp
/// Live collectors the simulation engine drives while a run executes.
///
/// EngineProbe is a per-worker state machine plus uplink occupancy
/// accounting: the engine reports every state transition (compute
/// start/end/abort, outage start/end, channel acquire/release, rendezvous
/// block/unblock) and the probe partitions [0, makespan] into the buckets
/// RunMetrics reports. The DES kernel's own statistics (event counts,
/// queue-depth high-water mark) are native counters on des::Simulator.
///
/// The probe is O(1) per transition, allocates only at construction, and
/// never touches the RNG — instrumented runs stay byte-identical.

#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"

namespace rumr::obs {

/// Engine-side probe: uplink occupancy + per-worker time partitioning.
class EngineProbe {
 public:
  explicit EngineProbe(std::size_t num_workers);

  // Uplink occupancy -------------------------------------------------------
  // The engine reports the busy-channel count after every change; the probe
  // accumulates the elapsed segment into busy (>= 1 channel held) or idle.

  void uplink_channels(std::size_t busy_channels, double now);

  // Head-of-line blocking: a rendezvous send is holding a channel while its
  // target has no free buffer slot. At most one such send exists at a time.
  void block_begin(double now);
  void block_end(double now);

  // Per-worker state machine ----------------------------------------------
  // Exactly one of {idle, computing, down} at any instant. Completed compute
  // segments land in compute_time, cut-short ones in aborted_time.

  void compute_begin(std::size_t w, double now);
  void compute_end(std::size_t w, double now);
  /// No-op unless the worker is computing (ground_down aborts via this too).
  void compute_abort(std::size_t w, double now);
  void worker_down(std::size_t w, double now);
  void worker_up(std::size_t w, double now);

  /// Receive accounting (overlaps the state machine; informational).
  void chunk_received(std::size_t w, double duration) { spans_[w].receive_time += duration; }
  void chunk_dispatched(std::size_t w) { ++spans_[w].dispatches; }
  void chunk_completed(std::size_t w) { ++spans_[w].completions; }

  /// Closes every open segment at `end` (the makespan) and returns the
  /// accumulated buckets. Call exactly once, after the run drains.
  [[nodiscard]] std::vector<WorkerSpans> finish(double end);

  [[nodiscard]] double uplink_busy_time() const noexcept { return uplink_busy_; }
  [[nodiscard]] double uplink_idle_time() const noexcept { return uplink_idle_; }
  [[nodiscard]] double hol_blocking_time() const noexcept { return hol_blocking_; }

 private:
  enum class State : unsigned char { kIdle, kComputing, kDown };

  /// Accumulates worker w's segment since its last transition into the bucket
  /// of its current state, then stamps the transition.
  void settle(std::size_t w, double now);

  std::vector<WorkerSpans> spans_;
  std::vector<State> state_;
  std::vector<double> state_since_;

  double uplink_busy_ = 0.0;
  double uplink_idle_ = 0.0;
  double uplink_since_ = 0.0;
  std::size_t busy_channels_ = 0;

  double hol_blocking_ = 0.0;
  double block_since_ = 0.0;
  bool blocked_ = false;
  bool finished_ = false;
};

}  // namespace rumr::obs
