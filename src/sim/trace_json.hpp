#pragma once

/// \file trace_json.hpp
/// Exports simulation traces in the Chrome tracing ("catapult") JSON format,
/// loadable in chrome://tracing, Perfetto, or speedscope — real Gantt
/// tooling for runs too large for the ASCII renderer.
///
/// Mapping: one process (pid 0); tid 0 is the master uplink, tid 1 the
/// master downlink (output transfers), tid 10+i worker i's CPU. Each span
/// becomes a complete ("ph":"X") event; simulated seconds become
/// microseconds of trace time.

#include <string>

#include "sim/trace.hpp"

namespace rumr::sim {

/// Serializes the trace through util::json_lite. Deterministic output
/// (spans in recording order); every `ts` and `dur` parses back bit for bit
/// to start * 1e6 and (end - start) * 1e6.
[[nodiscard]] std::string to_chrome_tracing(const Trace& trace);

/// Writes to `path` (truncating). Returns false on I/O failure.
bool save_chrome_tracing(const std::string& path, const Trace& trace);

}  // namespace rumr::sim
