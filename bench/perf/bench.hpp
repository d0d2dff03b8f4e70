#pragma once

/// \file bench.hpp
/// rumr_bench: the repository benchmark.
///
/// Five workloads drive the library through its public facades (sweep-table2,
/// race-cell, jobs-open, serve-cold, serve-warm). An untraced run sets each
/// workload up several times, then measures rounds for a fixed wall-clock
/// budget and reports every end-to-end metric as the median over rounds. A
/// traced run replays the same inputs while recording spans around each
/// layer's public entry points, times the full path untraced, and reports
/// the per-layer metrics plus a layer table whose parts and remainder sum to
/// the full path. Every run verifies the program's outputs.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/json_lite.hpp"

namespace rumr::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The five workload names, in --all order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Settings shared by every workload of one invocation.
struct Config {
  std::uint64_t seed = 1;
  double seconds = 10.0;       ///< Measured wall-clock budget of an untraced run.
  std::size_t rounds = 0;      ///< Fixed round count (0 = run for `seconds`).
  std::size_t threads = 4;     ///< Worker threads: min(4, hardware threads).
  bool smoke = false;          ///< Tiny inputs, one round (the ctest smoke check).
};

// --- Untraced (end-to-end) measurement --------------------------------------

/// One measured round of a workload.
struct Round {
  double throughput = 0.0;            ///< Work units completed per second.
  std::vector<double> latencies_ms;   ///< One entry per user-visible operation.
  std::size_t attempted = 0;          ///< Operations attempted.
  std::size_t failed = 0;             ///< Operations that failed.
};

/// A workload after set-up: builds its inputs and program objects in the
/// constructor (timed as set-up), then runs measured rounds on demand.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs one measured round.
  [[nodiscard]] virtual Round run_round() = 0;

  /// Output-verification problems found so far (empty = every check passed).
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept { return problems_; }

 protected:
  /// Records a problem; the first few are kept verbatim, which is enough to
  /// diagnose a failure that otherwise repeats on every request.
  void fail(std::string problem) {
    if (problems_.size() < kMaxProblems) problems_.push_back(std::move(problem));
  }

 private:
  static constexpr std::size_t kMaxProblems = 32;
  std::vector<std::string> problems_;
};

/// Sets up workload `name` (throws std::invalid_argument on an unknown name).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const Config& config);

// --- Traced (per-layer) measurement -----------------------------------------

/// One recorded span. Times are microseconds since the recorder's origin.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;              ///< Index of the enclosing span, -1 for a root.
  std::uint64_t request = 0;    ///< Operation the span belongs to.
};

/// In-memory span recorder for the single-threaded traced replays. Spans are
/// kept until the run ends and written out afterwards.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// RAII span: opens on construction, closes on destruction. Nested scopes
  /// become child spans of the innermost open one.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per span name: each span's duration minus the part of it its
  /// children cover, summed by name (microseconds).
  [[nodiscard]] std::map<std::string, double> self_times() const;

  /// Chrome trace-event JSON ("X" complete events) of every span.
  [[nodiscard]] util::JsonValue chrome_trace() const;

 private:
  [[nodiscard]] double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// One row of a layer table.
struct LayerRow {
  std::string layer;
  double self_us = 0.0;  ///< Total self time over the traced operations.
};

/// Output of a traced run: the layer table, the per-layer metrics, and the
/// spans it was computed from.
struct TraceReport {
  std::string unit;                 ///< What one work unit is (cell, job, request).
  double units = 0.0;               ///< Work units in the full path.
  double full_path_us = 0.0;        ///< Untraced wall time of the full path.
  std::vector<double> path_ms;      ///< Untraced latency of each operation on it.
  std::vector<LayerRow> layers;     ///< Named layers (self time) on the full path.
  std::map<std::string, double> metrics;  ///< Every per-layer metric by name.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  SpanRecorder spans;

  /// full_path_us minus the named layers: whatever the path spends outside
  /// them (may be slightly negative when a layer's replay ran slower).
  [[nodiscard]] double remainder_us() const;
};

/// Runs the traced replay of workload `name`.
[[nodiscard]] TraceReport trace_workload(const std::string& name, const Config& config);

// --- Metrics ---------------------------------------------------------------

/// How a metric is judged.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  double bound;  ///< Allowed relative worsening of the median (end-to-end only).
  bool exact;    ///< A count that must repeat exactly for the same seed.
};

/// End-to-end metrics, measured untraced, reported for every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();

/// Per-layer metrics, reported by every traced run (0 where the layer is not
/// on the workload's path).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

// --- Statistics and reports ------------------------------------------------

/// Median and quartiles the way Python's statistics.quantiles(n=4) computes
/// them (exclusive method); a single value is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Reads a JSON file (throws std::runtime_error when unreadable).
[[nodiscard]] util::JsonValue read_json(const std::string& path);

/// Writes `value` as JSON to `path`, creating its directory.
void write_json(const std::string& path, const util::JsonValue& value);

/// Compares the reports of two --out directories metric by metric. Prints a
/// table; returns the number of metrics outside their bound (exact metrics
/// must be equal) plus the number of reports missing on either side.
[[nodiscard]] int compare_dirs(const std::string& a_dir, const std::string& b_dir);

}  // namespace rumr::bench
