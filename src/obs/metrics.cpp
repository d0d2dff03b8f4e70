#include "obs/metrics.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/json_lite.hpp"

namespace rumr::obs {

Histogram::Histogram(std::vector<double> upper_edges) : edges_(std::move(upper_edges)) {
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    if (!(edges_[i] > edges_[i - 1])) {
      throw std::invalid_argument("Histogram edges must be strictly ascending");
    }
  }
  counts_.assign(edges_.size() + 1, 0);
}

Histogram Histogram::exponential(double first_edge, double factor, std::size_t count) {
  if (!(first_edge > 0.0) || !(factor > 1.0)) {
    throw std::invalid_argument("Histogram::exponential needs first_edge > 0 and factor > 1");
  }
  std::vector<double> edges;
  edges.reserve(count);
  double edge = first_edge;
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back(edge);
    edge *= factor;
  }
  return Histogram(std::move(edges));
}

void Histogram::add(double sample) noexcept {
  if (counts_.empty()) counts_.assign(edges_.size() + 1, 0);
  std::size_t bucket = edges_.size();  // Overflow unless an edge admits it.
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (sample <= edges_[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_[bucket];
  ++total_;
  sum_ += sample;
  if (total_ == 1 || sample < min_) min_ = sample;
  if (total_ == 1 || sample > max_) max_ = sample;
}

void Histogram::merge(const Histogram& other) {
  if (other.total_ == 0 && other.edges_.empty()) return;
  if (edges_.empty() && total_ == 0) {
    *this = other;
    return;
  }
  if (edges_ != other.edges_) {
    throw std::invalid_argument("Histogram::merge requires identical upper edges");
  }
  if (other.total_ == 0) return;
  if (counts_.empty()) counts_.assign(edges_.size() + 1, 0);
  for (std::size_t i = 0; i < counts_.size() && i < other.counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (total_ == 0 || other.min_ < min_) min_ = other.min_;
  if (total_ == 0 || other.max_ > max_) max_ = other.max_;
  total_ += other.total_;
  sum_ += other.sum_;
}

namespace {

using util::JsonValue;

/// A measured value (non-finite ones are written null) and a counter.
JsonValue real(double v) { return JsonValue::number_or_null(v); }
JsonValue count(std::uint64_t v) { return JsonValue::number(static_cast<double>(v)); }

JsonValue histogram_value(const Histogram& h) {
  JsonValue edges = JsonValue::array();
  for (const double edge : h.upper_edges()) edges.push_back(real(edge));
  JsonValue counts = JsonValue::array();
  for (const std::uint64_t c : h.bucket_counts()) counts.push_back(count(c));
  return JsonValue::object({{"total", count(h.total())},
                            {"sum", real(h.sum())},
                            {"min", real(h.min())},
                            {"max", real(h.max())},
                            {"upper_edges", std::move(edges)},
                            {"counts", std::move(counts)}});
}

}  // namespace

std::string to_json(const RunMetrics& m) {
  JsonValue workers = JsonValue::array();
  for (const WorkerSpans& ws : m.engine.workers) {
    workers.push_back(JsonValue::object({{"compute_time", real(ws.compute_time)},
                                         {"aborted_time", real(ws.aborted_time)},
                                         {"idle_time", real(ws.idle_time)},
                                         {"down_time", real(ws.down_time)},
                                         {"receive_time", real(ws.receive_time)},
                                         {"dispatches", count(ws.dispatches)},
                                         {"completions", count(ws.completions)}}));
  }
  const EngineStats& e = m.engine;
  const FaultStats& f = m.faults;
  return JsonValue::object(
             {{"makespan", real(m.makespan)},
              {"des", JsonValue::object({{"events_scheduled", count(m.des.events_scheduled)},
                                         {"events_executed", count(m.des.events_executed)},
                                         {"events_cancelled", count(m.des.events_cancelled)},
                                         {"queue_depth_high_water",
                                          count(m.des.queue_depth_high_water)},
                                         {"wall_seconds", real(m.des.wall_seconds)},
                                         {"events_per_second", real(m.des.events_per_second)}})},
              {"engine", JsonValue::object({{"uplink_busy_time", real(e.uplink_busy_time)},
                                            {"uplink_idle_time", real(e.uplink_idle_time)},
                                            {"uplink_utilization", real(e.uplink_utilization)},
                                            {"uplink_transfer_time", real(e.uplink_transfer_time)},
                                            {"downlink_busy_time", real(e.downlink_busy_time)},
                                            {"hol_blocking_time", real(e.hol_blocking_time)},
                                            {"dispatches", count(e.dispatches)},
                                            {"completions", count(e.completions)},
                                            {"redispatches", count(e.redispatches)},
                                            {"work_dispatched", real(e.work_dispatched)},
                                            {"work_redispatched", real(e.work_redispatched)},
                                            {"mean_worker_utilization",
                                             real(e.mean_worker_utilization)},
                                            {"chunk_sizes", histogram_value(e.chunk_sizes)},
                                            {"compute_durations",
                                             histogram_value(e.compute_durations)},
                                            {"timeout_windows", histogram_value(e.timeout_windows)},
                                            {"rto_values", histogram_value(e.rto_values)},
                                            {"workers", std::move(workers)}})},
              {"faults", JsonValue::object({{"failures", count(f.failures)},
                                            {"recoveries", count(f.recoveries)},
                                            {"fencings", count(f.fencings)},
                                            {"false_suspicions", count(f.false_suspicions)},
                                            {"backoff_retries", count(f.backoff_retries)},
                                            {"rejoins", count(f.rejoins)},
                                            {"chunks_lost", count(f.chunks_lost)},
                                            {"chunks_redispatched", count(f.chunks_redispatched)},
                                            {"messages_lost", count(f.messages_lost)},
                                            {"latency_spikes", count(f.latency_spikes)},
                                            {"degraded_sends", count(f.degraded_sends)},
                                            {"retransmits", count(f.retransmits)},
                                            {"work_retransmitted", real(f.work_retransmitted)},
                                            {"duplicates_suppressed",
                                             count(f.duplicates_suppressed)},
                                            {"checkpoints_banked", count(f.checkpoints_banked)},
                                            {"work_banked", real(f.work_banked)}})}})
      .dump();
}

void CacheStats::merge(const CacheStats& other) noexcept {
  lookups += other.lookups;
  hits += other.hits;
  misses += other.misses;
  insertions += other.insertions;
  evictions += other.evictions;
  collisions += other.collisions;
  failed_solves += other.failed_solves;
  entries += other.entries;
  bytes_cached += other.bytes_cached;
}

std::string to_json(const ServeStats& s) {
  const CacheStats& c = s.plan_cache;
  return JsonValue::object({{"received", count(s.received)},
                            {"admitted", count(s.admitted)},
                            {"rejected", count(s.rejected)},
                            {"shed", count(s.shed)},
                            {"completed", count(s.completed)},
                            {"queue_depth_high_water", count(s.queue_depth_high_water)},
                            {"queries", count(s.queries)},
                            {"query_errors", count(s.query_errors)},
                            {"solves", count(s.solves)},
                            {"protocol_errors", count(s.protocol_errors)},
                            {"plan_cache", JsonValue::object({{"lookups", count(c.lookups)},
                                                              {"hits", count(c.hits)},
                                                              {"misses", count(c.misses)},
                                                              {"insertions", count(c.insertions)},
                                                              {"evictions", count(c.evictions)},
                                                              {"collisions", count(c.collisions)},
                                                              {"failed_solves",
                                                               count(c.failed_solves)},
                                                              {"entries", count(c.entries)},
                                                              {"bytes_cached",
                                                               count(c.bytes_cached)}})}})
      .dump();
}

JsonValue to_json_value(const JobsStats& s) {
  return JsonValue::object({{"arrived", count(s.arrived)},
                            {"admitted", count(s.admitted)},
                            {"rejected", count(s.rejected)},
                            {"shed", count(s.shed)},
                            {"completed", count(s.completed)},
                            {"response_times", histogram_value(s.response_times)},
                            {"slowdowns", histogram_value(s.slowdowns)},
                            {"queue_waits", histogram_value(s.queue_waits)},
                            {"job_sizes", histogram_value(s.job_sizes)}});
}

std::string to_json(const JobsStats& s) { return to_json_value(s).dump(); }

namespace {

void csv_row(std::ostream& out, const std::string& metric, double value) {
  out << metric << ',';
  std::ostringstream text;
  text.precision(17);
  text << value;
  out << text.str() << '\n';
}

void csv_row(std::ostream& out, const std::string& metric, std::uint64_t value) {
  out << metric << ',' << value << '\n';
}

}  // namespace

void write_csv(std::ostream& out, const RunMetrics& m) {
  out << "metric,value\n";
  csv_row(out, "makespan", m.makespan);
  csv_row(out, "des.events_scheduled", static_cast<std::uint64_t>(m.des.events_scheduled));
  csv_row(out, "des.events_executed", static_cast<std::uint64_t>(m.des.events_executed));
  csv_row(out, "des.events_cancelled", static_cast<std::uint64_t>(m.des.events_cancelled));
  csv_row(out, "des.queue_depth_high_water",
          static_cast<std::uint64_t>(m.des.queue_depth_high_water));
  csv_row(out, "des.wall_seconds", m.des.wall_seconds);
  csv_row(out, "des.events_per_second", m.des.events_per_second);
  csv_row(out, "engine.uplink_busy_time", m.engine.uplink_busy_time);
  csv_row(out, "engine.uplink_idle_time", m.engine.uplink_idle_time);
  csv_row(out, "engine.uplink_utilization", m.engine.uplink_utilization);
  csv_row(out, "engine.uplink_transfer_time", m.engine.uplink_transfer_time);
  csv_row(out, "engine.downlink_busy_time", m.engine.downlink_busy_time);
  csv_row(out, "engine.hol_blocking_time", m.engine.hol_blocking_time);
  csv_row(out, "engine.dispatches", static_cast<std::uint64_t>(m.engine.dispatches));
  csv_row(out, "engine.completions", static_cast<std::uint64_t>(m.engine.completions));
  csv_row(out, "engine.redispatches", static_cast<std::uint64_t>(m.engine.redispatches));
  csv_row(out, "engine.work_dispatched", m.engine.work_dispatched);
  csv_row(out, "engine.work_redispatched", m.engine.work_redispatched);
  csv_row(out, "engine.mean_worker_utilization", m.engine.mean_worker_utilization);
  for (std::size_t w = 0; w < m.engine.workers.size(); ++w) {
    const WorkerSpans& ws = m.engine.workers[w];
    const std::string prefix = "worker" + std::to_string(w) + '.';
    csv_row(out, prefix + "compute_time", ws.compute_time);
    csv_row(out, prefix + "aborted_time", ws.aborted_time);
    csv_row(out, prefix + "idle_time", ws.idle_time);
    csv_row(out, prefix + "down_time", ws.down_time);
    csv_row(out, prefix + "receive_time", ws.receive_time);
    csv_row(out, prefix + "dispatches", static_cast<std::uint64_t>(ws.dispatches));
    csv_row(out, prefix + "completions", static_cast<std::uint64_t>(ws.completions));
  }
  csv_row(out, "faults.failures", static_cast<std::uint64_t>(m.faults.failures));
  csv_row(out, "faults.recoveries", static_cast<std::uint64_t>(m.faults.recoveries));
  csv_row(out, "faults.fencings", static_cast<std::uint64_t>(m.faults.fencings));
  csv_row(out, "faults.false_suspicions",
          static_cast<std::uint64_t>(m.faults.false_suspicions));
  csv_row(out, "faults.backoff_retries", static_cast<std::uint64_t>(m.faults.backoff_retries));
  csv_row(out, "faults.rejoins", static_cast<std::uint64_t>(m.faults.rejoins));
  csv_row(out, "faults.chunks_lost", static_cast<std::uint64_t>(m.faults.chunks_lost));
  csv_row(out, "faults.chunks_redispatched",
          static_cast<std::uint64_t>(m.faults.chunks_redispatched));
  csv_row(out, "faults.messages_lost", static_cast<std::uint64_t>(m.faults.messages_lost));
  csv_row(out, "faults.latency_spikes", static_cast<std::uint64_t>(m.faults.latency_spikes));
  csv_row(out, "faults.degraded_sends", static_cast<std::uint64_t>(m.faults.degraded_sends));
  csv_row(out, "faults.retransmits", static_cast<std::uint64_t>(m.faults.retransmits));
  csv_row(out, "faults.work_retransmitted", m.faults.work_retransmitted);
  csv_row(out, "faults.duplicates_suppressed",
          static_cast<std::uint64_t>(m.faults.duplicates_suppressed));
  csv_row(out, "faults.checkpoints_banked",
          static_cast<std::uint64_t>(m.faults.checkpoints_banked));
  csv_row(out, "faults.work_banked", m.faults.work_banked);
}

std::string to_csv(const RunMetrics& m) {
  std::ostringstream out;
  write_csv(out, m);
  return out.str();
}

}  // namespace rumr::obs
