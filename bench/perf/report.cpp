// Metric registry, statistics, span recording, report files and --compare.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace rumr::bench {

// --- Metrics ---------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", false, 0.25, false},
      {"throughput_per_s", "1/s", true, 0.25, false},
      {"latency_p50_ms", "ms", false, 0.25, false},
      {"peak_rss_mb", "MiB", false, 0.10, false},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"latency_p99_ms", "ms", false, 0, false},
      {"path.unit_us", "us", false, 0, false},
      {"path.remainder_us", "us", false, 0, false},
      {"path.remainder_share", "fraction", false, 0, false},
      {"trace.span_overhead", "fraction", false, 0, false},
      {"protocol.decode_us", "us", false, 0, false},
      {"protocol.parse_us", "us", false, 0, false},
      {"protocol.canonical_us", "us", false, 0, false},
      {"protocol.respond_us", "us", false, 0, false},
      {"protocol.bytes_in", "bytes", false, 0, true},
      {"protocol.bytes_out", "bytes", false, 0, true},
      {"plan_cache.lookup_us", "us", false, 0, false},
      {"plan_cache.hit_ratio", "fraction", true, 0, true},
      {"plan_cache.evictions", "count", false, 0, true},
      {"server.handle_us", "us", false, 0, false},
      {"server.concurrency_speedup", "ratio", true, 0, false},
      {"policy.setup_us", "us", false, 0, false},
      {"policy.share", "fraction", false, 0, false},
      {"sim.simulate_us", "us", false, 0, false},
      {"sim.events", "count", false, 0, true},
      {"sim.events_per_s", "1/s", true, 0, false},
      {"sim.trace_overhead", "ratio", false, 0, false},
      {"check.audit_us", "us", false, 0, false},
      {"check.audit_share", "fraction", false, 0, false},
      {"check.audit_service_us", "us", false, 0, false},
      {"check.audit_race_us", "us", false, 0, false},
      {"sweep.speedup", "ratio", true, 0, false},
      {"race.rounds", "count", false, 0, true},
      {"race.samples", "count", false, 0, true},
      {"race.speedup", "ratio", true, 0, false},
      {"jobs.run_us", "us", false, 0, false},
      {"jobs.oracle_runs", "count", false, 0, true},
      {"jobs.oracle_events", "count", false, 0, true},
      {"jobs.manager_events", "count", false, 0, true},
      {"des.chain_events_per_s", "1/s", true, 0, false},
      {"des.fanout_events_per_s", "1/s", true, 0, false},
  };
  return kMetrics;
}

// --- Statistics ------------------------------------------------------------

Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median = n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  if (n == 1) return {values[0], median, values[0]};
  // statistics.quantiles(values, n=4), method="exclusive".
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return {cut(1), median, cut(3)};
}

double peak_rss_mb() {
  // VmHWM belongs to this process image alone; getrusage's ru_maxrss would
  // also carry the launching process's peak across fork and exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

// --- Spans -----------------------------------------------------------------

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name, std::uint64_t request)
    : recorder_(recorder), index_(static_cast<int>(recorder.spans_.size())) {
  Span span;
  span.name = name;
  span.parent = recorder.open_.empty() ? -1 : recorder.open_.back();
  span.request = request;
  span.start_us = recorder.now_us();
  recorder.spans_.push_back(span);
  recorder.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  recorder_.spans_[static_cast<std::size_t>(index_)].end_us = recorder_.now_us();
  recorder_.open_.pop_back();
}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

std::map<std::string, double> SpanRecorder::self_times() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) covered[static_cast<std::size_t>(span.parent)] += span.end_us - span.start_us;
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_us - spans_[i].start_us - covered[i];
  }
  return self;
}

util::JsonValue SpanRecorder::chrome_trace() const {
  util::JsonValue events = util::JsonValue::array();
  for (const Span& span : spans_) {
    util::JsonValue args = util::JsonValue::object();
    args.set("request", util::JsonValue::number(static_cast<double>(span.request)));
    args.set("parent", util::JsonValue::number(span.parent));
    util::JsonValue event = util::JsonValue::object();
    event.set("name", util::JsonValue::string(span.name));
    event.set("cat", util::JsonValue::string("rumr_bench"));
    event.set("ph", util::JsonValue::string("X"));
    event.set("ts", util::JsonValue::number(span.start_us));
    event.set("dur", util::JsonValue::number(span.end_us - span.start_us));
    event.set("pid", util::JsonValue::number(1));
    event.set("tid", util::JsonValue::number(1));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  util::JsonValue trace = util::JsonValue::object();
  trace.set("traceEvents", std::move(events));
  trace.set("displayTimeUnit", util::JsonValue::string("ms"));
  return trace;
}

double TraceReport::remainder_us() const {
  double named = 0.0;
  for (const LayerRow& row : layers) named += row.self_us;
  return full_path_us - named;
}

// --- Files -----------------------------------------------------------------

util::JsonValue read_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return util::JsonValue::parse(text.str());
}

void write_json(const std::string& path, const util::JsonValue& value) {
  const std::filesystem::path file(path);
  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path());
  std::ofstream out(file, std::ios::trunc);
  out << value.dump() << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

// --- --compare ---------------------------------------------------------------

namespace {

/// Loads `dir/name` when it exists; returns false otherwise.
bool load_if_present(const std::string& dir, const std::string& name, util::JsonValue& out) {
  const std::filesystem::path path = std::filesystem::path(dir) / name;
  if (!std::filesystem::exists(path)) return false;
  out = read_json(path.string());
  return true;
}

/// Counts: metrics outside their bound, and reports present on one side only.
int compare_end_to_end(const std::string& workload, const util::JsonValue& a,
                       const util::JsonValue& b) {
  int bad = 0;
  for (const MetricSpec& spec : end_to_end_metrics()) {
    const util::JsonValue* ma = a.at("metrics").find(spec.name);
    const util::JsonValue* mb = b.at("metrics").find(spec.name);
    if (ma == nullptr || mb == nullptr) {
      std::printf("%-13s %-22s missing\n", workload.c_str(), spec.name);
      ++bad;
      continue;
    }
    const double a_med = ma->at("median").as_number();
    const double b_med = mb->at("median").as_number();
    const double delta = a_med != 0.0 ? (b_med - a_med) / a_med : 0.0;
    const double worse = spec.higher_is_better ? -delta : delta;
    const bool ok = worse <= spec.bound;
    bad += ok ? 0 : 1;
    std::printf("%-13s %-22s %12.6g [%.6g, %.6g]  %12.6g [%.6g, %.6g]  %+7.2f%%  bound %4.0f%%  %s\n",
                workload.c_str(), spec.name, a_med, ma->at("q1").as_number(),
                ma->at("q3").as_number(), b_med, mb->at("q1").as_number(),
                mb->at("q3").as_number(), 100.0 * delta, 100.0 * spec.bound,
                ok ? "ok" : "WORSE");
  }
  return bad;
}

int compare_exact_layers(const std::string& workload, const util::JsonValue& a,
                         const util::JsonValue& b) {
  int bad = 0;
  for (const MetricSpec& spec : per_layer_metrics()) {
    if (!spec.exact) continue;
    const util::JsonValue* va = a.at("metrics").find(spec.name);
    const util::JsonValue* vb = b.at("metrics").find(spec.name);
    const bool ok = va != nullptr && vb != nullptr && va->as_number() == vb->as_number();
    if (ok && va->as_number() == 0.0) continue;  // Not on this workload's path.
    bad += ok ? 0 : 1;
    std::printf("%-13s %-26s %14.10g  %14.10g  exact  %s\n", workload.c_str(), spec.name,
                va != nullptr ? va->as_number() : NAN, vb != nullptr ? vb->as_number() : NAN,
                ok ? "ok" : "DIFFERS");
  }
  return bad;
}

}  // namespace

int compare_dirs(const std::string& a_dir, const std::string& b_dir) {
  int bad = 0;
  std::printf("%-13s %-22s %12s %-20s  %12s %-20s  %8s\n", "workload", "metric", "A median",
              "[q1, q3]", "B median", "[q1, q3]", "delta");
  for (const std::string& workload : workload_names()) {
    for (const char* suffix : {".json", ".layers.json"}) {
      util::JsonValue a;
      util::JsonValue b;
      const bool in_a = load_if_present(a_dir, workload + suffix, a);
      const bool in_b = load_if_present(b_dir, workload + suffix, b);
      if (in_a != in_b) {
        std::printf("%-13s %s present on one side only\n", workload.c_str(), suffix);
        ++bad;
        continue;
      }
      if (!in_a) continue;
      bad += std::string(suffix) == ".json" ? compare_end_to_end(workload, a, b)
                                            : compare_exact_layers(workload, a, b);
    }
  }
  std::printf("%s: %d metric(s) outside their bound or unequal\n", bad == 0 ? "ok" : "FAIL", bad);
  return bad;
}

}  // namespace rumr::bench
