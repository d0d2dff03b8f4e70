#include "sim/trace_json.hpp"

#include <algorithm>
#include <fstream>

#include "util/json_lite.hpp"

namespace rumr::sim {

namespace {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kUplink:
      return "send";
    case SpanKind::kTail:
      return "tail";
    case SpanKind::kCompute:
      return "compute";
    case SpanKind::kOutput:
      return "output";
    case SpanKind::kAborted:
      return "aborted";
    case SpanKind::kDown:
      return "down";
  }
  return "span";
}

long long span_tid(const TraceSpan& span) {
  switch (span.kind) {
    case SpanKind::kUplink:
      return 0;
    case SpanKind::kOutput:
      return 1;
    case SpanKind::kTail:
    case SpanKind::kCompute:
    case SpanKind::kAborted:
    case SpanKind::kDown:
      return 10 + static_cast<long long>(span.worker);
  }
  return 0;
}

}  // namespace

std::string to_chrome_tracing(const Trace& trace) {
  using util::JsonValue;
  JsonValue events = JsonValue::array();
  for (const TraceSpan& span : trace.spans()) {
    events.push_back(JsonValue::object(
        {{"name", JsonValue::string(span_name(span.kind))},
         {"ph", JsonValue::string("X")},
         {"pid", JsonValue::number(0)},
         {"tid", JsonValue::number(span_tid(span))},
         {"ts", JsonValue::number(span.start * 1e6)},
         {"dur", JsonValue::number(std::max(0.0, span.end - span.start) * 1e6)},
         {"args", JsonValue::object({{"worker", JsonValue::number(span.worker)},
                                     {"chunk", JsonValue::number(span.chunk)}})}}));
  }
  JsonValue doc = JsonValue::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", JsonValue::string("ms"));
  return doc.dump();
}

bool save_chrome_tracing(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_chrome_tracing(trace);
  return static_cast<bool>(out);
}

}  // namespace rumr::sim
