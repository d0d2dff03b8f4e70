// Tests for the Chrome-tracing trace export (sim/trace_json.hpp).

#include "sim/trace_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/umr_policy.hpp"
#include "sim/master_worker.hpp"
#include "util/json_lite.hpp"

namespace rumr::sim {
namespace {

TEST(TraceJson, EmptyTraceIsValidSkeleton) {
  const std::string json = to_chrome_tracing(Trace{});
  EXPECT_EQ(json, "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceJson, EmitsOneEventPerSpan) {
  Trace trace;
  trace.add({SpanKind::kUplink, 0, 5.0, 0.0, 1.0});
  trace.add({SpanKind::kCompute, 0, 5.0, 1.0, 6.0});
  trace.add({SpanKind::kOutput, 0, 1.0, 6.0, 6.5});
  const util::JsonValue doc = util::JsonValue::parse(to_chrome_tracing(trace));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].at("name").as_string(), "send");
  EXPECT_EQ(events[1].at("name").as_string(), "compute");
  EXPECT_EQ(events[2].at("name").as_string(), "output");
  // Seconds -> microseconds.
  EXPECT_EQ(events[1].at("ts").as_number(), 1e6);
  EXPECT_EQ(events[1].at("dur").as_number(), 5e6);
}

TEST(TraceJson, TimesParseBackBitForBit) {
  // Times with 17 significant digits: a lossy number format would round
  // them (six digits resolve only 100 us at t = 77 s).
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.3, .bandwidth = 7.7, .comp_latency = 0.11,
       .comm_latency = 0.07, .transfer_latency = 0.013});
  core::UmrPolicy policy(p, 777.7);
  sim::SimOptions options = sim::SimOptions::with_error(0.3, 5);
  options.record_trace = true;
  const SimResult result = simulate(p, policy, options);
  const util::JsonValue doc = util::JsonValue::parse(to_chrome_tracing(result.trace));
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), result.trace.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceSpan& span = result.trace.spans()[i];
    EXPECT_EQ(events[i].at("ts").as_number(), span.start * 1e6) << i;
    EXPECT_EQ(events[i].at("dur").as_number(), (span.end - span.start) * 1e6) << i;
    EXPECT_EQ(events[i].at("args").at("chunk").as_number(), span.chunk) << i;
  }
}

TEST(TraceJson, ThreadsSeparateMasterAndWorkers) {
  Trace trace;
  trace.add({SpanKind::kUplink, 3, 1.0, 0.0, 1.0});   // tid 0 regardless of worker.
  trace.add({SpanKind::kCompute, 3, 1.0, 1.0, 2.0});  // tid 13.
  const std::string json = to_chrome_tracing(trace);
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":13"), std::string::npos);
}

TEST(TraceJson, RealRunProducesParseableSkeleton) {
  const platform::StarPlatform p = platform::StarPlatform::homogeneous(
      {.workers = 4, .speed = 1.0, .bandwidth = 8.0, .comp_latency = 0.1,
       .comm_latency = 0.1});
  core::UmrPolicy policy(p, 200.0);
  sim::SimOptions options;
  options.record_trace = true;
  const SimResult result = simulate(p, policy, options);
  const std::string json = to_chrome_tracing(result.trace);
  // Crude structural checks: balanced braces/brackets, one event per span.
  std::size_t events = 0;
  for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1)) {
    ++events;
  }
  EXPECT_EQ(events, result.trace.size());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TraceJson, SavesToFile) {
  Trace trace;
  trace.add({SpanKind::kUplink, 0, 1.0, 0.0, 1.0});
  const std::string path = "trace_json_test.json";
  ASSERT_TRUE(save_chrome_tracing(path, trace));
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, to_chrome_tracing(trace));
  std::remove(path.c_str());
}

TEST(TraceJson, RefusesUnwritablePath) {
  EXPECT_FALSE(save_chrome_tracing("/nonexistent-dir/trace.json", Trace{}));
}

}  // namespace
}  // namespace rumr::sim
