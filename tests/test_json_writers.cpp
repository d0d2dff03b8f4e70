// Tests for the JSON documents the repo writes. Every writer spells its
// strings and numbers through util::json_lite, so each document parses, its
// doubles read back bit for bit, a report writes a non-finite value as
// null, and any name comes out 7-bit clean with its control bytes escaped.
// (The Chrome trace's times are checked in test_trace_json.cpp.)

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/umr_policy.hpp"
#include "jobs/job_manager.hpp"
#include "lint/report.hpp"
#include "obs/metrics.hpp"
#include "platform/platform.hpp"
#include "report/jobs_io.hpp"
#include "report/metrics_io.hpp"
#include "sim/master_worker.hpp"
#include "sweep/golden.hpp"
#include "sweep/runner.hpp"
#include "util/json_lite.hpp"

namespace rumr {
namespace {

using util::JsonValue;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// A quote, a backslash, a tab, a control byte and a non-ASCII letter (é).
const std::string kAwkwardName = "a\"b\\c\td\x01 caf\xC3\xA9";

/// Equal bit patterns: stricter than ==, which takes -0.0 for 0.0.
void expect_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << what << ": got " << got << ", want " << want;
}

/// Printable 7-bit ASCII only, apart from line breaks between values.
bool seven_bit_clean(const std::string& text) {
  return std::all_of(text.begin(), text.end(), [](char c) {
    const auto u = static_cast<unsigned char>(c);
    return c == '\n' || (u >= 0x20 && u < 0x7F);
  });
}

platform::StarPlatform odd_platform() {
  return platform::StarPlatform::homogeneous({.workers = 3, .speed = 1.3, .bandwidth = 7.7,
                                              .comp_latency = 0.11, .comm_latency = 0.07,
                                              .transfer_latency = 0.013});
}

TEST(JsonWriters, RunMetricsDoublesParseBackBitForBit) {
  const platform::StarPlatform p = odd_platform();
  core::UmrPolicy policy(p, 333.3);
  const sim::SimResult result = sim::simulate(p, policy, sim::SimOptions::with_error(0.3, 9));
  const obs::RunMetrics& m = result.metrics;
  const JsonValue doc = JsonValue::parse(obs::to_json(m));
  expect_bits(doc.at("makespan").as_number(), m.makespan, "makespan");
  const JsonValue& engine = doc.at("engine");
  expect_bits(engine.at("uplink_busy_time").as_number(), m.engine.uplink_busy_time,
              "uplink_busy_time");
  expect_bits(engine.at("mean_worker_utilization").as_number(), m.engine.mean_worker_utilization,
              "mean_worker_utilization");
  expect_bits(engine.at("chunk_sizes").at("sum").as_number(), m.engine.chunk_sizes.sum(),
              "chunk_sizes.sum");
  const auto& workers = engine.at("workers").as_array();
  ASSERT_EQ(workers.size(), m.engine.workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    expect_bits(workers[w].at("compute_time").as_number(), m.engine.workers[w].compute_time,
                "compute_time");
    expect_bits(workers[w].at("idle_time").as_number(), m.engine.workers[w].idle_time,
                "idle_time");
  }
  EXPECT_EQ(doc.at("des").at("events_executed").as_number(),
            static_cast<double>(m.des.events_executed));

  obs::RunMetrics broken = m;
  broken.makespan = kNaN;
  broken.engine.uplink_utilization = kInf;
  broken.engine.workers.at(0).idle_time = -kInf;
  const JsonValue nulls = JsonValue::parse(obs::to_json(broken));
  EXPECT_EQ(nulls.at("makespan").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(nulls.at("engine").at("uplink_utilization").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(nulls.at("engine").at("workers").as_array()[0].at("idle_time").kind(),
            JsonValue::Kind::kNull);
}

TEST(JsonWriters, ServeStatsKeepTheirWireBytes) {
  // The serve `stats` reply embeds these bytes, so they are pinned exactly.
  obs::ServeStats s;
  s.received = 1;
  s.admitted = 2;
  s.rejected = 3;
  s.shed = 4;
  s.completed = 5;
  s.queue_depth_high_water = 6;
  s.queries = 7;
  s.query_errors = 8;
  s.solves = 9;
  s.protocol_errors = 10;
  s.plan_cache = {11, 12, 13, 14, 15, 16, 17, 18, 1234567};
  EXPECT_EQ(obs::to_json(s),
            "{\"received\":1,\"admitted\":2,\"rejected\":3,\"shed\":4,\"completed\":5,"
            "\"queue_depth_high_water\":6,\"queries\":7,\"query_errors\":8,\"solves\":9,"
            "\"protocol_errors\":10,\"plan_cache\":{\"lookups\":11,\"hits\":12,\"misses\":13,"
            "\"insertions\":14,\"evictions\":15,\"collisions\":16,\"failed_solves\":17,"
            "\"entries\":18,\"bytes_cached\":1234567}}");
}

TEST(JsonWriters, JobsReportsParseWithNonFiniteValuesAsNull) {
  const platform::StarPlatform p = odd_platform();
  jobs::JobsOptions options;
  options.stream = jobs::JobStreamSpec::poisson(0.05, 12, 37.3);
  options.stream.size_dist = jobs::SizeDistribution::kUniform;
  options.stream.size_spread = 0.4;
  const jobs::ServiceResult result = jobs::run_jobs(p, options);
  const JsonValue doc = JsonValue::parse(report::jobs_summary_json(result));
  expect_bits(doc.at("horizon").as_number(), result.horizon, "horizon");
  expect_bits(doc.at("utilization").as_number(), result.utilization, "utilization");
  expect_bits(doc.at("mean_slowdown").as_number(), result.mean_slowdown(), "mean_slowdown");
  expect_bits(doc.at("stats").at("response_times").at("sum").as_number(),
              result.stats.response_times.sum(), "response_times.sum");
  EXPECT_EQ(doc.at("completed").as_number(), static_cast<double>(result.completed));

  jobs::ServiceResult broken = result;
  broken.horizon = kNaN;
  broken.stats.slowdowns.add(kInf);
  const JsonValue nulls = JsonValue::parse(report::jobs_summary_json(broken));
  EXPECT_EQ(nulls.at("horizon").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(nulls.at("mean_slowdown").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(nulls.at("stats").at("slowdowns").at("max").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(JsonValue::parse(obs::to_json(broken.stats)).at("slowdowns").at("sum").kind(),
            JsonValue::Kind::kNull);
}

TEST(JsonWriters, SweepMetricsEscapeNamesAndParseBack) {
  std::vector<sweep::SweepCell> cells(2);
  cells[0].error = 0.1;
  cells[1].error = kNaN;
  for (sweep::SweepCell& swept : cells) {
    swept.platform_label = sweep::PlatformConfig{}.label();
    swept.algorithm = kAwkwardName;
  }
  sweep::CellStats& cell = cells[0].stats;
  for (const double makespan : {100.0 / 3.0, 200.0 / 7.0, 0.1 + 0.2}) {
    cell.makespan.add(makespan);
    ++cell.reps;
  }
  const std::string text = report::sweep_metrics_json(cells);
  EXPECT_TRUE(seven_bit_clean(text)) << text;
  EXPECT_EQ(text.find('\t'), std::string::npos);
  const JsonValue doc = JsonValue::parse(text);
  const auto& rows = doc.as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].at("algorithm").as_string(), kAwkwardName);
  expect_bits(rows[0].at("error").as_number(), 0.1, "error");
  expect_bits(rows[0].at("makespan_mean").as_number(), cell.makespan.mean(), "makespan_mean");
  expect_bits(rows[0].at("makespan_stddev").as_number(), cell.makespan.stddev(),
              "makespan_stddev");
  EXPECT_EQ(rows[0].at("reps").as_number(), 3.0);
  EXPECT_EQ(rows[1].at("error").kind(), JsonValue::Kind::kNull);
}

TEST(JsonWriters, LintFindingsEscapeNamesAndParseBack) {
  const std::vector<lint::Finding> findings = {
      {kAwkwardName, "src/" + kAwkwardName + ".cpp", 42, "message with " + kAwkwardName}};
  std::ostringstream out;
  lint::print_json(findings, 7, out);
  EXPECT_TRUE(seven_bit_clean(out.str())) << out.str();
  const JsonValue doc = JsonValue::parse(out.str());
  EXPECT_EQ(doc.at("files_scanned").as_number(), 7.0);
  EXPECT_EQ(doc.at("finding_count").as_number(), 1.0);
  const JsonValue& finding = doc.at("findings").as_array().at(0);
  EXPECT_EQ(finding.at("rule").as_string(), kAwkwardName);
  EXPECT_EQ(finding.at("file").as_string(), "src/" + kAwkwardName + ".cpp");
  EXPECT_EQ(finding.at("line").as_number(), 42.0);
  EXPECT_EQ(finding.at("message").as_string(), "message with " + kAwkwardName);
}

TEST(JsonWriters, GoldenFixturesRoundTripBitForBitOneCasePerLine) {
  sweep::golden::GoldenScenario scenario;
  scenario.name = kAwkwardName;
  scenario.w_total = 1000.0;
  scenario.error = 0.1 + 0.2;
  scenario.seed = 11;
  scenario.cases = {{"UMR", 134.88428544543922, 1e-300, 72.731919306514413, 147, 447, 7},
                    {"RUMR", 1.0 / 3.0, 1026.1551463678927, 5e6, 179, 536, 0}};
  const std::string text = sweep::golden::to_json(scenario);
  EXPECT_TRUE(seven_bit_clean(text)) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 11);  // 9 frame lines + 2 cases.
  const sweep::golden::GoldenScenario back = sweep::golden::from_json(text);
  EXPECT_EQ(back.name, kAwkwardName);
  expect_bits(back.error, scenario.error, "error");
  ASSERT_EQ(back.cases.size(), scenario.cases.size());
  for (std::size_t i = 0; i < back.cases.size(); ++i) {
    EXPECT_EQ(back.cases[i].algorithm, scenario.cases[i].algorithm);
    expect_bits(back.cases[i].makespan, scenario.cases[i].makespan, "makespan");
    expect_bits(back.cases[i].work_dispatched, scenario.cases[i].work_dispatched,
                "work_dispatched");
    expect_bits(back.cases[i].uplink_busy_time, scenario.cases[i].uplink_busy_time,
                "uplink_busy_time");
    EXPECT_EQ(back.cases[i].events, scenario.cases[i].events);
  }
}

}  // namespace
}  // namespace rumr
