// Tests for the configuration substrate (config/): the INI parser and the
// run-description bridge used by rumr_cli.

#include <gtest/gtest.h>

#include "config/config_file.hpp"
#include "config/policies.hpp"
#include "config/run_description.hpp"
#include "sim/master_worker.hpp"

namespace rumr::config {
namespace {

// --- parser -----------------------------------------------------------------

TEST(ConfigParser, TrimsWhitespace) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(ConfigParser, ParsesSectionsAndKeys) {
  const ConfigFile file = ConfigFile::parse(
      "global = 1\n"
      "[alpha]\n"
      "x = 10\n"
      "name = hello world\n"
      "[beta]\n"
      "x = 20\n");
  EXPECT_EQ(file.get_string("", "global"), "1");
  EXPECT_EQ(file.get_double("alpha", "x", 0.0), 10.0);
  EXPECT_EQ(file.get_string("alpha", "name"), "hello world");
  EXPECT_EQ(file.get_double("beta", "x", 0.0), 20.0);
  EXPECT_TRUE(file.has_section("alpha"));
  EXPECT_FALSE(file.has_section("gamma"));
}

TEST(ConfigParser, CommentsAndBlankLines) {
  const ConfigFile file = ConfigFile::parse(
      "# full-line comment\n"
      "\n"
      "[s]\n"
      "a = 1   # trailing comment\n"
      "b = 2   ; semicolon comment\n");
  EXPECT_EQ(file.get_double("s", "a", 0.0), 1.0);
  EXPECT_EQ(file.get_double("s", "b", 0.0), 2.0);
}

TEST(ConfigParser, LastDuplicateKeyWins) {
  const ConfigFile file = ConfigFile::parse("[s]\na = 1\na = 2\n");
  EXPECT_EQ(file.get_double("s", "a", 0.0), 2.0);
  EXPECT_EQ(file.keys("s").size(), 1u);
}

TEST(ConfigParser, ReportsLineNumbersOnErrors) {
  try {
    (void)ConfigFile::parse("[ok]\nvalid = 1\nbroken line\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos);
  }
}

TEST(ConfigParser, RejectsMalformedSections) {
  EXPECT_THROW((void)ConfigFile::parse("[unterminated\n"), ConfigError);
  EXPECT_THROW((void)ConfigFile::parse("[]\n"), ConfigError);
  EXPECT_THROW((void)ConfigFile::parse("= value\n"), ConfigError);
}

TEST(ConfigParser, TypedLookups) {
  const ConfigFile file = ConfigFile::parse(
      "[s]\nf = 2.5\nn = 7\nflag_on = yes\nflag_off = 0\nbad = xyz\n");
  EXPECT_EQ(file.get_double("s", "f", 0.0), 2.5);
  EXPECT_EQ(file.get_size("s", "n", 0), 7u);
  EXPECT_TRUE(file.get_bool("s", "flag_on", false));
  EXPECT_FALSE(file.get_bool("s", "flag_off", true));
  EXPECT_EQ(file.get_double("s", "missing", 9.0), 9.0);
  EXPECT_THROW((void)file.get_double("s", "bad", 0.0), ConfigError);
  EXPECT_THROW((void)file.get_bool("s", "bad", false), ConfigError);
  EXPECT_THROW((void)file.require_double("s", "missing"), ConfigError);
}

TEST(ConfigParser, LoadRejectsMissingFile) {
  EXPECT_THROW((void)ConfigFile::load("/nonexistent/rumr.conf"), ConfigError);
}

// --- run descriptions --------------------------------------------------------

constexpr const char* kSample = R"(
[platform]
workers = 4
speed = 1.0
bandwidth = 8.0
comp_latency = 0.2
comm_latency = 0.1

[worker 2]
speed = 3.0

[workload]
total = 400

[schedule]
algorithm = RUMR
error = 0.3

[simulation]
error = 0.3
seed = 11
repetitions = 3
)";

TEST(RunDescription, BuildsPlatformWithOverrides) {
  const platform::StarPlatform p = platform_from_config(ConfigFile::parse(kSample));
  ASSERT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.worker(0).speed, 1.0);
  EXPECT_DOUBLE_EQ(p.worker(2).speed, 3.0);
  EXPECT_DOUBLE_EQ(p.worker(2).bandwidth, 8.0);  // Inherited default.
  EXPECT_FALSE(p.is_homogeneous());
}

TEST(RunDescription, InfersWorkerCountFromSections) {
  const ConfigFile file = ConfigFile::parse(
      "[platform]\nbandwidth = 4\n[worker 0]\nspeed = 1\n[worker 5]\nspeed = 2\n"
      "[workload]\ntotal = 10\n");
  const platform::StarPlatform p = platform_from_config(file);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_DOUBLE_EQ(p.worker(5).speed, 2.0);
}

TEST(RunDescription, ParsesScheduleAndSimulation) {
  const RunDescription run = run_from_config(ConfigFile::parse(kSample));
  EXPECT_DOUBLE_EQ(run.w_total, 400.0);
  EXPECT_EQ(run.algorithm, "rumr");  // Lower-cased.
  EXPECT_DOUBLE_EQ(run.known_error, 0.3);
  EXPECT_EQ(run.sim_options.seed, 11u);
  EXPECT_EQ(run.repetitions, 3u);
}

TEST(RunDescription, ParsesLinkFaultRetransmitAndCheckpointSections) {
  const std::string text = std::string(kSample) + R"(
[faults.link]
loss = 0.05
spike_probability = 0.2
spike_mean = 1.5
degraded_mtbf = 30
degraded_mttr = 5
degraded_factor = 4

[retransmit]
enabled = true
k = 6
rto_min = 0.01
max_retries = 12

[checkpoint]
interval = 0.5
)";
  const RunDescription run = run_from_config(ConfigFile::parse(text));
  const sim::SimOptions& o = run.sim_options;
  EXPECT_DOUBLE_EQ(o.link.loss, 0.05);
  EXPECT_DOUBLE_EQ(o.link.spike_probability, 0.2);
  EXPECT_DOUBLE_EQ(o.link.spike_mean, 1.5);
  EXPECT_DOUBLE_EQ(o.link.degraded_mtbf, 30.0);
  EXPECT_DOUBLE_EQ(o.link.degraded_mttr, 5.0);
  EXPECT_DOUBLE_EQ(o.link.degraded_factor, 4.0);
  EXPECT_TRUE(o.link.enabled());
  EXPECT_TRUE(o.retransmit.enabled);
  EXPECT_DOUBLE_EQ(o.retransmit.alpha, 0.125);  // Untouched default.
  EXPECT_DOUBLE_EQ(o.retransmit.k, 6.0);
  EXPECT_DOUBLE_EQ(o.retransmit.rto_min, 0.01);
  EXPECT_EQ(o.retransmit.max_retries, 12u);
  EXPECT_DOUBLE_EQ(o.checkpoint.interval, 0.5);
}

TEST(RunDescription, LinkSectionsDefaultToInert) {
  const RunDescription run = run_from_config(ConfigFile::parse(kSample));
  EXPECT_FALSE(run.sim_options.link.enabled());
  EXPECT_FALSE(run.sim_options.retransmit.enabled);
  EXPECT_DOUBLE_EQ(run.sim_options.checkpoint.interval, 0.0);
}

TEST(RunDescription, RejectsMissingPieces) {
  EXPECT_THROW((void)run_from_config(ConfigFile::parse("[workload]\ntotal = 5\n")), ConfigError);
  EXPECT_THROW(
      (void)run_from_config(ConfigFile::parse("[platform]\nworkers = 2\nbandwidth = 4\n")),
      ConfigError);
  EXPECT_THROW((void)run_from_config(ConfigFile::parse(
                   "[platform]\nworkers = 2\nbandwidth = 4\n[workload]\ntotal = -5\n")),
               ConfigError);
}

TEST(RunDescription, RejectsBadDistribution) {
  const std::string text = std::string(kSample) + "[simulation]\ndistribution = weird\n";
  EXPECT_THROW((void)run_from_config(ConfigFile::parse(text)), ConfigError);
}

/// The described run's policy, built by name through the registry.
std::unique_ptr<sim::SchedulerPolicy> policy_for(const RunDescription& run) {
  return make_policy(run.algorithm, run.platform, run.w_total, run.known_error);
}

TEST(RunDescription, EveryAlgorithmNameInstantiatesAndRuns) {
  for (const char* name : {"rumr", "rumr-adaptive", "umr", "umr-eager", "mi-1", "mi-3",
                           "factoring", "wf", "gss", "tss", "fsc"}) {
    RunDescription run = run_from_config(ConfigFile::parse(kSample));
    run.algorithm = name;
    const auto policy = policy_for(run);
    ASSERT_NE(policy, nullptr) << name;
    const sim::SimResult r = simulate(run.platform, *policy, run.sim_options);
    EXPECT_NEAR(r.work_dispatched, 400.0, 1e-6) << name;
  }
}

TEST(RunDescription, RejectsUnknownAlgorithm) {
  RunDescription run = run_from_config(ConfigFile::parse(kSample));
  run.algorithm = "quantum-annealing";
  EXPECT_THROW((void)policy_for(run), ConfigError);
  run.algorithm = "mi-0";
  EXPECT_THROW((void)policy_for(run), ConfigError);
}

}  // namespace
}  // namespace rumr::config
