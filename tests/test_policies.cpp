// Tests for the policy registry (config/policies.hpp): the one table of
// algorithm names. Every front door that takes a name — config::make_policy,
// jobs options, the Sweep and Race facades — resolves it through the table,
// so they agree on what is valid, and a by-name line-up runs exactly as the
// matching spec line-up does.

#include "config/policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <ios>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/rumr.hpp"

namespace rumr::config {
namespace {

/// Everything a run reports that its policy decides, in exact (hex) form.
std::string run_fingerprint(const platform::StarPlatform& p, sim::SchedulerPolicy& policy,
                            double error, std::uint64_t seed) {
  sim::SimOptions options = sim::SimOptions::with_error(error, seed);
  options.record_trace = true;
  const sim::SimResult r = sim::simulate(p, policy, options);
  std::ostringstream out;
  out << std::hexfloat << r.makespan << " events=" << r.events << '\n';
  for (const sim::WorkerOutcome& w : r.workers) {
    out << w.work << ' ' << w.chunks << ' ' << w.busy_time << ' ' << w.first_start << ' '
        << w.last_end << '\n';
  }
  for (const sim::TraceSpan& span : r.trace.spans()) {
    out << static_cast<int>(span.kind) << ' ' << span.worker << ' ' << span.chunk << ' '
        << span.start << ' ' << span.end << '\n';
  }
  return out.str();
}

platform::StarPlatform small_platform() {
  return platform::StarPlatform::homogeneous({.workers = 6,
                                              .speed = 1.0,
                                              .bandwidth = 9.0,
                                              .comp_latency = 0.2,
                                              .comm_latency = 0.05,
                                              .transfer_latency = 0.01});
}

TEST(PolicyRegistry, MakePolicyEqualsAPreparedInstanceBitForBit) {
  const platform::StarPlatform p = small_platform();
  for (const std::string& name : policy_names()) {
    const auto made = make_policy(name, p, 300.0, 0.3);
    const auto instance = policy_spec(name).prepare(p, 300.0, 0.3)();
    EXPECT_EQ(run_fingerprint(p, *made, 0.3, 17), run_fingerprint(p, *instance, 0.3, 17))
        << name;
  }
}

TEST(PolicyRegistry, DisplayNamesAreUniqueAndMatchTheGoldenLabels) {
  const platform::StarPlatform p = small_platform();
  std::set<std::string> seen;
  for (const std::string& name : policy_names()) {
    const AlgorithmSpec spec = policy_spec(name);
    EXPECT_TRUE(seen.insert(spec.name).second) << "duplicate display name " << spec.name;
    // A config name is its display name in lower case, and the label a run
    // reports is the display name.
    std::string lower = spec.name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    EXPECT_EQ(lower, name);
    EXPECT_EQ(spec.make(p, 300.0, 0.2)->name(), spec.name) << name;
  }
  // The labels the golden fixtures (tests/golden/*.json) record.
  for (const char* label : {"UMR", "RUMR", "Factoring", "MI-2", "WF", "RUMR-50", "FSC"}) {
    EXPECT_EQ(seen.count(label), 1u) << label;
  }
}

TEST(PolicyRegistry, FamiliesRunAcrossTheirWholeRange) {
  const platform::StarPlatform p = small_platform();
  for (const char* name : {"rumr-0", "rumr-1", "rumr-100", "mi-5"}) {
    const auto policy = make_policy(name, p, 300.0, 0.2);
    const sim::SimResult r = sim::simulate(p, *policy, sim::SimOptions::with_error(0.2, 3));
    EXPECT_NEAR(r.work_dispatched, 300.0, 1e-6) << name;
  }
  // mi-1024 parses (one worker could run it) but six workers need 6144
  // unknowns, past the solver's bound: a named error, not a solve. So is
  // mi-171 (1026 unknowns).
  EXPECT_TRUE(policy_name_problem("mi-1024").empty());
  EXPECT_THROW((void)make_policy("mi-1024", p, 300.0, 0.2), std::invalid_argument);
  EXPECT_THROW((void)make_policy("mi-171", p, 300.0, 0.2), std::invalid_argument);
}

/// True when some problem string mentions `needle`.
bool mentions(const std::vector<std::string>& problems, const std::string& needle) {
  return std::any_of(problems.begin(), problems.end(), [&](const std::string& p) {
    return p.find(needle) != std::string::npos;
  });
}

TEST(PolicyRegistry, EveryFrontDoorRejectsTheSameBadNames) {
  const platform::StarPlatform p = small_platform();
  const std::vector<std::string> bad = {"mi-2abc", "mi-", "mi-0", "mi-02", "mi-+2", "mi- 2",
                                        "mi--1", "mi-1025", "mi-9223372036854775809",
                                        "mi-18446744073709551616", "rumr-101", "rumr-",
                                        "rumr-5x", "RUMR", "umr-", "quantum-annealing", ""};
  for (const std::string& name : bad) {
    const std::string problem = policy_name_problem(name);
    EXPECT_FALSE(problem.empty()) << name;
    EXPECT_THROW((void)make_policy(name, p, 100.0, 0.0), ConfigError) << name;
    EXPECT_THROW((void)policy_spec(name), ConfigError) << name;

    jobs::JobsOptions options;
    options.algorithm = name;
    EXPECT_TRUE(mentions(options.validate(p.size()), problem)) << name;

    rumr::Sweep sweep;
    sweep.platform(p, "p").policies(std::vector<std::string>{"rumr", name});
    EXPECT_TRUE(mentions(sweep.validate(), problem)) << name;

    rumr::Race race;
    race.policies(std::vector<std::string>{"rumr", name});
    EXPECT_TRUE(mentions(race.validate(), problem)) << name;
  }
  // A name that resolves but whose N*x exceeds the solver's bound on the
  // given platform: each front door that knows the platform names its size
  // before any run starts (mi-171 on 6 workers is 1026 unknowns).
  const std::string size_problem = policy_size_problem("mi-171", p.size());
  EXPECT_NE(size_problem.find("6 workers"), std::string::npos) << size_problem;
  EXPECT_TRUE(policy_size_problem("mi-170", p.size()).empty());
  const std::vector<std::pair<std::string, std::vector<std::string>>> too_large = {
      {"jobs", [&] {
         jobs::JobsOptions options;
         options.algorithm = "mi-171";
         return options.validate(p.size());
       }()},
      {"Sweep", rumr::Sweep().platform(p, "p").policies(std::vector<std::string>{"rumr", "mi-171"})
                    .validate()},
      {"Race", rumr::Race().platform(p, "p").policies(std::vector<std::string>{"rumr", "mi-171"})
                   .validate()},
      {"open-system Sweep", [&] {
         jobs::JobsOptions options;
         options.algorithm = "mi-171";
         return rumr::Sweep().platform(p, "p").jobs(options).loads({0.5}).validate();
       }()},
  };
  for (const auto& [front_door, problems] : too_large) {
    EXPECT_TRUE(mentions(problems, size_problem)) << front_door;
  }
  // And every registry name passes all four.
  for (const std::string& name : policy_names()) {
    EXPECT_TRUE(policy_name_problem(name).empty()) << name;
    jobs::JobsOptions options;
    options.algorithm = name;
    EXPECT_TRUE(options.validate(p.size()).empty()) << name;
    rumr::Sweep sweep;
    sweep.platform(p, "p").policies(std::vector<std::string>{name});
    EXPECT_TRUE(sweep.validate().empty()) << name;
    rumr::Race race;
    race.policies(std::vector<std::string>{name, "umr"});
    EXPECT_TRUE(race.validate().empty()) << name;
  }
}

TEST(PolicyRegistry, ByNameSweepMatchesTheSpecLineUpCellForCell) {
  const auto run = [](auto lineup) {
    return rumr::Sweep()
        .platforms(std::vector<sweep::PlatformConfig>{{10, 1.5, 0.1, 0.05}, {4, 2.0, 0.3, 0.1}})
        .errors({0.0, 0.3})
        .policies(lineup)
        .workload(200.0)
        .reps(4)
        .seed(11)
        .threads(2)
        .execute();
  };
  const std::vector<sweep::SweepCell> by_name =
      run(std::vector<std::string>{"rumr", "umr", "mi-2", "factoring"});
  const std::vector<sweep::SweepCell> by_spec = run(std::vector<sweep::AlgorithmSpec>{
      sweep::rumr_spec(), sweep::umr_spec(), sweep::mi_spec(2), sweep::factoring_spec()});
  ASSERT_EQ(by_name.size(), by_spec.size());
  for (std::size_t i = 0; i < by_spec.size(); ++i) {
    const sweep::SweepCell& a = by_name[i];
    const sweep::SweepCell& b = by_spec[i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.platform_label, b.platform_label);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.stats.reps, b.stats.reps);
    EXPECT_EQ(a.stats.makespan.mean(), b.stats.makespan.mean()) << a.algorithm;
    EXPECT_EQ(a.stats.makespan.variance(), b.stats.makespan.variance()) << a.algorithm;
    EXPECT_EQ(a.stats.ref_wins, b.stats.ref_wins) << a.algorithm;
    EXPECT_EQ(a.stats.ref_wins_by_10pct, b.stats.ref_wins_by_10pct) << a.algorithm;
    EXPECT_EQ(a.stats.events.mean(), b.stats.events.mean()) << a.algorithm;
    EXPECT_EQ(a.stats.uplink_utilization.mean(), b.stats.uplink_utilization.mean());
  }
  EXPECT_EQ(by_name.front().algorithm, "RUMR");
}

TEST(PolicyRegistry, ByNameRaceMatchesTheSpecLineUpLedgerForLedger) {
  const auto run = [](auto lineup) {
    return rumr::Race()
        .platform(sweep::PlatformConfig{6, 1.5, 0.1, 0.05})
        .error(0.3)
        .policies(lineup)
        .workload(200.0)
        .block(8)
        .budget(64)
        .seed(5)
        .threads(2)
        .execute();
  };
  const race::RaceResult by_name =
      run(std::vector<std::string>{"rumr", "umr", "mi-2", "factoring"});
  const race::RaceResult by_spec = run(std::vector<sweep::AlgorithmSpec>{
      sweep::rumr_spec(), sweep::umr_spec(), sweep::mi_spec(2), sweep::factoring_spec()});
  EXPECT_EQ(by_name.winner, by_spec.winner);
  EXPECT_EQ(by_name.rounds, by_spec.rounds);
  EXPECT_EQ(by_name.total_samples, by_spec.total_samples);
  EXPECT_EQ(by_name.eliminations.size(), by_spec.eliminations.size());
  ASSERT_EQ(by_name.arms.size(), by_spec.arms.size());
  for (std::size_t a = 0; a < by_spec.arms.size(); ++a) {
    EXPECT_EQ(by_name.arms[a].name, by_spec.arms[a].name);
    EXPECT_EQ(by_name.arms[a].samples, by_spec.arms[a].samples);
    EXPECT_EQ(by_name.arms[a].eliminated_round, by_spec.arms[a].eliminated_round);
    EXPECT_EQ(by_name.arms[a].lane_fingerprint, by_spec.arms[a].lane_fingerprint);
  }
}

}  // namespace
}  // namespace rumr::config
