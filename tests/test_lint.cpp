// Tests for the self-hosted determinism lint (src/lint).
//
// Every rule gets a known-bad fixture it must fire on and a known-good twin
// it must stay silent on; the suppression machinery is proven in both
// directions (honored when real, flagged when stale/unknown/reasonless); and
// the end-to-end driver is run against a scratch tree with a deliberately
// planted violation to prove the CI gate exits nonzero.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/engine.hpp"
#include "lint/lexer.hpp"
#include "lint/report.hpp"
#include "lint/rule.hpp"
#include "util/json_lite.hpp"

namespace fs = std::filesystem;
using rumr::lint::Engine;
using rumr::lint::Finding;
using rumr::lint::Options;
using rumr::lint::SourceFile;

namespace {

std::vector<Finding> lint_snippet(const std::string& rel_path, const std::string& code) {
  const Engine engine;
  return engine.lint_file(SourceFile::from_string(rel_path, code));
}

bool fires(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

}  // namespace

// --------------------------------------------------------------------------
// Lexer: the places rule keywords must NOT be seen.
// --------------------------------------------------------------------------

TEST(LintLexer, CommentsStringsAndRawStringsHideTokens) {
  const std::string code =
      "// steady_clock in a line comment\n"
      "/* rand() in a block comment */\n"
      "const char* a = \"std::random_device inside a string\";\n"
      "const char* b = R\"(srand(42) inside a raw string)\";\n"
      "const char* c = R\"xy(steady_clock with )\" decoy )xy\";\n";
  EXPECT_TRUE(lint_snippet("src/lexer_fixture.cpp", code).empty());
}

TEST(LintLexer, TokenKindsAndLines) {
  const auto lexed = rumr::lint::lex("int x = 1'000;\nauto y = 0x1p-3 == z;\n");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens.front().text, "int");
  EXPECT_EQ(lexed.tokens.front().line, 1);
  bool saw_sep = false;
  bool saw_hexfloat = false;
  for (const auto& t : lexed.tokens) {
    if (t.text == "1'000") saw_sep = true;
    if (t.text == "0x1p-3") saw_hexfloat = true;
  }
  EXPECT_TRUE(saw_sep);
  EXPECT_TRUE(saw_hexfloat);
}

TEST(LintLexer, TrailingVsStandaloneComments) {
  const auto lexed = rumr::lint::lex("int x;  // trailing\n// standalone\nint y;\n");
  ASSERT_EQ(lexed.comments.size(), 2U);
  EXPECT_TRUE(lexed.comments[0].trailing);
  EXPECT_FALSE(lexed.comments[1].trailing);
}

// --------------------------------------------------------------------------
// Rule 1: unordered-container
// --------------------------------------------------------------------------

TEST(LintRules, UnorderedContainerFires) {
  const auto findings =
      lint_snippet("src/sweep/f.cpp", "#include <unordered_map>\nstd::unordered_map<int, int> m;\n");
  EXPECT_TRUE(fires(findings, "unordered-container"));
}

TEST(LintRules, UnorderedContainerGoodTwinSilent) {
  EXPECT_TRUE(lint_snippet("src/sweep/f.cpp", "std::map<int, int> m;\n").empty());
}

TEST(LintRules, UnorderedContainerOnlyAppliesToSrc) {
  EXPECT_TRUE(
      lint_snippet("bench/f.cpp", "std::unordered_map<int, int> m;\n").empty());
}

// --------------------------------------------------------------------------
// Rule 2: ambient-randomness
// --------------------------------------------------------------------------

TEST(LintRules, AmbientRandomnessFires) {
  EXPECT_TRUE(fires(lint_snippet("src/core/f.cpp", "std::random_device rd;\n"),
                    "ambient-randomness"));
  EXPECT_TRUE(
      fires(lint_snippet("src/core/f.cpp", "int x = rand();\n"), "ambient-randomness"));
  EXPECT_TRUE(
      fires(lint_snippet("tools/t.cpp", "srand(42);\n"), "ambient-randomness"));
  EXPECT_TRUE(
      fires(lint_snippet("src/core/f.cpp", "double d = drand48();\n"), "ambient-randomness"));
}

TEST(LintRules, AmbientRandomnessGoodTwinSilent) {
  // Seeded lanes, member calls, and identifiers merely containing 'rand'.
  const std::string good =
      "rumr::stats::Rng rng(seed);\n"
      "double d = rng.uniform01();\n"
      "int r = obj.rand();\n"
      "int operand = strand(3);\n";
  EXPECT_TRUE(lint_snippet("src/core/f.cpp", good).empty());
}

TEST(LintRules, RngFactoryIsExempt) {
  EXPECT_TRUE(lint_snippet("src/stats/rng.cpp", "std::random_device rd;\n").empty());
}

// --------------------------------------------------------------------------
// Rule 3: wall-clock
// --------------------------------------------------------------------------

TEST(LintRules, WallClockFires) {
  EXPECT_TRUE(fires(
      lint_snippet("src/sim/f.cpp", "auto t0 = std::chrono::steady_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(fires(
      lint_snippet("tools/t.cpp", "auto t = std::chrono::system_clock::now();\n"),
      "wall-clock"));
  EXPECT_TRUE(fires(lint_snippet("src/sim/f.cpp", "time_t t = time(nullptr);\n"),
                    "wall-clock"));
}

TEST(LintRules, WallClockGoodTwinSilent) {
  // Simulated time and member fields named 'time' are fine.
  const std::string good =
      "des::SimTime now = sim.now();\n"
      "double when = span.time;\n"
      "schedule(event.time(), cb);\n";  // member call: preceded by '.'
  EXPECT_TRUE(lint_snippet("src/sim/f.cpp", good).empty());
}

TEST(LintRules, WallClockDoesNotApplyToBench) {
  EXPECT_TRUE(
      lint_snippet("bench/b.cpp", "auto t0 = std::chrono::steady_clock::now();\n").empty());
}

// --------------------------------------------------------------------------
// Rule 4: pointer-keyed-container
// --------------------------------------------------------------------------

TEST(LintRules, PointerKeyedContainerFires) {
  EXPECT_TRUE(fires(lint_snippet("src/jobs/f.cpp", "std::map<Worker*, int> owners;\n"),
                    "pointer-keyed-container"));
  EXPECT_TRUE(fires(lint_snippet("src/jobs/f.cpp", "std::set<const Node *> live;\n"),
                    "pointer-keyed-container"));
  EXPECT_TRUE(fires(
      lint_snippet("src/jobs/f.cpp", "std::sort(v.begin(), v.end(), std::less<Job*>{});\n"),
      "pointer-keyed-container"));
}

TEST(LintRules, PointerKeyedContainerGoodTwinSilent) {
  const std::string good =
      "std::map<std::string, int> by_name;\n"
      "std::map<int, Worker*> by_id;\n"  // pointer VALUES are fine
      "std::set<std::pair<int, int>> keys;\n"
      "std::less<> cmp;\n";
  EXPECT_TRUE(lint_snippet("src/jobs/f.cpp", good).empty());
}

// --------------------------------------------------------------------------
// Rule 5: mutable-static
// --------------------------------------------------------------------------

TEST(LintRules, MutableStaticFires) {
  EXPECT_TRUE(fires(lint_snippet("src/core/f.cpp", "static int counter = 0;\n"),
                    "mutable-static"));
  EXPECT_TRUE(fires(lint_snippet("src/core/f.cpp", "static std::vector<int> cache;\n"),
                    "mutable-static"));
  EXPECT_TRUE(fires(
      lint_snippet("src/core/f.cpp", "void f() { static bool warned = false; }\n"),
      "mutable-static"));
}

TEST(LintRules, MutableStaticGoodTwinSilent) {
  const std::string good =
      "static constexpr int kLimit = 3;\n"
      "static const std::vector<std::string> kLabels = {\"a\", \"b\"};\n"
      "static double helper(int x) { return x * 2.5; }\n"
      "struct S { static void reset(); };\n";
  EXPECT_TRUE(lint_snippet("src/core/f.cpp", good).empty());
}

TEST(LintRules, MutableStaticOnlyAppliesToSrc) {
  EXPECT_TRUE(lint_snippet("tools/t.cpp", "static int counter = 0;\n").empty());
}

// --------------------------------------------------------------------------
// Rule 6: float-equality
// --------------------------------------------------------------------------

TEST(LintRules, FloatEqualityFires) {
  EXPECT_TRUE(
      fires(lint_snippet("src/sim/f.cpp", "if (a == 1.0) { go(); }\n"), "float-equality"));
  EXPECT_TRUE(
      fires(lint_snippet("src/jobs/f.cpp", "bool b = 0.5 != load;\n"), "float-equality"));
  EXPECT_TRUE(
      fires(lint_snippet("src/core/f.cpp", "if (eps == 1e-9) { go(); }\n"), "float-equality"));
}

TEST(LintRules, FloatEqualityGoodTwinSilent) {
  const std::string good =
      "if (n == 1) { go(); }\n"                        // integer literal
      "if (std::abs(a - b) < 1e-9) { go(); }\n"        // tolerance compare
      "bool same = (count != 100);\n";
  EXPECT_TRUE(lint_snippet("src/sim/f.cpp", good).empty());
}

TEST(LintRules, FloatEqualityScopedToSimJobsAndPolicyCode) {
  // stats/ owns the one legitimate exact comparison (polar-method rejection).
  EXPECT_TRUE(lint_snippet("src/stats/f.cpp", "if (s == 0.0) { retry(); }\n").empty());
}

// --------------------------------------------------------------------------
// Rule 7: pragma-once
// --------------------------------------------------------------------------

TEST(LintRules, PragmaOnceMissingFires) {
  EXPECT_TRUE(fires(lint_snippet("src/core/f.hpp", "int f();\n"), "pragma-once"));
  // Classic include guards are not #pragma once — mixed styles are flagged.
  EXPECT_TRUE(fires(
      lint_snippet("src/core/g.hpp", "#ifndef G_HPP\n#define G_HPP\n#endif\n"), "pragma-once"));
}

TEST(LintRules, PragmaOnceGoodTwinSilent) {
  // Leading comments are fine; the pragma just has to be the first *token*.
  EXPECT_TRUE(
      lint_snippet("src/core/f.hpp", "// \\file f.hpp\n#pragma once\nint f();\n").empty());
}

TEST(LintRules, PragmaOnceDoesNotApplyToTranslationUnits) {
  EXPECT_TRUE(lint_snippet("src/core/f.cpp", "int f() { return 1; }\n").empty());
}

// --------------------------------------------------------------------------
// Rule 8: suppression-hygiene + suppression semantics
// --------------------------------------------------------------------------

TEST(LintSuppressions, TrailingSuppressionIsHonored) {
  const std::string code =
      "auto t0 = std::chrono::steady_clock::now();  "
      "// rumr-lint: allow(wall-clock) events/sec metric only\n";
  EXPECT_TRUE(lint_snippet("src/sim/f.cpp", code).empty());
}

TEST(LintSuppressions, StandaloneSuppressionCoversNextLine) {
  const std::string code =
      "// rumr-lint: allow(wall-clock) events/sec metric only\n"
      "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_snippet("src/sim/f.cpp", code).empty());
}

TEST(LintSuppressions, SuppressionOnlyCoversItsRule) {
  // A wall-clock allow does not excuse an ambient-randomness finding.
  const std::string code =
      "// rumr-lint: allow(wall-clock) wrong rule\n"
      "std::random_device rd;\n";
  const auto findings = lint_snippet("src/sim/f.cpp", code);
  EXPECT_TRUE(fires(findings, "ambient-randomness"));
  EXPECT_TRUE(fires(findings, "suppression-hygiene"));  // and it is stale
}

TEST(LintSuppressions, StaleSuppressionDetected) {
  const std::string code =
      "// rumr-lint: allow(wall-clock) this line is perfectly clean\n"
      "int x = 3;\n";
  const auto findings = lint_snippet("src/sim/f.cpp", code);
  ASSERT_EQ(findings.size(), 1U);
  EXPECT_EQ(findings[0].rule, "suppression-hygiene");
  EXPECT_NE(findings[0].message.find("stale"), std::string::npos);
}

TEST(LintSuppressions, UnknownRuleNameDetected) {
  const auto findings = lint_snippet(
      "src/sim/f.cpp", "// rumr-lint: allow(no-such-rule) because reasons\nint x;\n");
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "suppression-hygiene");
  EXPECT_NE(findings[0].message.find("unknown rule"), std::string::npos);
}

TEST(LintSuppressions, MissingReasonDetected) {
  const std::string code =
      "auto t0 = std::chrono::steady_clock::now();  // rumr-lint: allow(wall-clock)\n";
  const auto findings = lint_snippet("src/sim/f.cpp", code);
  // The finding is suppressed, but the reasonless comment is its own error.
  EXPECT_FALSE(fires(findings, "wall-clock"));
  ASSERT_TRUE(fires(findings, "suppression-hygiene"));
  EXPECT_NE(findings[0].message.find("no reason"), std::string::npos);
}

TEST(LintSuppressions, MalformedCommentDetected) {
  const auto findings =
      lint_snippet("src/sim/f.cpp", "// rumr-lint: disable wall-clock please\nint x;\n");
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0].rule, "suppression-hygiene");
  EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
}

// --------------------------------------------------------------------------
// Engine/driver: catalog, planted violation, baseline, JSON.
// --------------------------------------------------------------------------

TEST(LintEngine, CatalogHasAllEightRules) {
  const Engine engine;
  std::vector<std::string> names;
  for (const auto& rule : engine.rules()) names.emplace_back(rule->name());
  const std::vector<std::string> expected = {
      "unordered-container", "ambient-randomness", "wall-clock", "pointer-keyed-container",
      "mutable-static",      "float-equality",     "pragma-once"};
  EXPECT_EQ(names, expected);
  // Rule 8 is the engine-level hygiene pseudo-rule.
  EXPECT_EQ(rumr::lint::kSuppressionHygieneRule, "suppression-hygiene");
  for (const auto& rule : engine.rules()) {
    EXPECT_FALSE(rule->rationale().empty()) << rule->name() << " lacks a rationale";
  }
}

namespace {

/// RAII scratch repo tree under the system temp dir. The per-test tag keeps
/// concurrently running ctest cases out of each other's trees.
class ScratchTree {
 public:
  ScratchTree()
      : root_(fs::temp_directory_path() /
              (std::string("rumr_lint_scratch_") +
               ::testing::UnitTest::GetInstance()->current_test_info()->name())) {
    fs::remove_all(root_);
    fs::create_directories(root_ / "src");
  }
  ~ScratchTree() { fs::remove_all(root_); }
  ScratchTree(const ScratchTree&) = delete;
  ScratchTree& operator=(const ScratchTree&) = delete;

  void write(const std::string& rel, const std::string& content) const {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
  }
  [[nodiscard]] std::string root() const { return root_.string(); }

 private:
  fs::path root_;
};

}  // namespace

TEST(LintDriver, PlantedViolationInScratchFileExitsNonzero) {
  ScratchTree tree;
  tree.write("src/planted.cpp", "std::unordered_map<int, int> oops;\n");
  tree.write("src/clean.cpp", "int fine() { return 1; }\n");

  Options opts;
  opts.root = tree.root();
  opts.error_exit = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(rumr::lint::run(opts, out, err), 1) << out.str() << err.str();
  EXPECT_NE(out.str().find("planted.cpp"), std::string::npos);
  EXPECT_NE(out.str().find("unordered-container"), std::string::npos);

  // Fixing the violation turns the gate green.
  tree.write("src/planted.cpp", "std::map<int, int> fixed;\n");
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(rumr::lint::run(opts, out2, err2), 0) << out2.str() << err2.str();
}

TEST(LintDriver, WithoutErrorExitFindingsStillReportButExitZero) {
  ScratchTree tree;
  tree.write("src/planted.cpp", "static long hits = 0;\n");
  Options opts;
  opts.root = tree.root();
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(rumr::lint::run(opts, out, err), 0);
  EXPECT_NE(out.str().find("mutable-static"), std::string::npos);
}

TEST(LintDriver, JsonReporterEmitsFindings) {
  ScratchTree tree;
  tree.write("src/planted.cpp", "std::set<Chunk*> frontier;\n");
  Options opts;
  opts.root = tree.root();
  opts.json = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(rumr::lint::run(opts, out, err), 0);
  const rumr::util::JsonValue doc = rumr::util::JsonValue::parse(out.str());
  ASSERT_EQ(doc.at("findings").as_array().size(), 1u);
  EXPECT_EQ(doc.at("findings").as_array()[0].at("rule").as_string(), "pointer-keyed-container");
  EXPECT_EQ(doc.at("finding_count").as_number(), 1.0);
}

TEST(LintDriver, BaselineRoundTripSubtractsLegacyFindings) {
  ScratchTree tree;
  tree.write("src/legacy.cpp", "time_t t = time(nullptr);\n");
  const std::string baseline = tree.root() + "/baseline.txt";

  Options write_opts;
  write_opts.root = tree.root();
  write_opts.write_baseline = baseline;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(rumr::lint::run(write_opts, out, err), 0) << err.str();

  Options gate_opts;
  gate_opts.root = tree.root();
  gate_opts.baseline = baseline;
  gate_opts.error_exit = true;
  std::ostringstream out2;
  std::ostringstream err2;
  EXPECT_EQ(rumr::lint::run(gate_opts, out2, err2), 0) << out2.str();
  EXPECT_NE(out2.str().find("1 baselined"), std::string::npos);
}

TEST(LintDriver, ExplicitFileListSkipsScan) {
  ScratchTree tree;
  tree.write("src/bad.cpp", "std::random_device rd;\n");
  tree.write("src/other_bad.cpp", "std::random_device rd;\n");
  Options opts;
  opts.root = tree.root();
  opts.paths = {"src/bad.cpp"};
  opts.error_exit = true;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(rumr::lint::run(opts, out, err), 1);
  EXPECT_EQ(out.str().find("other_bad.cpp"), std::string::npos);
}
