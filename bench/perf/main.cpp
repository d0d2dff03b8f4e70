// rumr_bench — the repository benchmark.
//
//   rumr_bench --workload W --seed S [--seconds T] [--rounds R] [--trace 0|1]
//              [--out DIR] [--smoke]
//   rumr_bench --all [--seed S] [--seconds T] [--out DIR] [--smoke]
//              [--manifest BENCHMARK.json]
//   rumr_bench --compare A_DIR B_DIR
//
// A single-workload run prints its metrics and, as the last line of
// standard output, one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced (--trace 0, the default) or
// the per-layer metrics from the traced replay (--trace 1). With --out it
// also writes <W>.json (untraced: every round's values with medians and
// quartiles) or <W>.layers.json and <W>.trace.json (traced: the layer table
// and a Chrome trace of the spans). The exit code is nonzero when an
// output check failed.
//
// --all runs every workload untraced and traced, each in its own process so
// peak memory is per workload, and writes the reports to --out (default
// .bench_out); with --manifest it then checks that every metric the
// manifest names was reported and that every layer table adds up.
// --compare prints the medians, quartiles and delta of two --out
// directories against each metric's bound and exits nonzero when one falls
// outside it or an exact count differs.

#include <spawn.h>
#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/rumr.hpp"
#include "bench.hpp"

extern char** environ;

namespace {

using namespace rumr::bench;
using rumr::util::JsonValue;

struct Args {
  std::string workload;
  Config config;
  bool trace = false;
  bool all = false;
  std::string out_dir;
  std::string manifest;
  std::vector<std::string> compare;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "rumr_bench: %s\n"
               "usage: rumr_bench --workload W --seed S [--seconds T] [--rounds R] "
               "[--trace 0|1] [--out DIR] [--smoke]\n"
               "       rumr_bench --all [--seed S] [--seconds T] [--out DIR] [--smoke] "
               "[--manifest BENCHMARK.json]\n"
               "       rumr_bench --compare A_DIR B_DIR\n"
               "workloads:",
               problem);
  for (const std::string& name : workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_number(const std::string& text, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    usage((std::string(flag) + " takes a non-negative number").c_str());
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  const unsigned hw = std::thread::hardware_concurrency();
  args.config.threads = std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((flag + " needs a value").c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      const std::string text = value();
      char* end = nullptr;
      args.config.seed = std::strtoull(text.c_str(), &end, 10);
      if (text.empty() || *end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.config.seconds = parse_number(value(), "--seconds");
    } else if (flag == "--rounds") {
      args.config.rounds = static_cast<std::size_t>(parse_number(value(), "--rounds"));
    } else if (flag == "--trace") {
      // "--trace" alone means traced; "--trace 0|1" spells it out.
      args.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" || std::string(argv[i + 1]) == "1")) {
        args.trace = std::string(argv[++i]) == "1";
      }
    } else if (flag == "--out") {
      args.out_dir = value();
    } else if (flag == "--smoke") {
      args.config.smoke = true;
    } else if (flag == "--all") {
      args.all = true;
    } else if (flag == "--manifest") {
      args.manifest = value();
    } else if (flag == "--compare") {
      args.compare.push_back(value());
      args.compare.push_back(value());
    } else if (flag == "--help" || flag == "-h") {
      usage("help");
    } else {
      usage(("unknown argument " + flag).c_str());
    }
  }
  if (args.config.smoke) args.config.rounds = 1;
  return args;
}

JsonValue result_line(bool correct, std::size_t attempted, std::size_t failed,
                      JsonValue metrics) {
  JsonValue line = JsonValue::object();
  line.set("correct", JsonValue::boolean(correct));
  line.set("attempted", JsonValue::number(static_cast<double>(attempted)));
  line.set("failed", JsonValue::number(static_cast<double>(failed)));
  line.set("metrics", std::move(metrics));
  return line;
}

JsonValue numbers(const std::vector<double>& values) {
  JsonValue array = JsonValue::array();
  for (const double v : values) array.push_back(JsonValue::number(v));
  return array;
}

JsonValue strings(const std::vector<std::string>& values) {
  JsonValue array = JsonValue::array();
  for (const std::string& v : values) array.push_back(JsonValue::string(v));
  return array;
}

void print_problems(const std::string& workload, const std::vector<std::string>& problems) {
  for (const std::string& p : problems) {
    std::printf("%s: CHECK FAILED: %s\n", workload.c_str(), p.c_str());
  }
}

// --- one workload, untraced -------------------------------------------------

int run_end_to_end(const std::string& name, const Config& config, const std::string& out_dir) {
  // Set up several times; the median is the set-up metric and the last
  // set-up is the one measured.
  const int setups = config.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::vector<std::string> problems;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < setups; ++k) {
    if (workload) problems.insert(problems.end(), workload->problems().begin(),
                                  workload->problems().end());
    workload.reset();
    const auto start = Clock::now();
    workload = make_workload(name, config);
    setup_s.push_back(seconds_since(start));
  }

  std::vector<Round> rounds;
  const auto start = Clock::now();
  do {
    rounds.push_back(workload->run_round());
  } while (config.rounds > 0 ? rounds.size() < config.rounds
                             : seconds_since(start) < config.seconds);
  problems.insert(problems.end(), workload->problems().begin(), workload->problems().end());

  std::map<std::string, std::vector<double>> values;
  values["setup_s"] = setup_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Round& round : rounds) {
    values["throughput_per_s"].push_back(round.throughput);
    values["latency_p50_ms"].push_back(rumr::stats::percentile(round.latencies_ms, 50.0));
    attempted += round.attempted;
    failed += round.failed;
  }
  values["peak_rss_mb"] = {peak_rss_mb()};
  const bool correct = problems.empty() && failed == 0;

  JsonValue line_metrics = JsonValue::object();
  JsonValue report_metrics = JsonValue::object();
  std::printf("%s: %zu round(s), %zu set-up(s), %zu threads, seed %llu\n", name.c_str(),
              rounds.size(), setup_s.size(), config.threads,
              static_cast<unsigned long long>(config.seed));
  for (const MetricSpec& spec : end_to_end_metrics()) {
    const Quartiles q = quartiles(values[spec.name]);
    std::printf("  %-18s %14.6g %-4s  [q1 %.6g, q3 %.6g]\n", spec.name, q.median, spec.unit, q.q1,
                q.q3);
    JsonValue metric = JsonValue::object();
    metric.set("value", JsonValue::number(q.median));
    metric.set("unit", JsonValue::string(spec.unit));
    line_metrics.set(spec.name, std::move(metric));
    JsonValue entry = JsonValue::object();
    entry.set("unit", JsonValue::string(spec.unit));
    entry.set("median", JsonValue::number(q.median));
    entry.set("q1", JsonValue::number(q.q1));
    entry.set("q3", JsonValue::number(q.q3));
    entry.set("values", numbers(values[spec.name]));
    report_metrics.set(spec.name, std::move(entry));
  }
  print_problems(name, problems);

  if (!out_dir.empty()) {
    JsonValue report = JsonValue::object();
    report.set("workload", JsonValue::string(name));
    report.set("seed", JsonValue::string(std::to_string(config.seed)));
    report.set("threads", JsonValue::number(static_cast<double>(config.threads)));
    report.set("seconds", JsonValue::number(config.seconds));
    report.set("rounds", JsonValue::number(static_cast<double>(rounds.size())));
    report.set("correct", JsonValue::boolean(correct));
    report.set("attempted", JsonValue::number(static_cast<double>(attempted)));
    report.set("failed", JsonValue::number(static_cast<double>(failed)));
    report.set("problems", strings(problems));
    report.set("metrics", std::move(report_metrics));
    write_json(out_dir + "/" + name + ".json", report);
  }
  std::printf("%s\n", result_line(correct, attempted, failed, std::move(line_metrics)).dump().c_str());
  return correct ? 0 : 1;
}

// --- one workload, traced ---------------------------------------------------

int run_traced(const std::string& name, const Config& config, const std::string& out_dir) {
  const TraceReport report = trace_workload(name, config);
  const bool correct = report.problems.empty() && report.failed == 0;

  // Layer table: named layers' self time plus the remainder = full path.
  JsonValue rows = JsonValue::array();
  double sum_us = 0.0;
  std::printf("%s: layer table over %.0f %s(s), full path %.6g us\n", name.c_str(), report.units,
              report.unit.c_str(), report.full_path_us);
  const auto add_row = [&](const std::string& layer, double self) {
    sum_us += self;
    const double per_unit = report.units > 0.0 ? self / report.units : 0.0;
    const double share = report.full_path_us > 0.0 ? self / report.full_path_us : 0.0;
    std::printf("  %-20s %14.6g us/%s  %6.1f%%\n", layer.c_str(), per_unit, report.unit.c_str(),
                100.0 * share);
    JsonValue row = JsonValue::object();
    row.set("layer", JsonValue::string(layer));
    row.set("self_us", JsonValue::number(self));
    row.set("per_unit_us", JsonValue::number(per_unit));
    row.set("share", JsonValue::number(share));
    rows.push_back(std::move(row));
  };
  for (const LayerRow& row : report.layers) add_row(row.layer, row.self_us);
  add_row("remainder", report.remainder_us());

  JsonValue line_metrics = JsonValue::object();
  JsonValue table_metrics = JsonValue::object();
  for (const MetricSpec& spec : per_layer_metrics()) {
    const double value = report.metrics.at(spec.name);
    std::printf("  %-28s %14.6g %s\n", spec.name, value, spec.unit);
    JsonValue metric = JsonValue::object();
    metric.set("value", JsonValue::number(value));
    metric.set("unit", JsonValue::string(spec.unit));
    line_metrics.set(spec.name, std::move(metric));
    table_metrics.set(spec.name, JsonValue::number(value));
  }
  print_problems(name, report.problems);

  if (!out_dir.empty()) {
    JsonValue table = JsonValue::object();
    table.set("workload", JsonValue::string(name));
    table.set("seed", JsonValue::string(std::to_string(config.seed)));
    table.set("unit", JsonValue::string(report.unit));
    table.set("units", JsonValue::number(report.units));
    table.set("full_path_us", JsonValue::number(report.full_path_us));
    table.set("layers", std::move(rows));
    table.set("sum_us", JsonValue::number(sum_us));
    table.set("correct", JsonValue::boolean(correct));
    table.set("problems", strings(report.problems));
    table.set("metrics", std::move(table_metrics));
    write_json(out_dir + "/" + name + ".layers.json", table);
    write_json(out_dir + "/" + name + ".trace.json", report.spans.chrome_trace());
  }
  std::printf("%s\n", result_line(correct, std::max<std::size_t>(report.attempted, 1),
                                  report.failed, std::move(line_metrics))
                          .dump()
                          .c_str());
  return correct ? 0 : 1;
}

// --- --all --------------------------------------------------------------------

/// Runs this binary on `args` in a child process; returns its exit status.
int run_child(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  std::string self = "/proc/self/exe";
  argv.push_back(self.data());
  std::vector<std::string> owned = args;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = 0;
  if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(), environ) != 0) return 127;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return 127;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// Checks a --out directory against the manifest: every workload and metric
/// it names was reported with the same unit (and end-to-end bound), the
/// binary reports nothing the manifest lacks, and every layer table's parts
/// plus remainder equal the full path. Returns the number of problems found.
int check_manifest(const std::string& manifest_path, const std::string& dir) {
  std::vector<std::string> problems;
  const JsonValue manifest = read_json(manifest_path);
  const auto check_list = [&](const char* key, const std::vector<MetricSpec>& specs) {
    std::set<std::string> listed;
    for (const JsonValue& entry : manifest.at(key).as_array()) {
      const std::string& name = entry.at("name").as_string();
      listed.insert(name);
      const auto spec = std::find_if(specs.begin(), specs.end(),
                                     [&](const MetricSpec& s) { return name == s.name; });
      if (spec == specs.end()) {
        problems.push_back(std::string(key) + " metric " + name + " is not reported");
      } else if (entry.at("unit").as_string() != spec->unit) {
        problems.push_back(name + " is reported in " + spec->unit);
      } else if (const JsonValue* bound = entry.find("bound");
                 bound != nullptr && bound->as_number() != spec->bound) {
        problems.push_back(name + " is compared against a bound of " +
                           std::to_string(spec->bound));
      }
    }
    for (const MetricSpec& spec : specs) {
      if (!listed.count(spec.name)) {
        problems.push_back(std::string(spec.name) + " is missing from the manifest's " + key);
      }
    }
  };
  check_list("end_to_end", end_to_end_metrics());
  check_list("per_layer", per_layer_metrics());

  std::set<std::string> listed_workloads;
  for (const JsonValue& entry : manifest.at("workloads").as_array()) {
    listed_workloads.insert(entry.at("name").as_string());
  }
  for (const std::string& workload : workload_names()) {
    if (!listed_workloads.count(workload)) problems.push_back(workload + " is not in the manifest");
    const JsonValue e2e = read_json(dir + "/" + workload + ".json");
    const JsonValue layers = read_json(dir + "/" + workload + ".layers.json");
    for (const MetricSpec& spec : end_to_end_metrics()) {
      if (e2e.at("metrics").find(spec.name) == nullptr) {
        problems.push_back(workload + " did not report " + spec.name);
      }
    }
    for (const MetricSpec& spec : per_layer_metrics()) {
      if (layers.at("metrics").find(spec.name) == nullptr) {
        problems.push_back(workload + " trace did not report " + spec.name);
      }
    }
    double parts = 0.0;
    for (const JsonValue& row : layers.at("layers").as_array()) {
      parts += row.at("self_us").as_number();
    }
    const double full = layers.at("full_path_us").as_number();
    if (!(std::fabs(parts - full) <= 1e-9 * std::max(1.0, std::fabs(full)))) {
      problems.push_back(workload + " layer table sums to " + std::to_string(parts) +
                         " us, full path " + std::to_string(full) + " us");
    }
  }
  for (const std::string& p : problems) std::printf("manifest: %s\n", p.c_str());
  std::printf("manifest check: %s\n", problems.empty() ? "ok" : "FAILED");
  return static_cast<int>(problems.size());
}

int run_all(const Args& args) {
  const std::string out = args.out_dir.empty() ? ".bench_out" : args.out_dir;
  int failures = 0;
  for (const std::string& name : workload_names()) {
    for (const char* trace : {"0", "1"}) {
      std::vector<std::string> child = {"--workload", name,
                                        "--seed",     std::to_string(args.config.seed),
                                        "--seconds",  std::to_string(args.config.seconds),
                                        "--trace",    trace,
                                        "--out",      out};
      if (args.config.smoke) child.emplace_back("--smoke");
      if (run_child(child) != 0) {
        std::printf("%s (trace %s) FAILED\n", name.c_str(), trace);
        ++failures;
      }
    }
  }
  if (!args.manifest.empty()) failures += check_manifest(args.manifest, out) > 0 ? 1 : 0;
  std::printf("%s: reports in %s\n", failures == 0 ? "all workloads ok" : "FAILED", out.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (!args.compare.empty()) return compare_dirs(args.compare[0], args.compare[1]) == 0 ? 0 : 1;
    if (args.all) return run_all(args);
    if (std::find(workload_names().begin(), workload_names().end(), args.workload) ==
        workload_names().end()) {
      usage(args.workload.empty() ? "--workload, --all or --compare is required"
                                  : ("unknown workload " + args.workload).c_str());
    }
    return args.trace ? run_traced(args.workload, args.config, args.out_dir)
                      : run_end_to_end(args.workload, args.config, args.out_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rumr_bench: %s\n", e.what());
    return 1;
  }
}
