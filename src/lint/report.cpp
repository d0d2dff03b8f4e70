#include "lint/report.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "lint/engine.hpp"
#include "util/json_lite.hpp"

namespace rumr::lint {

std::string finding_key(const Finding& f) {
  return f.file + "|" + f.rule + "|" + std::to_string(f.line);
}

void print_text(const std::vector<Finding>& findings, std::ostream& out) {
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": error: [" << f.rule << "] " << f.message << "\n";
  }
}

void print_json(const std::vector<Finding>& findings, std::size_t files_scanned,
                std::ostream& out) {
  using util::JsonValue;
  JsonValue list = JsonValue::array();
  for (const Finding& f : findings) {
    list.push_back(JsonValue::object({{"file", JsonValue::string(f.file)},
                                      {"line", JsonValue::number(f.line)},
                                      {"rule", JsonValue::string(f.rule)},
                                      {"message", JsonValue::string(f.message)}}));
  }
  out << JsonValue::object({{"files_scanned", JsonValue::number(files_scanned)},
                            {"finding_count", JsonValue::number(findings.size())},
                            {"findings", std::move(list)}})
             .dump()
      << "\n";
}

void print_rule_catalog(const Engine& engine, std::ostream& out) {
  out << "rumr_lint rule catalog (suppress with: // rumr-lint: allow(<rule>) <reason>)\n\n";
  for (const auto& rule : engine.rules()) {
    out << "  " << rule->name() << "\n      " << rule->rationale() << "\n\n";
  }
  out << "  " << kSuppressionHygieneRule << " (engine-level, not suppressible)\n      "
      << kSuppressionHygieneRationale << "\n";
}

bool load_baseline(const std::string& path, std::vector<std::string>& keys_out,
                   std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "rumr_lint: cannot read baseline " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty() && line.front() != '#') keys_out.push_back(line);
  }
  std::sort(keys_out.begin(), keys_out.end());
  return true;
}

bool write_baseline(const std::vector<Finding>& findings, const std::string& path,
                    std::ostream& err) {
  std::ofstream out_file(path);
  if (!out_file) {
    err << "rumr_lint: cannot write baseline " << path << "\n";
    return false;
  }
  out_file << "# rumr_lint baseline: path|rule|line, one accepted legacy finding per line.\n";
  std::vector<std::string> keys;
  keys.reserve(findings.size());
  for (const Finding& f : findings) keys.push_back(finding_key(f));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const std::string& key : keys) out_file << key << "\n";
  return static_cast<bool>(out_file);
}

}  // namespace rumr::lint
