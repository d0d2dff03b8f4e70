#include "report/metrics_io.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "util/json_lite.hpp"

namespace rumr::report {

namespace {

/// The cell metrics exported by both formats, in column order.
struct NamedStat {
  const char* name;
  const stats::Accumulator& acc;
};

std::vector<NamedStat> cell_stats(const sweep::CellStats& cell) {
  return {{"makespan", cell.makespan},
          {"uplink_utilization", cell.uplink_utilization},
          {"worker_utilization", cell.worker_utilization},
          {"events", cell.events},
          {"hol_blocking_time", cell.hol_blocking_time},
          {"work_redispatched", cell.work_redispatched}};
}

void csv_number(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "nan";
    return;
  }
  std::ostringstream text;
  text.precision(17);
  text << v;
  out << text.str();
}

}  // namespace

void write_sweep_metrics_csv(std::ostream& out, const std::vector<sweep::SweepCell>& cells) {
  out << "config,error,algorithm,reps";
  {
    // Header columns from an arbitrary cell (names are static).
    const sweep::CellStats empty;
    for (const NamedStat& s : cell_stats(empty)) {
      out << ',' << s.name << "_mean," << s.name << "_stddev";
    }
  }
  out << '\n';
  for (const sweep::SweepCell& cell : cells) {
    out << '"' << cell.platform_label << "\",";
    csv_number(out, cell.error);
    out << ',' << cell.algorithm << ',' << cell.stats.reps;
    for (const NamedStat& s : cell_stats(cell.stats)) {
      out << ',';
      csv_number(out, s.acc.mean());
      out << ',';
      csv_number(out, s.acc.stddev());
    }
    out << '\n';
  }
}

std::string sweep_metrics_csv(const std::vector<sweep::SweepCell>& cells) {
  std::ostringstream out;
  write_sweep_metrics_csv(out, cells);
  return out.str();
}

void write_sweep_metrics_json(std::ostream& out, const std::vector<sweep::SweepCell>& cells) {
  using util::JsonValue;
  JsonValue rows = JsonValue::array();
  for (const sweep::SweepCell& cell : cells) {
    JsonValue row = JsonValue::object({{"config", JsonValue::string(cell.platform_label)},
                                       {"error", JsonValue::number_or_null(cell.error)},
                                       {"algorithm", JsonValue::string(cell.algorithm)},
                                       {"reps", JsonValue::number(cell.stats.reps)}});
    for (const NamedStat& s : cell_stats(cell.stats)) {
      row.set(std::string(s.name) + "_mean", JsonValue::number_or_null(s.acc.mean()));
      row.set(std::string(s.name) + "_stddev", JsonValue::number_or_null(s.acc.stddev()));
    }
    rows.push_back(std::move(row));
  }
  out << rows.dump();
}

std::string sweep_metrics_json(const std::vector<sweep::SweepCell>& cells) {
  std::ostringstream out;
  write_sweep_metrics_json(out, cells);
  return out.str();
}

}  // namespace rumr::report
