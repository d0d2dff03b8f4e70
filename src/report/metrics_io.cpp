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

void write_sweep_metrics_csv(std::ostream& out, const sweep::SweepResult& result) {
  out << "config,error,algorithm,reps";
  {
    // Header columns from an arbitrary cell (names are static).
    const sweep::CellStats empty;
    for (const NamedStat& s : cell_stats(empty)) {
      out << ',' << s.name << "_mean," << s.name << "_stddev";
    }
  }
  out << '\n';
  for (std::size_t c = 0; c < result.configs().size(); ++c) {
    for (std::size_t e = 0; e < result.errors().size(); ++e) {
      for (std::size_t a = 0; a < result.algorithms().size(); ++a) {
        const sweep::CellStats& cell = result.cell(c, e, a);
        out << '"' << result.configs()[c].label() << "\",";
        csv_number(out, result.errors()[e]);
        out << ',' << result.algorithms()[a] << ',' << cell.reps;
        for (const NamedStat& s : cell_stats(cell)) {
          out << ',';
          csv_number(out, s.acc.mean());
          out << ',';
          csv_number(out, s.acc.stddev());
        }
        out << '\n';
      }
    }
  }
}

std::string sweep_metrics_csv(const sweep::SweepResult& result) {
  std::ostringstream out;
  write_sweep_metrics_csv(out, result);
  return out.str();
}

void write_sweep_metrics_json(std::ostream& out, const sweep::SweepResult& result) {
  using util::JsonValue;
  JsonValue cells = JsonValue::array();
  for (std::size_t c = 0; c < result.configs().size(); ++c) {
    for (std::size_t e = 0; e < result.errors().size(); ++e) {
      for (std::size_t a = 0; a < result.algorithms().size(); ++a) {
        const sweep::CellStats& cell = result.cell(c, e, a);
        JsonValue row =
            JsonValue::object({{"config", JsonValue::string(result.configs()[c].label())},
                               {"error", JsonValue::number_or_null(result.errors()[e])},
                               {"algorithm", JsonValue::string(result.algorithms()[a])},
                               {"reps", JsonValue::number(cell.reps)}});
        for (const NamedStat& s : cell_stats(cell)) {
          row.set(std::string(s.name) + "_mean", JsonValue::number_or_null(s.acc.mean()));
          row.set(std::string(s.name) + "_stddev", JsonValue::number_or_null(s.acc.stddev()));
        }
        cells.push_back(std::move(row));
      }
    }
  }
  out << cells.dump();
}

std::string sweep_metrics_json(const sweep::SweepResult& result) {
  std::ostringstream out;
  write_sweep_metrics_json(out, result);
  return out.str();
}

}  // namespace rumr::report
