#include "report/jobs_io.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "util/json_lite.hpp"

namespace rumr::report {

namespace {

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

const char* job_state(const jobs::JobOutcome& job) {
  if (job.rejected) return "rejected";
  if (job.shed) return "shed";
  if (job.completed) return "completed";
  return "in-flight";
}

}  // namespace

void write_jobs_csv(std::ostream& out, const jobs::ServiceResult& result) {
  out << "id,arrival,size,weight,state,start,departure,queue_wait,service_time,"
         "response,best_service,slowdown,work_done,segments\n";
  for (const jobs::JobOutcome& job : result.jobs) {
    out << job.id << ',';
    csv_number(out, job.arrival);
    out << ',';
    csv_number(out, job.size);
    out << ',';
    csv_number(out, job.weight);
    out << ',' << job_state(job) << ',';
    csv_number(out, job.start);
    out << ',';
    csv_number(out, job.departure);
    out << ',';
    csv_number(out, job.queue_wait);
    out << ',';
    csv_number(out, job.service_time);
    out << ',';
    csv_number(out, job.response);
    out << ',';
    csv_number(out, job.best_service);
    out << ',';
    csv_number(out, job.slowdown);
    out << ',';
    csv_number(out, job.work_done);
    out << ',' << job.segments.size() << '\n';
  }
}

std::string jobs_csv(const jobs::ServiceResult& result) {
  std::ostringstream out;
  write_jobs_csv(out, result);
  return out.str();
}

void write_jobs_summary_json(std::ostream& out, const jobs::ServiceResult& result) {
  using util::JsonValue;
  const auto real = [](double v) { return JsonValue::number_or_null(v); };
  const auto count = [](std::uint64_t v) { return JsonValue::number(v); };
  JsonValue summary = JsonValue::object({{"arrived", count(result.arrived)},
                                         {"admitted", count(result.admitted)},
                                         {"rejected", count(result.rejected)},
                                         {"shed", count(result.shed)},
                                         {"completed", count(result.completed)},
                                         {"horizon", real(result.horizon)},
                                         {"area_jobs_in_system", real(result.area_jobs_in_system)},
                                         {"total_work", real(result.total_work)},
                                         {"share_time", real(result.share_time)},
                                         {"utilization", real(result.utilization)},
                                         {"share_utilization", real(result.share_utilization)},
                                         {"offered_load", real(result.offered_load)},
                                         {"mean_response", real(result.mean_response())},
                                         {"mean_slowdown", real(result.mean_slowdown())},
                                         {"mean_queue_wait", real(result.mean_queue_wait())},
                                         {"manager_events", count(result.manager_events)},
                                         {"oracle_runs", count(result.oracle_runs)},
                                         {"oracle_events", count(result.oracle_events)}});
  summary.set("stats", obs::to_json_value(result.stats));
  out << summary.dump();
}

std::string jobs_summary_json(const jobs::ServiceResult& result) {
  std::ostringstream out;
  write_jobs_summary_json(out, result);
  return out.str();
}

}  // namespace rumr::report
