#include "jobs/job_manager.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/bounds.hpp"
#include "check/check.hpp"
#include "config/policies.hpp"
#include "stats/rng.hpp"
#include "util/problems.hpp"

namespace rumr::jobs {

const char* to_string(SharingPolicy policy) noexcept {
  switch (policy) {
    case SharingPolicy::kExclusive: return "exclusive";
    case SharingPolicy::kPartitioned: return "partitioned";
    case SharingPolicy::kFractional: return "fractional";
  }
  return "?";
}

const char* to_string(QueueDiscipline discipline) noexcept {
  switch (discipline) {
    case QueueDiscipline::kFcfs: return "fcfs";
    case QueueDiscipline::kSjf: return "sjf";
    case QueueDiscipline::kPriority: return "priority";
  }
  return "?";
}

const char* to_string(AdmissionPolicy admission) noexcept {
  switch (admission) {
    case AdmissionPolicy::kRejectNew: return "reject";
    case AdmissionPolicy::kShedOldest: return "shed";
  }
  return "?";
}

std::vector<std::string> JobsOptions::validate(std::size_t num_workers) const {
  std::vector<std::string> problems = stream.validate();
  const auto complain = [&problems](const auto&... parts) {
    std::ostringstream out;
    (out << ... << parts);
    problems.push_back(out.str());
  };

  if (const std::string problem = config::policy_name_problem(algorithm); !problem.empty()) {
    complain("jobs: ", problem);
  }
  if (!(known_error >= 0.0)) complain("jobs: known_error must be >= 0, got ", known_error);
  if (sharing == SharingPolicy::kPartitioned) {
    if (partitions == 0) complain("jobs: partitions must be >= 1");
    if (num_workers > 0 && partitions > num_workers) {
      complain("jobs: ", partitions, " partitions exceed the platform's ", num_workers,
               " workers");
    }
  }
  for (std::string& problem : sim.validate()) problems.push_back(std::move(problem));
  return problems;
}

namespace {

/// One in-service job: its current worker share, the open segment's oracle
/// prediction, and the pending completion event.
struct Active {
  std::size_t job = 0;           ///< Index into the outcome table (== job id).
  double remaining = 0.0;        ///< Work left at the open segment's start.
  des::SimTime seg_begin = 0.0;
  double seg_duration = 0.0;     ///< Oracle-predicted duration of the open segment.
  std::size_t first = 0;         ///< Share: first global worker index.
  std::size_t count = 0;         ///< Share: contiguous width.
  std::size_t segments = 0;      ///< Segments opened so far (oracle seed lane).
  des::EventId completion = 0;   ///< Pending completion event (0 = none).
  sim::Trace seg_trace;          ///< Inner Gantt of the open segment (iff tracing).
};

/// A fixed worker block serving one job at a time (kExclusive is the
/// single-partition special case).
struct Partition {
  std::size_t first = 0;
  std::size_t count = 0;
  std::optional<Active> active;
};

class JobManager {
 public:
  JobManager(const platform::StarPlatform& platform, const JobsOptions& options)
      : platform_(platform), opts_(options), stream_(options.stream, options.sim.seed) {
    result_.jobs_retained = opts_.retain_jobs;
    result_.stats.response_times = obs::Histogram::exponential(1.0, 2.0, 30);
    result_.stats.slowdowns = obs::Histogram::exponential(1.0, 1.25, 24);
    result_.stats.queue_waits = obs::Histogram::exponential(0.5, 2.0, 30);
    result_.stats.job_sizes = obs::Histogram::exponential(1.0, 2.0, 30);

    if (opts_.sharing == SharingPolicy::kFractional) {
      degree_cap_ = opts_.max_degree > 0 ? std::min(opts_.max_degree, platform_.size())
                                         : platform_.size();
    } else {
      const std::size_t count =
          opts_.sharing == SharingPolicy::kExclusive ? 1 : opts_.partitions;
      // Near-equal contiguous blocks; the first (N mod P) get the extra worker.
      const std::size_t base = platform_.size() / count;
      const std::size_t extra = platform_.size() % count;
      std::size_t pos = 0;
      for (std::size_t i = 0; i < count; ++i) {
        Partition p;
        p.first = pos;
        p.count = base + (i < extra ? 1 : 0);
        pos += p.count;
        partitions_.push_back(std::move(p));
      }
    }
  }

  ServiceResult run() {
    if (auto first = stream_.next()) {
      const Job job = *first;
      sim_.schedule_at(job.arrival, [this, job] { on_arrival(job); });
    }
    sim_.run();

    advance_area();
    result_.horizon = sim_.now();
    result_.manager_events = sim_.events_processed();
    finish_aggregates();
    return std::move(result_);
  }

 private:
  // --- arrival, admission, and the wait queue -----------------------------

  void on_arrival(const Job& job) {
    JobOutcome outcome;
    outcome.id = job.id;
    outcome.arrival = job.arrival;
    outcome.size = job.size;
    outcome.weight = job.weight;
    outcome.departure = job.arrival;
    outcome.best_service =
        analysis::makespan_lower_bounds(platform_, job.size, opts_.sim.uplink_channels)
            .combined();
    RUMR_CHECK(result_.arrived == job.id, "jobs arrive in stream order");
    if (opts_.retain_jobs) {
      result_.jobs.push_back(std::move(outcome));
    } else {
      inflight_.emplace(job.id, std::move(outcome));
    }
    ++result_.arrived;
    result_.stats.job_sizes.add(job.size);
    arrived_work_ += job.size;

    // Admission: the queue bounds *waiting* jobs only; a job that can start
    // immediately (some capacity is free, so the queue is empty) never
    // occupies a queue slot.
    if (has_free_capacity() || queue_.size() < opts_.queue_capacity) {
      admit(job.id);
    } else if (opts_.admission == AdmissionPolicy::kRejectNew || queue_.empty()) {
      // Zero-capacity queues leave shed-oldest nothing to shed: reject.
      job_ref(job.id).rejected = true;
      ++result_.rejected;
      release(job.id);
    } else {
      shed_oldest();
      admit(job.id);
    }
    dispatch_waiting();

    if (auto next = stream_.next()) {
      const Job upcoming = *next;
      sim_.schedule_at(upcoming.arrival, [this, upcoming] { on_arrival(upcoming); });
    }
  }

  void admit(std::size_t id) {
    advance_area();
    ++in_system_;
    ++result_.admitted;
    queue_.push_back(id);
  }

  void shed_oldest() {
    RUMR_CHECK(!queue_.empty(), "shed policy needs a non-empty queue");
    const std::size_t victim = queue_.front();
    queue_.erase(queue_.begin());
    advance_area();
    --in_system_;
    JobOutcome& o = job_ref(victim);
    o.shed = true;
    o.departure = sim_.now();
    o.queue_wait = sim_.now() - o.arrival;
    result_.residence_time += o.departure - o.arrival;
    ++result_.shed;
    release(victim);
  }

  /// Removes and returns the waiting job the discipline ranks first.
  std::size_t pick_next() {
    std::size_t best = 0;
    if (opts_.discipline != QueueDiscipline::kFcfs) {
      for (std::size_t i = 1; i < queue_.size(); ++i) {
        const JobOutcome& a = job_ref(queue_[i]);
        const JobOutcome& b = job_ref(queue_[best]);
        bool better = false;
        if (opts_.discipline == QueueDiscipline::kSjf) {
          better = a.size < b.size || (a.size == b.size && a.id < b.id);
        } else {  // kPriority: weight desc, then size asc, then arrival order.
          better = a.weight > b.weight ||
                   (a.weight == b.weight &&
                    (a.size < b.size || (a.size == b.size && a.id < b.id)));
        }
        if (better) best = i;
      }
    }
    const std::size_t id = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    return id;
  }

  [[nodiscard]] bool has_free_capacity() const {
    if (opts_.sharing == SharingPolicy::kFractional) return active_.size() < degree_cap_;
    return std::any_of(partitions_.begin(), partitions_.end(),
                       [](const Partition& p) { return !p.active.has_value(); });
  }

  /// Work-conserving dispatch: fill every free slot from the queue.
  void dispatch_waiting() {
    if (opts_.sharing == SharingPolicy::kFractional) {
      bool changed = false;
      while (!queue_.empty() && active_.size() < degree_cap_) {
        const std::size_t id = pick_next();
        Active a;
        a.job = id;
        JobOutcome& o = job_ref(id);
        a.remaining = o.size;
        o.start = sim_.now();
        o.queue_wait = sim_.now() - o.arrival;
        active_.push_back(std::move(a));
        changed = true;
      }
      if (changed) rebalance();
      return;
    }
    for (std::size_t pi = 0; pi < partitions_.size() && !queue_.empty(); ++pi) {
      Partition& p = partitions_[pi];
      if (p.active.has_value()) continue;
      const std::size_t id = pick_next();
      Active a;
      a.job = id;
      a.first = p.first;
      a.count = p.count;
      JobOutcome& o = job_ref(id);
      a.remaining = o.size;
      o.start = sim_.now();
      o.queue_wait = sim_.now() - o.arrival;
      p.active = std::move(a);
      open_segment(*p.active, [this, pi] { on_partition_complete(pi); });
    }
  }

  // --- service segments and the oracle ------------------------------------

  /// Prices `work` units on the share [first, first+count) with the real
  /// single-job engine. Seeded from (run seed, job, segment) so replays are
  /// byte-identical and segments are independent RNG lanes.
  double oracle(Active& a) {
    const platform::StarPlatform& sub = share_platform(a.first, a.count);
    const std::unique_ptr<sim::SchedulerPolicy> policy =
        config::make_policy(opts_.algorithm, sub, a.remaining, opts_.known_error);
    sim::SimOptions options = opts_.sim;
    options.seed = stats::mix_seed(opts_.sim.seed, 0x10B0'0D1EULL, a.job, a.segments);
    options.record_trace = opts_.record_trace;
    const sim::SimResult run = sim::simulate(sub, *policy, options);
    ++result_.oracle_runs;
    result_.oracle_events += run.events;
    if (opts_.record_trace) a.seg_trace = run.trace;
    return run.makespan;
  }

  template <typename Callback>
  void open_segment(Active& a, Callback on_complete) {
    a.seg_begin = sim_.now();
    if (a.remaining <= 1e-12 * job_ref(a.job).size) {
      // A same-instant re-partition closed the previous segment exactly at
      // its predicted end: the job is done; fire completion without another
      // oracle run.
      a.seg_duration = 0.0;
      a.seg_trace.clear();
    } else {
      a.seg_duration = oracle(a);
    }
    ++a.segments;
    a.completion = sim_.schedule_in(a.seg_duration, std::move(on_complete));
  }

  /// Closes the open segment at the current instant; `fraction_done` of the
  /// segment's remaining work completed (1 for an uninterrupted segment).
  void close_segment(Active& a, double fraction_done) {
    const double done = a.remaining * fraction_done;
    const des::SimTime now = sim_.now();
    JobOutcome& o = job_ref(a.job);
    if (now > a.seg_begin || done > 0.0) {
      o.segments.push_back({a.seg_begin, now, a.first, a.count, done});
      result_.share_time += static_cast<double>(a.count) * (now - a.seg_begin);
    }
    if (opts_.record_trace && !a.seg_trace.empty()) {
      // Interrupted segments keep only the part of the inner Gantt that
      // actually ran before the cut.
      const des::SimTime elapsed = now - a.seg_begin;
      sim::Trace clipped;
      for (sim::TraceSpan span : a.seg_trace.spans()) {
        if (span.start >= elapsed) continue;
        span.end = std::min(span.end, elapsed);
        clipped.add(span);
      }
      result_.trace.append_shifted(clipped, a.seg_begin, a.first);
      a.seg_trace.clear();
    }
    o.work_done += done;
    a.remaining -= done;
  }

  void finalize_completed(Active& a) {
    close_segment(a, 1.0);
    JobOutcome& o = job_ref(a.job);
    o.completed = true;
    o.departure = sim_.now();
    o.response = o.departure - o.arrival;
    o.service_time = o.departure - o.start;
    o.slowdown = o.best_service > 0.0 ? o.response / o.best_service : 0.0;
    ++result_.completed;
    result_.total_work += o.size;
    result_.residence_time += o.response;
    result_.stats.response_times.add(o.response);
    result_.stats.slowdowns.add(o.slowdown);
    result_.stats.queue_waits.add(o.queue_wait);
    advance_area();
    --in_system_;
    release(a.job);
  }

  void on_partition_complete(std::size_t pi) {
    Partition& p = partitions_[pi];
    RUMR_CHECK(p.active.has_value(), "completion fired on an idle partition");
    finalize_completed(*p.active);
    p.active.reset();
    dispatch_waiting();
  }

  // --- fractional sharing -------------------------------------------------

  void on_fractional_complete(std::size_t job_id) {
    const auto it = std::find_if(active_.begin(), active_.end(),
                                 [job_id](const Active& a) { return a.job == job_id; });
    RUMR_CHECK(it != active_.end(), "completion fired for a job no longer in service");
    finalize_completed(*it);
    active_.erase(it);
    dispatch_waiting();
    // With an empty queue dispatch_waiting() admitted nobody, so the
    // survivors still run on their old (narrower) shares; re-divide. When it
    // did admit, the shares already match and this pass is a cheap no-op.
    rebalance();
  }

  /// Re-divides the workers evenly over the in-service jobs (insertion
  /// order, contiguous blocks) and re-prices every job whose share moved.
  void rebalance() {
    if (active_.empty()) return;
    const std::size_t n = platform_.size();
    const std::size_t k = active_.size();
    const std::size_t base = n / k;
    const std::size_t extra = n % k;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < k; ++i) {
      Active& a = active_[i];
      const std::size_t count = base + (i < extra ? 1 : 0);
      const std::size_t first = pos;
      pos += count;
      if (a.completion != 0 && a.first == first && a.count == count) continue;
      if (a.completion != 0) {
        // Interrupt: fluid progress within the segment.
        sim_.cancel(a.completion);
        a.completion = 0;
        const double fraction =
            a.seg_duration > 0.0
                ? std::min((sim_.now() - a.seg_begin) / a.seg_duration, 1.0)
                : 1.0;
        close_segment(a, fraction);
      }
      a.first = first;
      a.count = count;
      const std::size_t job_id = a.job;
      open_segment(a, [this, job_id] { on_fractional_complete(job_id); });
    }
  }

  // --- bookkeeping --------------------------------------------------------

  /// Extends the exact integral of N(t) up to the current instant. Must run
  /// before every in_system_ transition.
  void advance_area() {
    const des::SimTime now = sim_.now();
    result_.area_jobs_in_system += static_cast<double>(in_system_) * (now - area_clock_);
    area_clock_ = now;
  }

  const platform::StarPlatform& share_platform(std::size_t first, std::size_t count) {
    if (count == platform_.size()) return platform_;
    const auto key = std::make_pair(first, count);
    auto it = share_cache_.find(key);
    if (it == share_cache_.end()) {
      std::vector<std::size_t> indices(count);
      std::iota(indices.begin(), indices.end(), first);
      it = share_cache_.emplace(key, platform_.subset(indices)).first;
    }
    return it->second;
  }

  /// The live record for job `id`: the outcome table in retain mode, the
  /// in-flight map in streaming mode. Valid from arrival until release().
  JobOutcome& job_ref(std::size_t id) {
    if (opts_.retain_jobs) return result_.jobs[id];
    const auto it = inflight_.find(id);
    RUMR_CHECK(it != inflight_.end(), "streaming mode touched a released job");
    return it->second;
  }

  /// Terminal departure in streaming mode: the per-job record has been folded
  /// into the aggregates, drop it so memory tracks jobs *in flight* only.
  void release(std::size_t id) {
    if (!opts_.retain_jobs) inflight_.erase(id);
  }

  void finish_aggregates() {
    result_.arrived_work = arrived_work_;
    result_.stats.arrived = result_.arrived;
    result_.stats.admitted = result_.admitted;
    result_.stats.rejected = result_.rejected;
    result_.stats.shed = result_.shed;
    result_.stats.completed = result_.completed;
    const double horizon = result_.horizon;
    if (horizon > 0.0) {
      const double capacity = platform_.total_speed() * horizon;
      result_.utilization = capacity > 0.0 ? result_.total_work / capacity : 0.0;
      result_.offered_load = capacity > 0.0 ? arrived_work_ / capacity : 0.0;
      result_.share_utilization =
          result_.share_time / (static_cast<double>(platform_.size()) * horizon);
    }
  }

  const platform::StarPlatform& platform_;
  JobsOptions opts_;
  des::Simulator sim_;
  JobStream stream_;
  ServiceResult result_;

  std::vector<std::size_t> queue_;      ///< Waiting job ids, in enqueue order.
  std::vector<Partition> partitions_;   ///< kExclusive / kPartitioned servers.
  std::vector<Active> active_;          ///< kFractional in-service set.
  std::size_t degree_cap_ = 0;          ///< kFractional concurrency cap.

  std::size_t in_system_ = 0;           ///< Admitted, not yet departed.
  des::SimTime area_clock_ = 0.0;
  double arrived_work_ = 0.0;
  /// Streaming mode (retain_jobs == false): the outcome records of jobs
  /// currently in flight, dropped on terminal departure. (std::map, not
  /// unordered — iteration order never matters here, and the determinism
  /// lint bans unordered containers in src/ outright.)
  std::map<std::size_t, JobOutcome> inflight_;
  std::map<std::pair<std::size_t, std::size_t>, platform::StarPlatform> share_cache_;
};

}  // namespace

ServiceResult run_jobs(const platform::StarPlatform& platform, const JobsOptions& options) {
  const std::vector<std::string> problems = options.validate(platform.size());
  if (!problems.empty()) {
    throw std::invalid_argument(util::join_problems("invalid jobs options:", problems));
  }
  JobManager manager(platform, options);
  return manager.run();
}

}  // namespace rumr::jobs
