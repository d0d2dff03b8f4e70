#include "check/trace_audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/trace.hpp"

namespace rumr::check {
namespace {

/// Relative comparison scaled the same way the engine's own conservation
/// check scales (sim/master_worker.cpp finalize_checks).
bool close(double a, double b, double rel_tol) {
  const double scale = std::max(1.0, std::max(std::abs(a), std::abs(b)));
  return std::abs(a - b) <= rel_tol * scale;
}

/// A check's label: a string literal, or a callable that formats one. A
/// callable runs only when its check fails, so a passing run formats nothing.
template <typename Label>
std::string label_text(const Label& label) {
  if constexpr (std::is_invocable_v<const Label&>) {
    return label();
  } else {
    return label;
  }
}

/// The label of one worker's check: "worker <w><suffix>", formatted on demand.
auto worker_label(std::size_t worker, const char* suffix) {
  return [worker, suffix] { return "worker " + std::to_string(worker) + suffix; };
}

template <typename Label>
void check_sum(AuditReport& report, const Label& what, double got, double want, double rel_tol) {
  if (close(got, want, rel_tol)) return;
  std::ostringstream out;
  out << "work conservation: " << label_text(what) << " is " << got << ", expected " << want;
  report.violations.push_back(out.str());
}

/// Spans of one kind never overlap: each must start at or after the previous
/// end. Spans arrive in recording order, which the engine emits in start-time
/// order per resource.
template <typename Label>
void check_serial(AuditReport& report, std::span<const sim::TraceSpan> spans, const Label& what,
                  double tol) {
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].start >= spans[i - 1].end - tol) continue;
    std::ostringstream out;
    out << label_text(what) << " overlap: span " << i << " starts at t=" << spans[i].start
        << " before the previous span ends at t=" << spans[i - 1].end;
    report.violations.push_back(out.str());
  }
}

/// Every worker's compute and outage spans, bucketed by a counting sort: one
/// pass counts, one places, and each bucket keeps recording order. Spans that
/// name no platform worker are left out (audit_trace reports them).
class WorkerSpans {
 public:
  WorkerSpans(const std::vector<sim::TraceSpan>& spans, std::size_t workers)
      : first_(2 * workers + 1, 0) {
    for (const sim::TraceSpan& s : spans) {
      if (const std::size_t b = bucket(s, workers); b < 2 * workers) ++first_[b + 1];
    }
    for (std::size_t b = 0; b < 2 * workers; ++b) first_[b + 1] += first_[b];
    spans_.resize(first_.back());
    std::vector<std::size_t> next(first_.begin(), first_.end() - 1);
    for (const sim::TraceSpan& s : spans) {
      if (const std::size_t b = bucket(s, workers); b < 2 * workers) spans_[next[b]++] = s;
    }
  }

  [[nodiscard]] std::span<const sim::TraceSpan> compute(std::size_t w) const { return of(2 * w); }
  [[nodiscard]] std::span<const sim::TraceSpan> down(std::size_t w) const { return of(2 * w + 1); }

 private:
  /// Bucket 2w holds worker w's compute spans, 2w + 1 its outages; any other
  /// span maps past the last bucket.
  static std::size_t bucket(const sim::TraceSpan& s, std::size_t workers) {
    if (s.worker >= workers) return 2 * workers;
    if (s.kind == sim::SpanKind::kCompute) return 2 * s.worker;
    if (s.kind == sim::SpanKind::kDown) return 2 * s.worker + 1;
    return 2 * workers;
  }

  [[nodiscard]] std::span<const sim::TraceSpan> of(std::size_t b) const {
    return {spans_.data() + first_[b], first_[b + 1] - first_[b]};
  }

  std::vector<std::size_t> first_;
  std::vector<sim::TraceSpan> spans_;
};

void audit_trace(AuditReport& report, const sim::SimResult& result,
                 const platform::StarPlatform& platform, const TraceAuditOptions& options) {
  const double tol = options.time_tolerance;
  const auto& spans = result.trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const sim::TraceSpan& s = spans[i];
    if (s.start < 0.0 || s.end < s.start || !std::isfinite(s.end)) {
      std::ostringstream out;
      out << "malformed span " << i << ": [" << s.start << ", " << s.end << ")";
      report.violations.push_back(out.str());
    }
    if (s.worker >= platform.size()) {
      std::ostringstream out;
      out << "span " << i << " names worker " << s.worker << " of " << platform.size();
      report.violations.push_back(out.str());
    }
  }

  // The makespan bounds every span that *produces* results (compute, aborted,
  // output, down). Network spans (uplink occupancy, last-byte tails) may
  // legitimately outlive it under link faults: a retransmission or a spiked
  // delivery can still be propagating when the re-dispatched copy of its
  // payload completes elsewhere — the bytes arrive, are recognized as
  // worthless, and are dropped.
  for (const sim::TraceSpan& s : spans) {
    if (s.kind == sim::SpanKind::kUplink || s.kind == sim::SpanKind::kTail) continue;
    if (s.end <= result.makespan + tol) continue;
    std::ostringstream out;
    out << "span of kind " << static_cast<int>(s.kind) << " on worker " << s.worker
        << " extends to t=" << s.end << " past the makespan t=" << result.makespan;
    report.violations.push_back(out.str());
    break;  // One report suffices; later spans usually share the cause.
  }

  if (options.uplink_channels == 1) {
    check_serial(report, result.trace.filter(sim::SpanKind::kUplink), "uplink", tol);
  }
  check_serial(report, result.trace.filter(sim::SpanKind::kOutput), "downlink", tol);

  // Per-worker: one CPU, so compute spans serialize; their durations, chunk
  // sums, and count must reproduce the aggregate outcome exactly. Aborted
  // spans (failure-truncated computations) are excluded from every sum: the
  // work they carried was reclaimed and re-dispatched, not computed here.
  const WorkerSpans by_worker(spans, result.workers.size());
  for (std::size_t w = 0; w < result.workers.size(); ++w) {
    const std::span<const sim::TraceSpan> compute = by_worker.compute(w);
    const std::span<const sim::TraceSpan> down = by_worker.down(w);
    check_serial(report, compute, worker_label(w, " compute"), tol);

    // Fault model: outage intervals are disjoint, and no completed
    // computation may overlap one — a dead worker produces nothing.
    check_serial(report, down, worker_label(w, " down"), tol);
    for (const sim::TraceSpan& c : compute) {
      for (const sim::TraceSpan& d : down) {
        if (c.end <= d.start + tol || c.start >= d.end - tol) continue;
        std::ostringstream msg;
        msg << "worker " << w << " completed a computation [" << c.start << ", " << c.end
            << ") overlapping its outage [" << d.start << ", " << d.end << ")";
        report.violations.push_back(msg.str());
      }
    }

    double busy = 0.0;
    double work = 0.0;
    for (const sim::TraceSpan& s : compute) {
      busy += s.end - s.start;
      work += s.chunk;
    }
    const sim::WorkerOutcome& out = result.workers[w];
    check_sum(report, worker_label(w, " compute span busy time"), busy, out.busy_time,
              options.work_tolerance);
    check_sum(report, worker_label(w, " compute span work"), work, out.work,
              options.work_tolerance);
    if (compute.size() != out.chunks) {
      std::ostringstream msg;
      msg << "worker " << w << " has " << compute.size() << " compute spans but reported "
          << out.chunks << " chunks";
      report.violations.push_back(msg.str());
    }
  }
}

/// Exact integer cross-check between two counters that must agree.
template <typename Label>
void check_count(AuditReport& report, const Label& what, std::size_t got, std::size_t want) {
  if (got == want) return;
  std::ostringstream out;
  out << "metrics identity: " << label_text(what) << " is " << got << ", expected " << want;
  report.violations.push_back(out.str());
}

template <typename Label>
void check_time_identity(AuditReport& report, const Label& what, double got, double want,
                         double rel_tol) {
  if (close(got, want, rel_tol)) return;
  std::ostringstream out;
  out << "metrics identity: " << label_text(what) << " is " << got << ", expected " << want;
  report.violations.push_back(out.str());
}

/// Audits the observability record against the identities the probes must
/// satisfy by construction. A violation here means the engine's bookkeeping
/// diverged from its own time accounting — a bug, not noise.
void audit_metrics(AuditReport& report, const sim::SimResult& result,
                   const TraceAuditOptions& options) {
  const obs::RunMetrics& m = result.metrics;
  // Identity tolerance: these are sums of exact segment lengths, so only
  // floating-point accumulation error is admissible — far tighter than the
  // work-conservation tolerance.
  const double tol = std::max(options.time_tolerance, 1e-12);

  check_time_identity(report, "metrics.makespan vs result.makespan", m.makespan, result.makespan,
                      tol);

  // The DES kernel conserves events: every scheduled event was either
  // executed or cancelled by the time the queue drained.
  check_count(report, "des events (executed + cancelled) vs scheduled",
              m.des.events_executed + m.des.events_cancelled, m.des.events_scheduled);
  check_count(report, "des events_executed vs result.events", m.des.events_executed,
              result.events);

  // Uplink occupancy tiles the run: busy (>= 1 channel held) + idle == makespan.
  check_time_identity(report, "uplink busy + idle vs makespan",
                      m.engine.uplink_busy_time + m.engine.uplink_idle_time, result.makespan,
                      tol);
  // With one channel, occupancy decomposes exactly into serialized transfer
  // time plus head-of-line blocking (a held-but-not-transferring channel).
  if (options.uplink_channels == 1) {
    check_time_identity(report, "uplink busy vs transfer + HOL blocking",
                        m.engine.uplink_busy_time,
                        m.engine.uplink_transfer_time + m.engine.hol_blocking_time, tol);
  }

  // Engine counters vs the legacy result fields (same events, two ledgers).
  check_count(report, "engine.dispatches vs chunks_dispatched", m.engine.dispatches,
              result.chunks_dispatched);
  check_time_identity(report, "engine.work_dispatched vs result.work_dispatched",
                      m.engine.work_dispatched, result.work_dispatched, tol);
  check_time_identity(report, "engine.uplink_transfer_time vs result.uplink_busy_time",
                      m.engine.uplink_transfer_time, result.uplink_busy_time, tol);
  check_time_identity(report, "engine.downlink_busy_time vs result.downlink_busy_time",
                      m.engine.downlink_busy_time, result.downlink_busy_time, tol);
  check_count(report, "chunk_sizes histogram total vs dispatches",
              static_cast<std::size_t>(m.engine.chunk_sizes.total()), m.engine.dispatches);
  check_count(report, "compute_durations histogram total vs completions",
              static_cast<std::size_t>(m.engine.compute_durations.total()),
              m.engine.completions);

  // Per-worker span accounting: {compute, aborted, idle, down} partitions
  // [0, makespan] — the probes' state machine cannot lose or invent time.
  std::size_t span_completions = 0;
  std::size_t span_dispatches = 0;
  for (std::size_t w = 0; w < m.engine.workers.size(); ++w) {
    const obs::WorkerSpans& ws = m.engine.workers[w];
    check_time_identity(report, worker_label(w, " compute + aborted + idle + down vs makespan"),
                        ws.compute_time + ws.aborted_time + ws.idle_time + ws.down_time,
                        result.makespan, tol);
    check_time_identity(report, worker_label(w, " span compute_time vs outcome busy_time"),
                        ws.compute_time, result.workers[w].busy_time, tol);
    check_count(report, worker_label(w, " span completions vs outcome chunks"), ws.completions,
                result.workers[w].chunks);
    span_completions += ws.completions;
    span_dispatches += ws.dispatches;
  }
  check_count(report, "sum of worker dispatches vs engine.dispatches", span_dispatches,
              m.engine.dispatches);
  check_count(report, "sum of worker completions vs engine.completions", span_completions,
              m.engine.completions);

  // Fault ledger: the metrics record and the legacy FaultSummary are two
  // views of the same counters.
  const sim::FaultSummary& faults = result.faults;
  check_count(report, "faults.failures", m.faults.failures, faults.failures);
  check_count(report, "faults.recoveries", m.faults.recoveries, faults.recoveries);
  check_count(report, "faults.fencings vs suspicions", m.faults.fencings, faults.suspicions);
  check_count(report, "faults.rejoins", m.faults.rejoins, faults.rejoins);
  check_count(report, "faults.chunks_lost", m.faults.chunks_lost, faults.chunks_lost);
  check_count(report, "faults.chunks_redispatched", m.faults.chunks_redispatched,
              faults.chunks_redispatched);
  check_count(report, "faults.messages_lost", m.faults.messages_lost, faults.messages_lost);
  check_count(report, "faults.latency_spikes", m.faults.latency_spikes, faults.latency_spikes);
  check_count(report, "faults.degraded_sends", m.faults.degraded_sends, faults.degraded_sends);
  check_count(report, "faults.retransmits", m.faults.retransmits, faults.retransmits);
  check_time_identity(report, "faults.work_retransmitted", m.faults.work_retransmitted,
                      faults.work_retransmitted, tol);
  check_count(report, "faults.duplicates_suppressed", m.faults.duplicates_suppressed,
              faults.duplicates_suppressed);
  check_count(report, "faults.checkpoints_banked", m.faults.checkpoints_banked,
              faults.checkpoints_banked);
  check_time_identity(report, "faults.work_banked", m.faults.work_banked, faults.work_banked,
                      tol);
  // A duplicate delivery requires at least one extra send of the same lease,
  // so suppressions can never outnumber protocol re-sends.
  if (m.faults.duplicates_suppressed > m.faults.retransmits) {
    std::ostringstream out;
    out << "metrics identity: " << m.faults.duplicates_suppressed
        << " duplicates suppressed exceed " << m.faults.retransmits << " retransmits";
    report.violations.push_back(out.str());
  }
  if (m.faults.false_suspicions > m.faults.fencings) {
    std::ostringstream out;
    out << "metrics identity: " << m.faults.false_suspicions << " false suspicions exceed "
        << m.faults.fencings << " fencings";
    report.violations.push_back(out.str());
  }
}

}  // namespace

AuditReport audit_sim_result(const sim::SimResult& result, const platform::StarPlatform& platform,
                             double w_total, const TraceAuditOptions& options) {
  AuditReport report;

  if (result.workers.size() != platform.size()) {
    std::ostringstream out;
    out << "result reports " << result.workers.size() << " workers on a platform of "
        << platform.size();
    report.violations.push_back(out.str());
    return report;
  }

  // Aggregate work conservation: everything dispatched, everything computed.
  // Re-dispatched work appears in work_dispatched once per send; conservation
  // holds for the net amount (gross minus re-sends).
  const sim::FaultSummary& faults = result.faults;
  check_sum(report, "bytes dispatched (net of re-dispatch)",
            result.work_dispatched - faults.work_redispatched, w_total, options.work_tolerance);
  double computed = 0.0;
  std::size_t chunks = 0;
  for (const sim::WorkerOutcome& w : result.workers) {
    computed += w.work;
    chunks += w.chunks;
  }
  // Banked work (partial-work checkpointing) is final output that no worker's
  // outcome ledger carries: the chunk's owner was fenced mid-computation and
  // only the remainder was re-dispatched. computed + banked covers the total.
  check_sum(report, "bytes computed + banked", computed + faults.work_banked, w_total,
            options.work_tolerance);
  if (chunks + faults.chunks_lost != result.chunks_dispatched) {
    std::ostringstream out;
    out << "chunk conservation: " << result.chunks_dispatched << " dispatched but " << chunks
        << " computed and " << faults.chunks_lost << " lost";
    report.violations.push_back(out.str());
  }

  // Exactly-once re-dispatch: every chunk reclaimed from a fenced worker was
  // sent again exactly once (a completed run never drops or duplicates work).
  if (faults.chunks_lost != faults.chunks_redispatched) {
    std::ostringstream out;
    out << "re-dispatch: " << faults.chunks_lost << " chunks lost but "
        << faults.chunks_redispatched << " re-dispatched";
    report.violations.push_back(out.str());
  }
  check_sum(report, "bytes re-dispatched", faults.work_redispatched, faults.work_lost,
            options.work_tolerance);
  // Banking conservation, at the engine-identity tolerance (1e-9, far tighter
  // than the policy-facing work tolerance): every net-dispatched unit was
  // either computed to completion or banked at an abort. The two sides
  // telescope exactly — any drift here is engine bookkeeping, not noise.
  check_sum(report, "bytes computed + banked vs net dispatched", computed + faults.work_banked,
            result.work_dispatched - faults.work_redispatched, 1e-9);

  // Per-worker timing sanity against the makespan.
  for (std::size_t i = 0; i < result.workers.size(); ++i) {
    const sim::WorkerOutcome& w = result.workers[i];
    const auto fail = [&](const char* what, double got, double bound) {
      std::ostringstream out;
      out << "worker " << i << ' ' << what << " (" << got << ") exceeds " << bound;
      report.violations.push_back(out.str());
    };
    if (w.busy_time > result.makespan + options.time_tolerance) {
      fail("busy time", w.busy_time, result.makespan);
    }
    if (w.last_end > result.makespan + options.time_tolerance) {
      fail("last completion", w.last_end, result.makespan);
    }
    if (w.chunks > 0 && w.first_start > w.last_end + options.time_tolerance) {
      fail("first start", w.first_start, w.last_end);
    }
    if (w.chunks > 0 && w.busy_time > (w.last_end - w.first_start) + options.time_tolerance) {
      fail("busy time", w.busy_time, w.last_end - w.first_start);
    }
  }

  // Observability identities: audited only when the result carries a real
  // metrics record (a hand-assembled SimResult, as tests build, has an empty
  // one — there is nothing to cross-check).
  if (result.metrics.engine.workers.size() == result.workers.size() &&
      !result.metrics.engine.workers.empty()) {
    audit_metrics(report, result, options);
  }

  if (!result.trace.empty()) audit_trace(report, result, platform, options);
  return report;
}

AuditReport audit_run(const sim::SimResult& result, const platform::StarPlatform& platform,
                      double w_total, const sim::SimOptions& options) {
  TraceAuditOptions audit_options;
  audit_options.work_tolerance = options.work_tolerance;
  audit_options.uplink_channels = options.uplink_channels;
  return audit_sim_result(result, platform, w_total, audit_options);
}

}  // namespace rumr::check
