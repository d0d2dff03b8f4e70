#include "sim/master_worker.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>
#include <limits>
#include <sstream>

#include "check/check.hpp"
#include "util/flat_fifo.hpp"
#include "util/problems.hpp"
#include "des/simulator.hpp"
#include "obs/probe.hpp"
#include "stats/rng.hpp"

namespace rumr::sim {

double SimResult::mean_worker_utilization() const {
  if (workers.empty() || makespan <= 0.0) return 0.0;
  double total = 0.0;
  for (const WorkerOutcome& w : workers) total += w.busy_time / makespan;
  return total / static_cast<double>(workers.size());
}

std::vector<std::string> SimOptions::validate() const {
  std::vector<std::string> errors;
  if (worker_buffer_capacity == 0) {
    errors.emplace_back(
        "worker_buffer_capacity must be >= 1 (1 models the double-buffered "
        "front-end; SIZE_MAX disables blocking)");
  }
  if (uplink_channels == 0) errors.emplace_back("uplink_channels must be >= 1");
  if (output_ratio < 0.0 || !std::isfinite(output_ratio)) {
    errors.emplace_back("output_ratio must be non-negative and finite");
  }
  if (!(work_tolerance > 0.0) || !std::isfinite(work_tolerance)) {
    errors.emplace_back("work_tolerance must be positive and finite");
  }
  if (faults.enabled() || link.enabled() || retransmit.enabled) {
    if (!(fault_tolerance.timeout_slack > 1.0) || !std::isfinite(fault_tolerance.timeout_slack)) {
      errors.emplace_back("fault_tolerance.timeout_slack must be > 1 and finite");
    }
    if (!(fault_tolerance.backoff_base >= 0.0) || !(fault_tolerance.backoff_factor >= 1.0) ||
        !(fault_tolerance.backoff_max >= 0.0)) {
      errors.emplace_back("fault_tolerance backoff parameters are malformed");
    }
  }
  if (link.loss < 0.0 || link.loss > 1.0) errors.emplace_back("link.loss must be in [0, 1]");
  if (link.spike_probability < 0.0 || link.spike_probability > 1.0) {
    errors.emplace_back("link.spike_probability must be in [0, 1]");
  }
  if (!(link.spike_mean >= 0.0) || !std::isfinite(link.spike_mean)) {
    errors.emplace_back("link.spike_mean must be non-negative and finite");
  }
  if (!(link.degraded_mtbf >= 0.0) || !std::isfinite(link.degraded_mtbf) ||
      !(link.degraded_mttr >= 0.0) || !std::isfinite(link.degraded_mttr) ||
      !(link.degraded_factor >= 1.0) || !std::isfinite(link.degraded_factor)) {
    errors.emplace_back(
        "link degradation parameters are malformed (mtbf/mttr >= 0, factor >= 1, all finite)");
  }
  if (retransmit.enabled) {
    if (!(retransmit.alpha > 0.0) || !(retransmit.alpha < 1.0) || !(retransmit.beta > 0.0) ||
        !(retransmit.beta < 1.0)) {
      errors.emplace_back("retransmit alpha and beta must be in (0, 1)");
    }
    if (!(retransmit.k > 0.0) || !std::isfinite(retransmit.k)) {
      errors.emplace_back("retransmit.k must be positive and finite");
    }
    if (!(retransmit.rto_min > 0.0) || !std::isfinite(retransmit.rto_min)) {
      errors.emplace_back("retransmit.rto_min must be positive and finite");
    }
    if (!(retransmit.rto_initial_factor >= 1.0) || !std::isfinite(retransmit.rto_initial_factor)) {
      errors.emplace_back("retransmit.rto_initial_factor must be >= 1 and finite");
    }
    if (retransmit.max_retries == 0) {
      errors.emplace_back("retransmit.max_retries must be >= 1");
    }
  }
  if (!(checkpoint.interval >= 0.0) || !std::isfinite(checkpoint.interval)) {
    errors.emplace_back("checkpoint.interval must be non-negative and finite");
  }
  return errors;
}

namespace {

/// A chunk sitting in a worker's receive queue, waiting for the CPU.
struct QueuedChunk {
  double chunk = 0.0;
  double predicted_comp = 0.0;
  std::uint64_t lease = 0;  ///< Matches its DispatchRecord (faults only).
};

/// Master-side lease record for one dispatched, not-yet-completed chunk.
/// The completion-timeout watchdog is armed from the head record; at a fence
/// all of a worker's records are reclaimed into the re-dispatch pool.
struct DispatchRecord {
  double chunk = 0.0;
  des::SimTime predicted_completion = 0.0;  ///< Model-predicted finish time.
  double predicted_comp = 0.0;              ///< Model-predicted compute duration.
  /// Unique per dispatch. A completion settles the record with the matching
  /// lease, not the head: when an outage drops an earlier delivery, the
  /// worker computes later chunks first, and popping FIFO would reclaim (and
  /// recompute) a chunk that already completed.
  std::uint64_t lease = 0;

  // Retransmit-protocol state (meaningful only when retransmit is enabled).
  des::SimTime dispatched_at = 0.0;  ///< First send start: RTT anchor.
  double rto = 0.0;                  ///< Current retransmission timeout.
  std::size_t attempts = 1;          ///< Payload sends so far (1 = original).
  bool acked = false;                ///< First ACK seen; retransmission stops.
  bool retransmitted = false;        ///< Karn's rule: ACKs give no RTT sample.
  des::EventId retx_event = 0;       ///< Pending retransmission timer.
};

/// A payload awaiting retransmission (its timer fired while the uplink was
/// busy, or it is queued behind other re-sends).
struct RetxItem {
  std::size_t worker = 0;
  std::uint64_t lease = 0;
};

/// The computation a worker is currently running — what partial-work
/// checkpointing banks from when the computation is aborted.
struct ActiveCompute {
  std::uint64_t lease = 0;
  double chunk = 0.0;
  double actual_comp = 0.0;     ///< Perturbed (true) duration of the whole chunk.
  des::SimTime started = 0.0;
};

/// RFC6298-style smoothed estimator: SRTT + RTTVAR over a stream of samples.
/// Used twice — over payload->ACK round trips (retransmission timeout) and
/// over completion-time inflation ratios (adaptive fencing watchdog).
struct SmoothedEstimator {
  bool has_sample = false;
  double srtt = 0.0;
  double rttvar = 0.0;

  void sample(double value, double alpha, double beta) {
    if (!has_sample) {
      srtt = value;
      rttvar = value / 2.0;
      has_sample = true;
    } else {
      rttvar = (1.0 - beta) * rttvar + beta * std::abs(srtt - value);
      srtt = (1.0 - alpha) * srtt + alpha * value;
    }
  }
};

/// A reclaimed chunk awaiting re-dispatch. `was_dispatched` is false for a
/// chunk reclaimed from a blocked (never-sent) rendezvous send: it has not
/// been counted in work_dispatched_ yet, so sending it is a first dispatch,
/// not a re-dispatch.
struct RedispatchItem {
  double chunk = 0.0;
  bool was_dispatched = true;
};

/// Full engine state; implements the policy-visible MasterContext view.
class Engine final : public MasterContext {
 public:
  Engine(const platform::StarPlatform& platform, SchedulerPolicy& policy,
         const SimOptions& options)
      : platform_(platform),
        policy_(policy),
        options_(options),
        rng_(options.seed),
        comm_process_(options.comm_error),
        comp_process_(options.comp_error),
        status_(platform.size()),
        outcomes_(platform.size()),
        queues_(platform.size()),
        computing_(platform.size(), false),
        in_flight_(platform.size(), 0),
        pending_pred_comp_(platform.size()),
        faults_on_(options.faults.enabled()),
        ground_alive_(platform.size(), true),
        believed_down_(platform.size(), false),
        down_since_(platform.size(), 0.0),
        fault_event_(platform.size(), 0),
        rejoin_event_(platform.size(), 0),
        timeout_event_(platform.size(), 0),
        compute_event_(platform.size(), 0),
        compute_span_(platform.size(), kNoSpan),
        blacklist_until_(platform.size(), 0.0),
        suspicions_(platform.size(), 0),
        lease_epoch_(platform.size(), 0),
        dispatch_records_(platform.size()),
        probe_(platform.size()),
        chunk_hist_(obs::Histogram::exponential(kChunkHistFirstEdge, 2.0, kHistBuckets)),
        comp_hist_(obs::Histogram::exponential(kCompHistFirstEdge, 2.0, kHistBuckets)) {
    if (const std::vector<std::string> errors = options.validate(); !errors.empty()) {
      throw SimError(util::join_problems("invalid SimOptions:", errors));
    }
    // No observer is attached: the kernel maintains every metric we report
    // (schedule/execute/cancel counts, queue-depth high-water) natively, so
    // the DES hot path runs with its observer branch never taken.
    if (faults_on_) {
      // Throws std::invalid_argument on a malformed FaultSpec.
      timeline_ = faults::FaultTimeline(options.faults, platform.size(), options.seed);
    }
    // The recovery machinery (leases, watchdog, re-dispatch) arms whenever
    // anything can take a dispatched chunk away from its worker: worker
    // faults, a faulty link, or the retransmit protocol itself. With all
    // three disabled the whole layer is inert — zero events, zero RNG draws.
    link_on_ = options.link.enabled();
    retransmit_on_ = options.retransmit.enabled;
    checkpoint_on_ = options.checkpoint.interval > 0.0;
    recovery_on_ = faults_on_ || link_on_ || retransmit_on_;
    if (link_on_) {
      // Dedicated per-worker message lanes; never touches rng_.
      link_ = faults::LinkTimeline(options.link, platform.size(), options.seed);
    }
    if (recovery_on_) active_.resize(platform.size());
    if (retransmit_on_) {
      reserved_.assign(platform.size(), 0);
      accepted_leases_.resize(platform.size());
      rtt_.resize(platform.size());
      ratio_.resize(platform.size());
    }
    timeout_hist_ = obs::Histogram::exponential(kTimeoutHistFirstEdge, 2.0, kTimeoutHistBuckets);
    rto_hist_ = obs::Histogram::exponential(kTimeoutHistFirstEdge, 2.0, kTimeoutHistBuckets);
  }

  // MasterContext -----------------------------------------------------------
  [[nodiscard]] des::SimTime now() const override { return sim_.now(); }
  [[nodiscard]] const platform::StarPlatform& platform() const override { return platform_; }
  [[nodiscard]] std::size_t num_workers() const override { return platform_.size(); }
  [[nodiscard]] const WorkerStatus& worker_status(std::size_t i) const override {
    return status_.at(i);
  }
  [[nodiscard]] bool can_receive(std::size_t i) const override {
    return committed_slots(i) < options_.worker_buffer_capacity;
  }

  SimResult run() {
    // rumr-lint: allow(wall-clock) obs events/sec throughput metric only; never feeds simulated state
    const auto wall_start = std::chrono::steady_clock::now();
    if (faults_on_) {
      for (std::size_t w = 0; w < platform_.size(); ++w) schedule_ground_fault(w, 0.0);
    }
    try_dispatch();
    if (recovery_on_) maybe_finish();  // Zero-work edge: nothing was ever pending.
    const std::size_t budget =
        options_.max_events > 0 ? options_.max_events : des::Simulator::kDefaultMaxEvents;
    sim_.run(budget);
    if (sim_.events_pending() > 0) {
      std::ostringstream msg;
      msg << "policy '" << policy_.name() << "' exhausted the event budget (" << budget
          << " events) at t=" << sim_.now() << " with " << sim_.events_pending()
          << " events pending — the run is not converging (livelock or runaway fault churn)";
      describe_workers(msg);
      throw SimError(msg.str());
    }
    const double wall_seconds =
        // rumr-lint: allow(wall-clock) closes the obs events/sec measurement opened above
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    finalize_checks();

    // Close the Gantt row of workers that never recovered: their outage
    // interval extends past the end of the run.
    if (faults_on_ && options_.record_trace) {
      for (std::size_t w = 0; w < platform_.size(); ++w) {
        if (!ground_alive_[w]) {
          trace_.add({SpanKind::kDown, w, 0.0, down_since_[w],
                      std::max(makespan_, down_since_[w])});
        }
      }
    }

    SimResult result;
    result.makespan = makespan_;
    result.chunks_dispatched = chunks_dispatched_;
    result.work_dispatched = work_dispatched_;
    result.uplink_busy_time = uplink_busy_time_;
    result.downlink_busy_time = downlink_busy_time_;
    result.events = sim_.events_processed();
    result.workers = outcomes_;
    result.faults = fstats_;
    result.metrics = collect_metrics(wall_seconds);
    result.metrics.engine.mean_worker_utilization = result.mean_worker_utilization();
    result.trace = std::move(trace_);
    return result;
  }

 private:
  /// Buffer slots committed at worker w: chunks received but not yet
  /// computing, plus chunks in flight toward it. In retransmit mode the
  /// in-flight term is replaced by the per-lease reservation count — a lost
  /// payload keeps its slot reserved until the retransmission lands (or the
  /// worker is fenced), so re-sends can never overcommit the buffer.
  [[nodiscard]] std::size_t committed_slots(std::size_t w) const {
    return queues_[w].size() + (retransmit_on_ ? reserved_[w] : in_flight_[w]);
  }

  /// Packages the probes' accounting into the RunMetrics record. Closes the
  /// probes at the makespan and moves the histograms out — call once, at the
  /// end of run().
  [[nodiscard]] obs::RunMetrics collect_metrics(double wall_seconds) {
    obs::RunMetrics m;
    m.makespan = makespan_;

    m.des.events_scheduled = sim_.events_scheduled();
    m.des.events_executed = sim_.events_processed();
    m.des.events_cancelled = sim_.events_cancelled();
    m.des.queue_depth_high_water = sim_.queue_depth_high_water();
    m.des.wall_seconds = wall_seconds;
    m.des.events_per_second =
        wall_seconds > 0.0 ? static_cast<double>(sim_.events_processed()) / wall_seconds : 0.0;

    m.engine.workers = probe_.finish(makespan_);
    m.engine.uplink_busy_time = probe_.uplink_busy_time();
    m.engine.uplink_idle_time = probe_.uplink_idle_time();
    m.engine.uplink_utilization =
        makespan_ > 0.0 ? probe_.uplink_busy_time() / makespan_ : 0.0;
    m.engine.uplink_transfer_time = uplink_busy_time_;
    m.engine.downlink_busy_time = downlink_busy_time_;
    m.engine.hol_blocking_time = probe_.hol_blocking_time();
    m.engine.dispatches = chunks_dispatched_;
    for (const obs::WorkerSpans& ws : m.engine.workers) m.engine.completions += ws.completions;
    m.engine.redispatches = fstats_.chunks_redispatched;
    m.engine.work_dispatched = work_dispatched_;
    m.engine.work_redispatched = fstats_.work_redispatched;
    m.engine.chunk_sizes = std::move(chunk_hist_);
    m.engine.compute_durations = std::move(comp_hist_);
    m.engine.timeout_windows = std::move(timeout_hist_);
    m.engine.rto_values = std::move(rto_hist_);

    m.faults.failures = fstats_.failures;
    m.faults.recoveries = fstats_.recoveries;
    m.faults.fencings = fstats_.suspicions;
    m.faults.false_suspicions = false_suspicions_;
    m.faults.backoff_retries = backoff_retries_;
    m.faults.rejoins = fstats_.rejoins;
    m.faults.chunks_lost = fstats_.chunks_lost;
    m.faults.chunks_redispatched = fstats_.chunks_redispatched;
    m.faults.messages_lost = fstats_.messages_lost;
    m.faults.latency_spikes = fstats_.latency_spikes;
    m.faults.degraded_sends = fstats_.degraded_sends;
    m.faults.retransmits = fstats_.retransmits;
    m.faults.work_retransmitted = fstats_.work_retransmitted;
    m.faults.duplicates_suppressed = fstats_.duplicates_suppressed;
    m.faults.checkpoints_banked = fstats_.checkpoints_banked;
    m.faults.work_banked = fstats_.work_banked;
    return m;
  }

  // Fault layer ------------------------------------------------------------
  //
  // Two views of worker availability are kept strictly separate:
  //   - ground truth (ground_alive_, driven by the FaultTimeline), which only
  //     the physical event handlers consult, and
  //   - the master's belief (believed_down_ / WorkerStatus::alive), which
  //     changes only through the completion-timeout watchdog (fence) and the
  //     post-backoff rejoin — never by peeking at ground truth.

  /// Schedules the worker's next ground-truth failure at/after `from`.
  void schedule_ground_fault(std::size_t w, des::SimTime from) {
    const std::optional<faults::Outage> outage = timeline_.next_outage(w, from);
    if (!outage) return;
    const des::SimTime at = std::max(outage->down, from);
    fault_event_[w] = sim_.schedule_at(at, [this, w, o = *outage] {
      fault_event_[w] = 0;
      ground_down(w, o);
    });
  }

  /// Ground truth: worker w crashes. Everything it holds — queued chunks and
  /// the computation in progress — is lost. The master is NOT told; it finds
  /// out when the completion-timeout fires.
  void ground_down(std::size_t w, const faults::Outage& o) {
    ground_alive_[w] = false;
    down_since_[w] = sim_.now();
    ++fstats_.failures;
    queues_[w].clear();
    abort_compute(w);
    probe_.worker_down(w, sim_.now());
    if (!o.permanent()) {
      fault_event_[w] = sim_.schedule_at(o.up, [this, w] {
        fault_event_[w] = 0;
        ground_up(w);
      });
    }
  }

  /// Ground truth: worker w recovers (empty-handed). If the master had
  /// fenced it, the worker pings the master and is re-admitted once its
  /// blacklist backoff expires.
  void ground_up(std::size_t w) {
    ground_alive_[w] = true;
    ++fstats_.recoveries;
    probe_.worker_up(w, sim_.now());
    if (options_.record_trace) {
      trace_.add({SpanKind::kDown, w, 0.0, down_since_[w], sim_.now()});
    }
    if (believed_down_[w]) schedule_rejoin(w);
    schedule_ground_fault(w, sim_.now());
  }

  /// Cuts short the computation in progress at w (if any). With partial-work
  /// checkpointing the banked fraction survives (the lease's dispatch record
  /// shrinks to the remainder); the rest is discarded. The trace span is
  /// truncated and re-labeled.
  void abort_compute(std::size_t w) {
    if (!computing_[w]) return;
    computing_[w] = false;
    if (checkpoint_on_) bank_progress(w);
    if (recovery_on_) active_[w] = ActiveCompute{};
    probe_.compute_abort(w, sim_.now());
    sim_.cancel(compute_event_[w]);
    compute_event_[w] = 0;
    if (options_.record_trace && compute_span_[w] != kNoSpan) {
      trace_.truncate(compute_span_[w], sim_.now(), SpanKind::kAborted);
    }
    compute_span_[w] = kNoSpan;
  }

  /// The master-side lease record with this id, or nullptr once settled.
  [[nodiscard]] DispatchRecord* find_record(std::size_t w, std::uint64_t lease) {
    for (DispatchRecord& rec : dispatch_records_[w]) {
      if (rec.lease == lease) return &rec;
    }
    return nullptr;
  }

  /// Partial-work checkpointing: the aborted computation banked the fraction
  /// of its chunk completed by the last checkpoint tick. The banked work is
  /// final — the lease's dispatch record is reduced to the remainder, so a
  /// later fence reclaims (and re-dispatches) only what was actually lost.
  void bank_progress(std::size_t w) {
    const ActiveCompute& ac = active_[w];
    if (!(ac.actual_comp > 0.0)) return;
    const double interval = options_.checkpoint.interval;
    const double elapsed = sim_.now() - ac.started;
    const double ticks = std::floor(elapsed / interval);
    if (ticks <= 0.0) return;
    // Cap strictly below the whole chunk: an abort racing the completion
    // event at the same timestamp must still leave a positive remainder to
    // re-dispatch.
    const double fraction = std::min(ticks * interval / ac.actual_comp, 1.0 - 1e-9);
    const double banked = ac.chunk * fraction;
    if (!(banked > 0.0)) return;
    DispatchRecord* rec = find_record(w, ac.lease);
    RUMR_CHECK(rec != nullptr, "banked progress for a lease with no dispatch record");
    if (rec == nullptr) return;
    rec->chunk -= banked;
    ++fstats_.checkpoints_banked;
    fstats_.work_banked += banked;
  }

  /// Schedules re-admission of a fenced worker at the end of its blacklist
  /// window. Deduplicated: at most one rejoin event per worker.
  void schedule_rejoin(std::size_t w) {
    if (rejoin_event_[w] != 0) return;
    ++backoff_retries_;
    const des::SimTime at = std::max(sim_.now(), blacklist_until_[w]);
    rejoin_event_[w] = sim_.schedule_at(at, [this, w] {
      rejoin_event_[w] = 0;
      try_rejoin(w);
    });
  }

  void try_rejoin(std::size_t w) {
    // A worker that went down again before its backoff expired re-pings on
    // its next recovery (ground_up re-checks believed_down_).
    if (work_all_done_ || !believed_down_[w] || !ground_alive_[w]) return;
    believed_down_[w] = false;
    WorkerStatus& st = status_[w];
    st.alive = true;
    st.predicted_ready = sim_.now();
    ++fstats_.rejoins;
    policy_.on_worker_up(*this, w);
    try_dispatch();
  }

  /// Arms the completion-timeout watchdog for w's oldest outstanding chunk:
  /// if no completion arrives within timeout_slack times the predicted
  /// remaining duration, the worker is presumed lost. One timer per worker.
  void arm_timeout(std::size_t w) {
    if (!recovery_on_ || timeout_event_[w] != 0 || dispatch_records_[w].empty()) return;
    const DispatchRecord& head = dispatch_records_[w].front();
    // The floor of one predicted compute time keeps the window sane when the
    // prediction is already overdue (predicted_completion < now).
    const double remaining =
        std::max(head.predicted_completion - sim_.now(), head.predicted_comp);
    // With the retransmit protocol the fixed timeout_slack is only the
    // bootstrap: once this worker has completion history, the EWMA + variance
    // of its observed completion-time inflation (actual round trip over
    // predicted, RFC6298 shape) sets the slack adaptively.
    double slack = options_.fault_tolerance.timeout_slack;
    if (retransmit_on_ && ratio_[w].has_sample) {
      slack = std::max(kAdaptiveSlackFloor,
                       ratio_[w].srtt + options_.retransmit.k * ratio_[w].rttvar);
    }
    const double window = slack * remaining;
    timeout_hist_.add(window);
    const des::SimTime deadline = sim_.now() + window;
    timeout_event_[w] = sim_.schedule_at(deadline, [this, w] {
      timeout_event_[w] = 0;
      fence(w);
    });
  }

  /// The completion-timeout fired: the master fences w. The fence is
  /// authoritative — the worker's lease is revoked (late arrivals from
  /// before the fence are discarded via the lease epoch), every outstanding
  /// chunk is reclaimed into the re-dispatch pool, and the worker is
  /// blacklisted with exponential backoff before it may rejoin.
  void fence(std::size_t w) {
    WorkerStatus& st = status_[w];
    ++fstats_.suspicions;
    ++suspicions_[w];
    st.alive = false;
    st.suspected = true;
    st.suspicions = suspicions_[w];
    believed_down_[w] = true;

    const auto& ft = options_.fault_tolerance;
    const double backoff =
        std::min(ft.backoff_max,
                 ft.backoff_base *
                     std::pow(ft.backoff_factor, static_cast<double>(suspicions_[w] - 1)));
    blacklist_until_[w] = sim_.now() + backoff;

    // Abort the running computation *before* reclaiming the records: with
    // checkpointing on, the abort banks the completed fraction and shrinks
    // the matching record, so the loop below reclaims only the remainder.
    abort_compute(w);
    for (DispatchRecord& rec : dispatch_records_[w]) {
      if (rec.retx_event != 0) {
        sim_.cancel(rec.retx_event);
        rec.retx_event = 0;
      }
      redispatch_queue_.push_back({rec.chunk, true});
      ++fstats_.chunks_lost;
      fstats_.work_lost += rec.chunk;
    }
    dispatch_records_[w].clear();
    st.outstanding = 0;
    pending_pred_comp_[w].clear();
    st.predicted_ready = sim_.now();
    ++lease_epoch_[w];
    queues_[w].clear();
    if (retransmit_on_) {
      // Every reservation belonged to a reclaimed lease; the epoch bump
      // makes old leases unreachable, so the suppression set can be dropped.
      reserved_[w] = 0;
      accepted_leases_[w].clear();
    }

    // A rendezvous send blocked on this worker is reclaimed too. It was
    // never counted as dispatched (begin_send did not run), so it re-enters
    // the pool as a first dispatch, not a re-dispatch.
    if (pending_send_ && pending_send_->worker == w) {
      redispatch_queue_.push_back({pending_send_->chunk, false});
      pending_send_.reset();
      RUMR_CHECK(busy_channels_ > 0, "blocked send reclaimed with no channel held");
      --busy_channels_;
      probe_.uplink_channels(busy_channels_, sim_.now());
      probe_.block_end(sim_.now());
    }

    if (ground_alive_[w]) {
      // False positive: the worker is actually up (prediction-error artifact)
      // and can re-ping after its backoff.
      ++false_suspicions_;
      schedule_rejoin(w);
    }
    policy_.on_worker_down(*this, w);
    try_dispatch();
  }

  /// Sends reclaimed chunks to the best believed-alive worker (lowest
  /// predicted_ready, ties to the lowest index) that can receive right now.
  /// Re-dispatches take priority over fresh policy dispatches.
  void drain_redispatch() {
    while (busy_channels_ < options_.uplink_channels && !pending_send_ &&
           !redispatch_queue_.empty()) {
      std::optional<std::size_t> target;
      for (std::size_t w = 0; w < platform_.size(); ++w) {
        if (believed_down_[w] || !can_receive(w)) continue;
        if (!target || status_[w].predicted_ready < status_[*target].predicted_ready) {
          target = w;
        }
      }
      if (!target) return;  // Retried when a buffer slot or worker frees up.
      const RedispatchItem item = redispatch_queue_.front();
      redispatch_queue_.pop_front();
      if (item.was_dispatched) {
        ++fstats_.chunks_redispatched;
        fstats_.work_redispatched += item.chunk;
      }
      begin_send({*target, item.chunk});
    }
  }

  /// Once the workload is fully computed and drained, cancel every pending
  /// fault-layer event so the simulation can end (a transient timeline would
  /// otherwise generate outages forever).
  void maybe_finish() {
    if (!recovery_on_ || work_all_done_) return;
    if (!policy_.finished() || !redispatch_queue_.empty() || pending_send_) return;
    for (std::size_t w = 0; w < platform_.size(); ++w) {
      if (status_[w].outstanding != 0) return;
    }
    // retx_queue_ is deliberately NOT a finish blocker: a dispatch record
    // exists exactly while its chunk is outstanding, so with every worker at
    // outstanding == 0 any queued retransmission is already settled (its
    // record was erased by the completion or fence that zeroed the count) and
    // drain_retransmissions would only discard it. Gating on the queue here
    // livelocks: when the final completion lands while the uplink is busy,
    // the settled item survives this call, is dropped later inside
    // try_dispatch (which never re-checks finish), and a transient fault
    // timeline then respawns outage events forever.
    if (!output_queue_.empty() || downlink_busy_) return;
    work_all_done_ = true;
    for (std::size_t w = 0; w < platform_.size(); ++w) {
      if (fault_event_[w] != 0) sim_.cancel(fault_event_[w]);
      if (rejoin_event_[w] != 0) sim_.cancel(rejoin_event_[w]);
      if (timeout_event_[w] != 0) sim_.cancel(timeout_event_[w]);
      fault_event_[w] = rejoin_event_[w] = timeout_event_[w] = 0;
    }
  }

  /// Pulls payloads whose retransmission timer fired back onto the uplink.
  /// Runs ahead of the re-dispatch pool: a retransmission races a watchdog
  /// fence, so it gets the channel first.
  void drain_retransmissions() {
    while (busy_channels_ < options_.uplink_channels && !pending_send_ && !retx_queue_.empty()) {
      const RetxItem item = retx_queue_.front();
      retx_queue_.pop_front();
      DispatchRecord* rec = find_record(item.worker, item.lease);
      // Settled (ACKed, completed, or fenced) while queued: nothing to send.
      if (rec == nullptr || rec->acked || believed_down_[item.worker]) continue;
      begin_retransmit(item.worker, *rec);
    }
  }

  void try_dispatch() {
    if (recovery_on_) {
      if (retransmit_on_) drain_retransmissions();
      drain_redispatch();
    }
    // The pending (blocked) send is the head of the master's queue; nothing
    // may overtake it.
    while (busy_channels_ < options_.uplink_channels && !pending_send_) {
      const std::optional<Dispatch> next = policy_.next_dispatch(*this);
      if (!next) {
        schedule_timed_poll();
        return;
      }
      validate_dispatch(*next);
      if (committed_slots(next->worker) >= options_.worker_buffer_capacity) {
        // Rendezvous semantics: the target cannot post a receive, so the
        // master blocks — a channel is held (head-of-line blocking) until
        // the worker frees a buffer slot.
        pending_send_ = *next;
        ++busy_channels_;
        probe_.uplink_channels(busy_channels_, sim_.now());
        probe_.block_begin(sim_.now());
        return;
      }
      begin_send(*next);
    }
  }

  /// Supports timetable-driven policies: when the policy declines to
  /// dispatch but names a wake-up time, poll again then. Deduplicated so at
  /// most one poll event is outstanding.
  void schedule_timed_poll() {
    const std::optional<des::SimTime> wanted = policy_.next_poll_time();
    if (!wanted || *wanted <= sim_.now()) return;
    if (scheduled_poll_ <= *wanted) return;  // An earlier poll is already pending.
    scheduled_poll_ = *wanted;
    sim_.schedule_at(*wanted, [this, at = *wanted] {
      if (scheduled_poll_ == at) scheduled_poll_ = kNoPoll;
      try_dispatch();
    });
  }

  /// Draws the link fate of a message toward/from w (payload or ACK) and
  /// applies the bandwidth-degradation stretch to the serialized basis. Zero
  /// RNG-lane draws when the link layer is off.
  [[nodiscard]] faults::LinkTimeline::MessageFate link_fate(std::size_t w, double& serial_basis) {
    faults::LinkTimeline::MessageFate fate;
    if (!link_on_) return fate;
    fate = link_.message_fate(w, sim_.now());
    if (fate.stretch > 1.0) {
      // Only the bandwidth term stretches inside a degradation window; the
      // latencies are unaffected. The master's predictions keep the clean
      // model — it does not know the window exists.
      const double latency = platform_.worker(w).comm_latency;
      serial_basis = latency + (serial_basis - latency) * fate.stretch;
    }
    if (fate.lost) ++fstats_.messages_lost;
    if (fate.spike > 0.0) ++fstats_.latency_spikes;
    return fate;
  }

  void begin_send(const Dispatch& d) {
    const std::size_t w = d.worker;
    const double chunk = d.chunk;

    const double predicted_serial = platform_.comm_serial_time(w, chunk);
    const double predicted_tail = platform_.worker(w).transfer_latency;
    const double predicted_comp = platform_.comp_time(w, chunk);

    double serial_basis = predicted_serial;
    const faults::LinkTimeline::MessageFate fate = link_fate(w, serial_basis);
    if (fate.stretch > 1.0) ++fstats_.degraded_sends;
    const double actual_serial = comm_process_.actual_duration(serial_basis, rng_);
    const double actual_tail = comm_process_.actual_duration(predicted_tail, rng_);

    const des::SimTime t0 = sim_.now();
    const des::SimTime uplink_free = t0 + actual_serial;
    const des::SimTime arrival = uplink_free + actual_tail + fate.spike;

    ++busy_channels_;
    RUMR_CHECK(busy_channels_ <= options_.uplink_channels, "uplink channel overcommitted");
    probe_.uplink_channels(busy_channels_, t0);
    probe_.chunk_dispatched(w);
    chunk_hist_.add(chunk);
    uplink_busy_time_ += actual_serial;
    ++chunks_dispatched_;
    work_dispatched_ += chunk;
    ++in_flight_[w];
    if (retransmit_on_) ++reserved_[w];
    RUMR_CHECK(committed_slots(w) <= options_.worker_buffer_capacity,
               "worker receive buffer overcommitted");

    // Master-side prediction bookkeeping (what the master believes, built
    // from the unperturbed model).
    WorkerStatus& st = status_[w];
    ++st.outstanding;
    const des::SimTime predicted_arrival = t0 + predicted_serial + predicted_tail;
    st.predicted_ready = std::max(st.predicted_ready, predicted_arrival) + predicted_comp;
    pending_pred_comp_[w].push_back(predicted_comp);

    const std::uint64_t lease = recovery_on_ ? ++next_lease_ : 0;
    if (recovery_on_) {
      // Lease record: predicted_ready now equals this chunk's predicted
      // completion time, which is what the watchdog times against.
      dispatch_records_[w].push_back({chunk, st.predicted_ready, predicted_comp, lease});
      DispatchRecord& rec = dispatch_records_[w].back();
      rec.dispatched_at = t0;
      if (retransmit_on_) {
        const double predicted_round_trip = 2.0 * (predicted_serial + predicted_tail);
        rec.rto = initial_rto(w, predicted_round_trip);
        arm_retransmit(w, rec, t0);
      }
      arm_timeout(w);
    }

    if (options_.record_trace) {
      trace_.add({SpanKind::kUplink, w, chunk, t0, uplink_free});
      if (arrival > uplink_free) trace_.add({SpanKind::kTail, w, chunk, uplink_free, arrival});
    }

    sim_.schedule_at(uplink_free, [this] {
      RUMR_CHECK(busy_channels_ > 0, "uplink released while no transfer was in progress");
      --busy_channels_;
      probe_.uplink_channels(busy_channels_, sim_.now());
      try_dispatch();
    });
    const std::size_t epoch = recovery_on_ ? lease_epoch_[w] : 0;
    const double recv_duration = actual_serial + actual_tail;
    schedule_arrival(arrival, w, chunk, predicted_comp, epoch, lease, recv_duration, fate.lost);
  }

  /// Physically re-sends an outstanding payload (retransmit protocol). The
  /// uplink is occupied like any transfer, but the dispatch ledgers are
  /// untouched — a retransmission is the same chunk again, not new work —
  /// and the buffer reservation taken at the original send still stands.
  void begin_retransmit(std::size_t w, DispatchRecord& rec) {
    const double chunk = rec.chunk;
    const double predicted_serial = platform_.comm_serial_time(w, chunk);
    const double predicted_tail = platform_.worker(w).transfer_latency;

    double serial_basis = predicted_serial;
    const faults::LinkTimeline::MessageFate fate = link_fate(w, serial_basis);
    if (fate.stretch > 1.0) ++fstats_.degraded_sends;
    const double actual_serial = comm_process_.actual_duration(serial_basis, rng_);
    const double actual_tail = comm_process_.actual_duration(predicted_tail, rng_);

    const des::SimTime t0 = sim_.now();
    const des::SimTime uplink_free = t0 + actual_serial;
    const des::SimTime arrival = uplink_free + actual_tail + fate.spike;

    ++busy_channels_;
    RUMR_CHECK(busy_channels_ <= options_.uplink_channels, "uplink channel overcommitted");
    probe_.uplink_channels(busy_channels_, t0);
    uplink_busy_time_ += actual_serial;
    ++in_flight_[w];

    ++fstats_.retransmits;
    fstats_.work_retransmitted += chunk;
    ++rec.attempts;
    rec.retransmitted = true;  // Karn: this lease's ACKs no longer sample RTT.
    rec.rto *= 2.0;            // Exponential backoff (RFC6298 section 5.5).
    arm_retransmit(w, rec, t0);

    if (options_.record_trace) {
      trace_.add({SpanKind::kUplink, w, chunk, t0, uplink_free});
      if (arrival > uplink_free) trace_.add({SpanKind::kTail, w, chunk, uplink_free, arrival});
    }

    sim_.schedule_at(uplink_free, [this] {
      RUMR_CHECK(busy_channels_ > 0, "uplink released while no transfer was in progress");
      --busy_channels_;
      probe_.uplink_channels(busy_channels_, sim_.now());
      try_dispatch();
    });
    const double recv_duration = actual_serial + actual_tail;
    schedule_arrival(arrival, w, chunk, rec.predicted_comp, lease_epoch_[w], rec.lease,
                     recv_duration, fate.lost);
  }

  /// Common delivery path for originals and retransmissions.
  void schedule_arrival(des::SimTime arrival, std::size_t w, double chunk, double predicted_comp,
                        std::size_t epoch, std::uint64_t lease, double recv_duration, bool lost) {
    sim_.schedule_at(arrival, [this, w, chunk, predicted_comp, epoch, lease, recv_duration,
                               lost] {
      RUMR_CHECK(in_flight_[w] > 0, "chunk arrived at a worker with nothing in flight");
      --in_flight_[w];
      if (recovery_on_ && (epoch != lease_epoch_[w] || !ground_alive_[w])) {
        // Stale lease (the worker was fenced after this send — the chunk was
        // already reclaimed) or a dead target: the payload evaporates. The
        // freed buffer slot may let a blocked send or a queued re-dispatch
        // proceed — without the release here a send that blocked on this
        // worker after its fence deadlocks forever (try_dispatch never runs
        // while a pending send holds the uplink, and maybe_start_compute
        // never fires for a slot freed by evaporation).
        release_blocked_send(w);
        if (!redispatch_queue_.empty() || !retx_queue_.empty()) try_dispatch();
        return;
      }
      if (lost) {
        // Dropped in the network, not at the worker. In retransmit mode the
        // pending timer re-sends it; otherwise the completion watchdog
        // eventually fences the worker and reclaims the lease.
        if (!redispatch_queue_.empty() || !retx_queue_.empty()) try_dispatch();
        return;
      }
      deliver_payload(w, chunk, predicted_comp, lease, recv_duration);
    });
  }

  /// The payload physically reached a live worker with a current lease.
  void deliver_payload(std::size_t w, double chunk, double predicted_comp, std::uint64_t lease,
                       double recv_duration) {
    if (retransmit_on_) {
      if (accepted_leases_[w].count(lease) != 0) {
        // Duplicate of an already-accepted delivery (the original and a
        // retransmission both made it). Suppressed — but re-ACKed, so a
        // master that missed the first ACK stops re-sending.
        ++fstats_.duplicates_suppressed;
        send_ack(w, lease);
        if (!redispatch_queue_.empty() || !retx_queue_.empty()) try_dispatch();
        return;
      }
      accepted_leases_[w].insert(lease);
      RUMR_CHECK(reserved_[w] > 0, "accepted delivery with no reserved buffer slot");
      --reserved_[w];
      send_ack(w, lease);
    }
    probe_.chunk_received(w, recv_duration);
    queues_[w].push_back({chunk, predicted_comp, lease});
    maybe_start_compute(w);
  }

  /// The worker acknowledges an accepted payload. ACKs ride the reverse
  /// channel: no bandwidth term (they are tiny), but the same loss and spike
  /// model as payloads — a lost ACK costs a spurious retransmission, which
  /// duplicate suppression absorbs. Zero main-RNG draws.
  void send_ack(std::size_t w, std::uint64_t lease) {
    const platform::WorkerSpec& spec = platform_.worker(w);
    double serial_basis = 0.0;  // No bandwidth term to stretch.
    const faults::LinkTimeline::MessageFate fate = link_fate(w, serial_basis);
    if (fate.lost) return;  // The master never sees it; the timer re-sends.
    const des::SimTime at =
        sim_.now() + spec.comm_latency + spec.transfer_latency + fate.spike;
    sim_.schedule_at(at, [this, w, lease] { on_ack(w, lease); });
  }

  /// Master side: an ACK for (w, lease) arrived. Settles the retransmission
  /// timer and, per Karn's rule, feeds the RTT estimator only when the
  /// delivery was never retransmitted.
  void on_ack(std::size_t w, std::uint64_t lease) {
    DispatchRecord* rec = find_record(w, lease);
    if (rec == nullptr || rec->acked) return;  // Settled, fenced, or duplicate ACK.
    rec->acked = true;
    if (rec->retx_event != 0) {
      sim_.cancel(rec->retx_event);
      rec->retx_event = 0;
    }
    if (!rec->retransmitted) {
      rtt_[w].sample(sim_.now() - rec->dispatched_at, options_.retransmit.alpha,
                     options_.retransmit.beta);
    }
  }

  /// RTO for a fresh delivery toward w: the RFC6298 estimate once the worker
  /// has RTT history, else a multiple of the model-predicted round trip.
  [[nodiscard]] double initial_rto(std::size_t w, double predicted_round_trip) const {
    const auto& rt = options_.retransmit;
    if (rtt_[w].has_sample) {
      return std::max(rt.rto_min, rtt_[w].srtt + rt.k * rtt_[w].rttvar);
    }
    return std::max(rt.rto_min, rt.rto_initial_factor * predicted_round_trip);
  }

  /// Arms the retransmission timer for one delivery at sent_at + rto.
  void arm_retransmit(std::size_t w, DispatchRecord& rec, des::SimTime sent_at) {
    rto_hist_.add(rec.rto);
    rec.retx_event = sim_.schedule_at(sent_at + rec.rto, [this, w, lease = rec.lease] {
      on_retransmit_timer(w, lease);
    });
  }

  /// No ACK within the RTO: queue a re-send, or fence the worker once the
  /// retry budget is exhausted.
  void on_retransmit_timer(std::size_t w, std::uint64_t lease) {
    DispatchRecord* rec = find_record(w, lease);
    if (rec == nullptr) return;
    rec->retx_event = 0;
    if (rec->acked) return;
    if (rec->attempts >= options_.retransmit.max_retries) {
      fence(w);
      return;
    }
    retx_queue_.push_back({w, lease});
    try_dispatch();
  }

  /// Re-starts a rendezvous-blocked send aimed at worker w once a buffer
  /// slot is free again. Releases the reserved channel first: begin_send
  /// re-acquires it (the transfer time starts now, after the wait).
  void release_blocked_send(std::size_t w) {
    if (pending_send_ && pending_send_->worker == w &&
        committed_slots(w) < options_.worker_buffer_capacity) {
      const Dispatch unblocked = *pending_send_;
      pending_send_.reset();
      --busy_channels_;
      probe_.uplink_channels(busy_channels_, sim_.now());
      probe_.block_end(sim_.now());
      begin_send(unblocked);
    }
  }

  void maybe_start_compute(std::size_t w) {
    if (recovery_on_ && !ground_alive_[w]) return;
    if (computing_[w] || queues_[w].empty()) return;
    const QueuedChunk next = queues_[w].front();
    queues_[w].pop_front();
    computing_[w] = true;
    probe_.compute_begin(w, sim_.now());

    // Popping freed a buffer slot; a blocked send waiting on this worker can
    // proceed now (its transfer time starts here, after the wait).
    release_blocked_send(w);

    const double actual_comp = comp_process_.actual_duration(next.predicted_comp, rng_);
    const des::SimTime t0 = sim_.now();
    const des::SimTime t1 = t0 + actual_comp;

    WorkerOutcome& out = outcomes_[w];
    if (out.chunks == 0) out.first_start = t0;
    if (options_.record_trace) {
      if (recovery_on_) compute_span_[w] = trace_.size();
      trace_.add({SpanKind::kCompute, w, next.chunk, t0, t1});
    }

    const des::EventId done = sim_.schedule_at(t1, [this, w, next, actual_comp, t1] {
      complete_chunk(w, next, actual_comp, t1);
    });
    if (recovery_on_) {
      compute_event_[w] = done;
      active_[w] = ActiveCompute{next.lease, next.chunk, actual_comp, t0};
    }

    // The freed slot may also admit a queued re-dispatch or re-send.
    if (recovery_on_ && (!redispatch_queue_.empty() || !retx_queue_.empty())) try_dispatch();
  }

  void complete_chunk(std::size_t w, const QueuedChunk& done, double actual_comp,
                      des::SimTime t1) {
    RUMR_CHECK(computing_[w], "completion for a worker that was not computing");
    computing_[w] = false;
    if (recovery_on_) {
      RUMR_CHECK(ground_alive_[w], "completion from a ground-dead worker");
      compute_event_[w] = 0;
      compute_span_[w] = kNoSpan;
      active_[w] = ActiveCompute{};
      if (timeout_event_[w] != 0) {
        sim_.cancel(timeout_event_[w]);
        timeout_event_[w] = 0;
      }
      // Settle this chunk's lease by identity — completions can arrive out of
      // dispatch order when an outage dropped an earlier delivery.
      auto& records = dispatch_records_[w];
      for (auto it = records.begin(); it != records.end(); ++it) {
        if (it->lease == done.lease) {
          if (retransmit_on_) {
            // A completion is an implicit (cumulative) ACK.
            if (it->retx_event != 0) {
              sim_.cancel(it->retx_event);
              it->retx_event = 0;
            }
            // Feed the adaptive fencing watchdog: how much longer than
            // predicted did this chunk's full round trip take?
            const double predicted_rt = it->predicted_completion - it->dispatched_at;
            if (predicted_rt > 0.0) {
              ratio_[w].sample((t1 - it->dispatched_at) / predicted_rt,
                               options_.retransmit.alpha, options_.retransmit.beta);
            }
          }
          records.erase(it);
          break;
        }
      }
      arm_timeout(w);
    }

    probe_.compute_end(w, t1);
    probe_.chunk_completed(w);
    comp_hist_.add(actual_comp);

    WorkerOutcome& out = outcomes_[w];
    out.work += done.chunk;
    ++out.chunks;
    out.busy_time += actual_comp;
    out.last_end = t1;
    makespan_ = std::max(makespan_, t1);

    WorkerStatus& st = status_[w];
    --st.outstanding;
    st.completed_work += done.chunk;
    ++st.completed_chunks;
    st.last_completion = t1;
    // Re-anchor the prediction on observed reality: the worker will be busy
    // for (predicted) the sum of computations still owed to it.
    if (!pending_pred_comp_[w].empty()) pending_pred_comp_[w].pop_front();
    double remaining_pred = 0.0;
    for (double p : pending_pred_comp_[w]) remaining_pred += p;
    st.predicted_ready = t1 + remaining_pred;

    const CompletionInfo info{w, done.chunk, done.predicted_comp, actual_comp, t1};
    policy_.on_chunk_completed(*this, info);

    if (options_.output_ratio > 0.0) enqueue_output(w, done.chunk * options_.output_ratio);

    maybe_start_compute(w);
    try_dispatch();
    if (recovery_on_) maybe_finish();
  }

  /// Output-data model: results return to the master over a shared,
  /// serialized downlink (FIFO). The makespan extends to the last arrival.
  void enqueue_output(std::size_t w, double amount) {
    output_queue_.push_back({w, amount});
    maybe_start_output();
  }

  void maybe_start_output() {
    if (downlink_busy_ || output_queue_.empty()) return;
    const auto [w, amount] = output_queue_.front();
    output_queue_.pop_front();
    downlink_busy_ = true;

    const platform::WorkerSpec& spec = platform_.worker(w);
    const double predicted =
        spec.comm_latency + amount / spec.bandwidth + spec.transfer_latency;
    const double actual = comm_process_.actual_duration(predicted, rng_);
    const des::SimTime t0 = sim_.now();
    const des::SimTime t1 = t0 + actual;
    downlink_busy_time_ += actual;
    if (options_.record_trace) trace_.add({SpanKind::kOutput, w, amount, t0, t1});
    sim_.schedule_at(t1, [this, t1] {
      downlink_busy_ = false;
      makespan_ = std::max(makespan_, t1);
      maybe_start_output();
      if (recovery_on_) maybe_finish();
    });
  }

  void validate_dispatch(const Dispatch& d) const {
    if (d.worker >= platform_.size()) {
      throw SimError("policy '" + std::string(policy_.name()) + "' dispatched to worker " +
                     std::to_string(d.worker) + " of " + std::to_string(platform_.size()));
    }
    if (!(d.chunk > 0.0) || !std::isfinite(d.chunk)) {
      throw SimError("policy '" + std::string(policy_.name()) +
                     "' dispatched a non-positive chunk: " + std::to_string(d.chunk));
    }
    if (recovery_on_ && believed_down_[d.worker]) {
      throw SimError("policy '" + std::string(policy_.name()) + "' dispatched to worker " +
                     std::to_string(d.worker) +
                     ", which the master fenced (WorkerStatus::alive is false)");
    }
  }

  /// Per-worker state dump appended to deadlock/stranding diagnostics.
  void describe_workers(std::ostringstream& msg) const {
    for (std::size_t w = 0; w < platform_.size(); ++w) {
      const WorkerStatus& st = status_[w];
      msg << "\n  worker " << w << ": believed " << (believed_down_[w] ? "down" : "alive");
      if (recovery_on_) msg << ", actually " << (ground_alive_[w] ? "up" : "down");
      msg << ", outstanding=" << st.outstanding << ", queued=" << queues_[w].size()
          << ", in_flight=" << in_flight_[w] << ", computing=" << (computing_[w] ? "yes" : "no");
      if (suspicions_[w] > 0) msg << ", fenced x" << suspicions_[w];
    }
    if (recovery_on_ && !redispatch_queue_.empty()) {
      double pool = 0.0;
      for (const RedispatchItem& item : redispatch_queue_) pool += item.chunk;
      msg << "\n  re-dispatch pool: " << redispatch_queue_.size() << " chunks (" << pool
          << " units) with no eligible target";
    }
    if (pending_send_) {
      msg << "\n  blocked send: " << pending_send_->chunk << " units for worker "
          << pending_send_->worker;
    }
  }

  void finalize_checks() const {
    const bool stranded_work = recovery_on_ && !redispatch_queue_.empty();
    if (!policy_.finished() || stranded_work) {
      std::size_t believed_alive = 0;
      for (std::size_t w = 0; w < platform_.size(); ++w) {
        if (!believed_down_[w]) ++believed_alive;
      }
      std::ostringstream msg;
      msg << "policy '" << policy_.name() << "' ";
      if (recovery_on_ && believed_alive == 0) {
        msg << "stranded: all workers are dead or unreachable";
      } else {
        msg << "deadlocked: simulation drained";
      }
      msg << " at t=" << sim_.now() << " with work remaining (" << work_dispatched_ << " of "
          << policy_.total_work() << " units dispatched, "
          << (policy_.finished() ? "policy finished" : "policy unfinished") << ")";
      describe_workers(msg);
      throw SimError(msg.str());
    }
    const double expected = policy_.total_work();
    // Re-dispatched work was counted in work_dispatched_ twice (or more);
    // conservation holds for the net amount.
    const double net_dispatched = work_dispatched_ - fstats_.work_redispatched;
    const double scale = std::max(1.0, std::abs(expected));
    if (std::abs(net_dispatched - expected) > options_.work_tolerance * scale) {
      std::ostringstream msg;
      msg << "policy '" << policy_.name() << "' dispatched " << net_dispatched
          << " net units, expected " << expected << " (tolerance " << options_.work_tolerance
          << ")";
      throw SimError(msg.str());
    }
    // Exactly-once re-dispatch: at a successful drain every reclaimed chunk
    // was sent again exactly once.
    RUMR_CHECK(fstats_.chunks_lost == fstats_.chunks_redispatched,
               "lost chunks not re-dispatched exactly once");
    RUMR_CHECK(std::abs(fstats_.work_lost - fstats_.work_redispatched) <=
                   options_.work_tolerance * scale,
               "lost work not re-dispatched exactly once");
    // Partial-work banking conservation: every net-dispatched unit was either
    // computed to completion or banked at an abort — at 1e-9, far tighter than
    // the policy-facing tolerance (this is an engine-internal identity).
    double computed = 0.0;
    for (const WorkerOutcome& out : outcomes_) computed += out.work;
    RUMR_CHECK(std::abs(computed + fstats_.work_banked - net_dispatched) <= 1e-9 * scale,
               "computed + banked work does not reproduce the net dispatched workload");
    // Engine-internal drain invariants, checked after the policy-misbehavior
    // paths above (a deadlocked policy legitimately leaves a blocked send
    // behind; these tripping on a *finished* run means an engine bug).
    RUMR_CHECK(busy_channels_ == 0 && !pending_send_,
               "drained with a transfer still holding the uplink");
    for (std::size_t w = 0; w < platform_.size(); ++w) {
      RUMR_CHECK(in_flight_[w] == 0, "drained with a chunk still in flight");
      if (retransmit_on_) RUMR_CHECK(reserved_[w] == 0, "drained with reserved buffer slots");
      RUMR_CHECK(queues_[w].empty(), "drained with a chunk still queued at a worker");
      RUMR_CHECK(!computing_[w], "drained with a worker still computing");
    }
    RUMR_CHECK(output_queue_.empty() && !downlink_busy_, "drained with output transfers pending");
  }

  const platform::StarPlatform& platform_;
  SchedulerPolicy& policy_;
  const SimOptions& options_;
  des::Simulator sim_;
  stats::Rng rng_;
  stats::ErrorProcess comm_process_;
  stats::ErrorProcess comp_process_;

  static constexpr des::SimTime kNoPoll = std::numeric_limits<des::SimTime>::infinity();

  std::size_t busy_channels_ = 0;
  bool downlink_busy_ = false;
  util::FlatFifo<std::pair<std::size_t, double>> output_queue_;
  des::SimTime scheduled_poll_ = kNoPoll;
  double uplink_busy_time_ = 0.0;
  double downlink_busy_time_ = 0.0;
  double makespan_ = 0.0;
  std::size_t chunks_dispatched_ = 0;
  double work_dispatched_ = 0.0;

  std::vector<WorkerStatus> status_;
  std::vector<WorkerOutcome> outcomes_;
  std::vector<util::FlatFifo<QueuedChunk>> queues_;
  std::vector<char> computing_;
  std::vector<std::size_t> in_flight_;
  std::optional<Dispatch> pending_send_;
  std::vector<util::FlatFifo<double>> pending_pred_comp_;
  Trace trace_;

  // Fault layer (all inert when faults_on_ is false).
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);
  bool faults_on_ = false;
  faults::FaultTimeline timeline_;
  std::vector<char> ground_alive_;        ///< Ground truth from the timeline.
  std::vector<char> believed_down_;       ///< Master belief (fenced/blacklisted).
  std::vector<des::SimTime> down_since_;  ///< Start of the current outage.
  std::vector<des::EventId> fault_event_;    ///< Pending ground down/up event.
  std::vector<des::EventId> rejoin_event_;   ///< Pending re-admission event.
  std::vector<des::EventId> timeout_event_;  ///< Pending watchdog event.
  std::vector<des::EventId> compute_event_;  ///< Pending completion (abortable).
  std::vector<std::size_t> compute_span_;    ///< Trace index of the running compute.
  std::vector<des::SimTime> blacklist_until_;
  std::vector<std::size_t> suspicions_;
  std::vector<std::size_t> lease_epoch_;  ///< Bumped at each fence; stale arrivals drop.
  std::uint64_t next_lease_ = 0;          ///< Per-dispatch lease id source.
  std::vector<util::FlatFifo<DispatchRecord>> dispatch_records_;
  util::FlatFifo<RedispatchItem> redispatch_queue_;
  FaultSummary fstats_;
  bool work_all_done_ = false;

  // Link-fault layer and retransmit protocol (inert unless enabled).
  bool link_on_ = false;
  bool retransmit_on_ = false;
  bool checkpoint_on_ = false;
  /// faults_on_ || link_on_ || retransmit_on_: leases, watchdog, and the
  /// re-dispatch pool are armed.
  bool recovery_on_ = false;
  faults::LinkTimeline link_;
  /// Per-worker reserved receive-buffer slots (retransmit mode): one per
  /// dispatched-but-not-yet-accepted lease, held across losses and re-sends
  /// so a retransmission never overcommits the buffer.
  std::vector<std::size_t> reserved_;
  /// Stable-storage duplicate suppression: leases this worker has already
  /// accepted. Survives crashes (else a late duplicate of an already-computed
  /// chunk would be computed twice); cleared only at a fence, when the lease
  /// epoch bump makes every old lease unreachable anyway.
  std::vector<std::set<std::uint64_t>> accepted_leases_;
  util::FlatFifo<RetxItem> retx_queue_;  ///< Payloads awaiting re-send.
  std::vector<SmoothedEstimator> rtt_;   ///< Payload->ACK round trips, per worker.
  std::vector<SmoothedEstimator> ratio_; ///< Completion-time inflation, per worker.
  std::vector<ActiveCompute> active_;    ///< Running computation, per worker.

  // Observability (always on: zero RNG draws, O(1) per transition, so
  // instrumented runs stay byte-identical to uninstrumented ones).
  static constexpr double kChunkHistFirstEdge = 0.25;  ///< Workload units.
  static constexpr double kCompHistFirstEdge = 0.01;   ///< Simulated seconds.
  static constexpr std::size_t kHistBuckets = 16;
  static constexpr double kTimeoutHistFirstEdge = 1e-3;  ///< Simulated seconds.
  static constexpr std::size_t kTimeoutHistBuckets = 20;
  /// Floor on the adaptive watchdog multiplier: even a worker with perfectly
  /// stable history keeps this much slack, so estimator noise cannot make
  /// fencing hair-triggered.
  static constexpr double kAdaptiveSlackFloor = 1.5;
  obs::EngineProbe probe_;
  obs::Histogram chunk_hist_;
  obs::Histogram comp_hist_;
  obs::Histogram timeout_hist_;  ///< Armed completion-watchdog windows.
  obs::Histogram rto_hist_;      ///< Armed retransmission timeouts.
  std::size_t false_suspicions_ = 0;  ///< Fencings of actually-alive workers.
  std::size_t backoff_retries_ = 0;   ///< Blacklist-backoff waits armed.
};

}  // namespace

SimResult simulate(const platform::StarPlatform& platform, SchedulerPolicy& policy,
                   const SimOptions& options) {
  Engine engine(platform, policy, options);
  return engine.run();
}

}  // namespace rumr::sim
