#include "serve/server.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "check/trace_audit.hpp"
#include "config/policies.hpp"
#include "sim/master_worker.hpp"
#include "sim/trace.hpp"
#include "util/json_lite.hpp"
#include "util/problems.hpp"

namespace rumr::serve {
namespace {

void append_hex64(std::string& out, std::uint64_t value) {
  constexpr char kHexDigits[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHexDigits[(value >> shift) & 0xfu]);
  }
}

/// Serializes one solved query into its plan object — the byte string the
/// cache stores and every response (cold or warm) splices in verbatim.
std::string serialize_plan(const sim::SimResult& result, std::uint64_t fingerprint) {
  std::string plan = "{\"makespan\":";
  util::append_json_number(plan, result.makespan);
  plan += ",\"chunks\":[";
  bool first = true;
  for (const sim::TraceSpan& span : result.trace.spans()) {
    if (span.kind != sim::SpanKind::kUplink) continue;
    if (!first) plan += ',';
    first = false;
    plan += '[';
    plan += std::to_string(span.worker);
    plan += ',';
    util::append_json_number(plan, span.chunk);
    plan += ']';
  }
  plan += "],\"dispatches\":";
  plan += std::to_string(result.chunks_dispatched);
  plan += ",\"completions\":";
  plan += std::to_string(result.metrics.engine.completions);
  plan += ",\"events\":";
  plan += std::to_string(result.events);
  plan += ",\"uplink_utilization\":";
  util::append_json_number(plan, result.metrics.engine.uplink_utilization);
  plan += ",\"mean_worker_utilization\":";
  util::append_json_number(plan, result.metrics.engine.mean_worker_utilization);
  plan += ",\"fingerprint\":\"";
  append_hex64(plan, fingerprint);
  plan += "\"}";
  return plan;
}

}  // namespace

std::vector<std::string> ServerOptions::validate() const {
  std::vector<std::string> problems;
  if (cache_shards == 0) problems.push_back("cache_shards must be >= 1");
  if (admission == jobs::AdmissionPolicy::kShedOldest && queue_capacity == 0) {
    problems.push_back(
        "admission 'shed' requires queue_capacity >= 1 (an empty queue has nothing to shed)");
  }
  return problems;
}

Server::Server(const ServerOptions& options)
    : options_(options),
      cache_(PlanCacheOptions{options.cache_capacity, options.cache_max_bytes,
                              options.cache_shards == 0 ? 1 : options.cache_shards}),
      pool_(options.threads) {
  const std::vector<std::string> problems = options.validate();
  if (!problems.empty()) {
    throw std::invalid_argument(util::join_problems("invalid serve options:", problems));
  }
}

Server::~Server() { wait_idle(); }

std::future<std::string> Server::submit(std::string payload) {
  return submit(std::move(payload), false);
}

std::future<std::string> Server::submit(std::string payload, bool wait_for_room) {
  Pending item;
  std::future<std::string> future = item.promise.get_future();
  {
    // An executor is free only while the queue is empty (worker_run drains
    // the queue before it releases a slot), so admitting the payload
    // unparsed keeps FCFS order; the executor parses it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (in_service_ < pool_.thread_count()) {
      in_service_ += 1;
      stats_.received += 1;
      stats_.admitted += 1;
      item.payload = std::move(payload);
    }
  }

  if (!item.payload) {
    // Every executor is busy: parse here. Control requests must answer even
    // when the executor is saturated (that is what makes stats useful under
    // load), and a batch is queued by its id, priority and size.
    if (std::optional<std::string> answer = answer_unqueued(payload, item.request, false)) {
      item.promise.set_value(std::move(*answer));
      return future;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (wait_for_room) {
      room_cv_.wait(lock, [this] {
        return in_service_ < pool_.thread_count() || queue_.size() < options_.queue_capacity;
      });
    }
    item.seq = next_seq_++;
    stats_.received += 1;
    if (in_service_ < pool_.thread_count()) {
      in_service_ += 1;
      stats_.admitted += 1;
    } else if (queue_.size() < options_.queue_capacity) {
      // Enqueued, not yet admitted: the ledger's terminal buckets are
      // decided when the request is picked up (admitted) or dropped (shed).
      queue_.push_back(std::move(item));
      if (queue_.size() > stats_.queue_depth_high_water) {
        stats_.queue_depth_high_water = queue_.size();
      }
      return future;
    } else if (options_.admission == jobs::AdmissionPolicy::kRejectNew) {
      stats_.rejected += 1;
      item.promise.set_value(
          make_error_response(item.request.id, "rejected: request queue is full"));
      return future;
    } else {
      // kShedOldest: the longest-waiting request makes room for the arrival.
      auto oldest = queue_.begin();
      for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
        if (it->seq < oldest->seq) oldest = it;
      }
      stats_.shed += 1;
      oldest->promise.set_value(
          make_error_response(oldest->request.id, "shed: displaced by a newer request"));
      queue_.erase(oldest);
      queue_.push_back(std::move(item));
      return future;
    }
  }

  // Admitted for immediate service: hand the request to the executor pool.
  auto shared = std::make_shared<Pending>(std::move(item));
  pool_.submit([this, shared]() { worker_run(std::move(*shared)); });
  return future;
}

std::optional<std::string> Server::answer_unqueued(const std::string& payload, Request& request,
                                                   bool admitted) {
  std::optional<std::string> error;
  try {
    request = parse_request(payload);
  } catch (const ProtocolError& e) {
    error = e.what();
  }
  if (!error && request.type == RequestType::kBatch) return std::nullopt;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!admitted) {
      stats_.received += 1;
      stats_.admitted += 1;
    }
    if (error) stats_.protocol_errors += 1;
    stats_.completed += 1;
  }
  // Well-framed but not a request: the envelope never parsed, so no id is
  // known.
  if (error) return make_error_response(-1, *error);
  if (request.type == RequestType::kPing) return make_pong_response(request.id);
  return "{\"type\":\"stats\",\"id\":" + std::to_string(request.id) +
         ",\"stats\":" + obs::to_json(stats()) + "}";
}

std::string Server::handle(std::string payload) { return submit(std::move(payload)).get(); }

void Server::worker_run(Pending item) {
  for (;;) {
    std::optional<std::string> response;
    if (item.payload) response = answer_unqueued(*item.payload, item.request, true);
    if (!response) {
      try {
        response = execute_batch(item.request);
      } catch (const std::exception& e) {
        response = make_error_response(item.request.id, e.what());
      }
      // Counted before the promise resolves, so a client that just got its
      // response (and immediately reads stats()) sees a consistent ledger.
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.completed += 1;
    }
    item.promise.set_value(std::move(*response));

    std::lock_guard<std::mutex> lock(mutex_);
    // This request's slot is released now: to the next queued request (the
    // queue shrinks) or back to admission.
    room_cv_.notify_all();
    if (queue_.empty()) {
      in_service_ -= 1;
      if (in_service_ == 0) idle_cv_.notify_all();
      return;
    }
    const auto next = pick_next_locked();
    stats_.admitted += 1;
    item = std::move(*next);
    queue_.erase(next);
  }
}

std::list<Server::Pending>::iterator Server::pick_next_locked() {
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    switch (options_.discipline) {
      case jobs::QueueDiscipline::kFcfs:
        if (it->seq < best->seq) best = it;
        break;
      case jobs::QueueDiscipline::kSjf:
        // "Shortest" for a what-if batch is its query count.
        if (it->request.queries.size() < best->request.queries.size() ||
            (it->request.queries.size() == best->request.queries.size() &&
             it->seq < best->seq)) {
          best = it;
        }
        break;
      case jobs::QueueDiscipline::kPriority:
        if (it->request.priority > best->request.priority ||
            (it->request.priority == best->request.priority && it->seq < best->seq)) {
          best = it;
        }
        break;
    }
  }
  return best;
}

std::string Server::execute_batch(const Request& request) {
  const std::vector<QuerySlot>& slots = request.queries;
  std::vector<std::string> results(slots.size());
  std::size_t parse_failures = 0;
  for (const QuerySlot& slot : slots) {
    if (!slot.query) ++parse_failures;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.queries += slots.size();
    stats_.query_errors += parse_failures;
  }

  const auto run_slot = [&](std::size_t i) {
    const QuerySlot& slot = slots[i];
    if (!slot.query) {
      results[i] = make_query_error(slot.error);
      return;
    }
    try {
      results[i] = *cache_.get_or_compute(binary_query_key(*slot.query),
                                          [&] { return solve_query(*slot.query); });
    } catch (const std::exception& e) {
      // Solver failures (unknown algorithm, invalid platform, audit
      // violation) answer this query; the rest of the batch is unaffected.
      results[i] = make_query_error(e.what());
    }
  };

  const std::size_t width =
      options_.batch_threads == 0 ? sweep::default_thread_count() : options_.batch_threads;
  if (width > 1 && slots.size() > 1) {
    sweep::parallel_for(slots.size(), run_slot, width);
  } else {
    for (std::size_t i = 0; i < slots.size(); ++i) run_slot(i);
  }
  return make_result_response(request.id, results);
}

std::string Server::solve_query(const Query& query) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.solves += 1;
  }
  // The text key is formatted on a miss only; its hash is the fingerprint
  // every response for this query carries.
  const std::uint64_t fingerprint = fnv1a64(canonical_query_key(query));
  const platform::StarPlatform platform{std::vector<platform::WorkerSpec>(query.workers)};
  const auto policy =
      config::make_policy(query.algorithm, platform, query.workload, query.known_error);
  sim::SimOptions sim_options = sim::SimOptions::with_error(query.error, query.seed);
  sim_options.record_trace = true;
  sim_options.uplink_channels = query.uplink_channels;
  sim_options.output_ratio = query.output_ratio;
  sim_options.worker_buffer_capacity = query.worker_buffer_capacity;
  const sim::SimResult result = sim::simulate(platform, *policy, sim_options);
  if (options_.audit) {
    check::audit_run(result, platform, query.workload, sim_options).throw_if_failed();
  }
  return serialize_plan(result, fingerprint);
}

void Server::serve_stream(std::istream& in, std::ostream& out) {
  // Responses leave in request order; admission and execution overlap across
  // the in-flight window, which is what admission can hold (capped at 1024).
  // A slot outlives its drained response until worker_run releases it, so
  // each request also waits for a free slot rather than racing that release.
  constexpr std::size_t kMaxInFlight = 1024;
  const std::size_t window =
      std::min(kMaxInFlight, pool_.thread_count() + options_.queue_capacity);
  std::deque<std::future<std::string>> in_flight;
  const auto drain_one = [&] {
    write_frame(out, in_flight.front().get());
    in_flight.pop_front();
  };
  try {
    for (;;) {
      std::optional<std::string> payload = read_frame(in);
      if (!payload) break;
      in_flight.push_back(submit(std::move(*payload), true));
      while (in_flight.size() >= window) drain_one();
    }
    while (!in_flight.empty()) drain_one();
  } catch (const ProtocolError& e) {
    // Framing is lost: answer what was in flight, report, and close.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.protocol_errors += 1;
    }
    while (!in_flight.empty()) drain_one();
    write_frame(out, make_error_response(-1, e.what()));
  }
  out.flush();
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return in_service_ == 0 && queue_.empty(); });
}

obs::ServeStats Server::stats() const {
  obs::ServeStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = stats_;
  }
  snapshot.plan_cache = cache_.stats();
  return snapshot;
}

}  // namespace rumr::serve
