#pragma once

/// \file server.hpp
/// The what-if scheduling server: concurrent request execution over the
/// content-addressed plan cache, with request-level admission control.
///
/// The server is deliberately an instance of the admission system the
/// library simulates: requests arrive, at most `threads` are in service, up
/// to `queue_capacity` wait, and an arrival past that is handled by the
/// same jobs:: vocabulary (reject-new or shed-oldest) under the same queue
/// disciplines (FCFS, shortest-batch-first, priority). The ledger is
/// audited by check::audit_serve_stats.
///
/// Admission comes before parsing. While an executor is free the queue is
/// empty, so the raw payload is admitted and the executor that runs it
/// parses it; only when every executor is busy does the submitting thread
/// parse, to answer a control request at once or to queue a batch with the
/// id, priority and size its discipline needs.
///
/// Execution path per query: binary key (serve::binary_query_key) ->
/// plan-cache lookup -> on miss, the canonical text key and its fingerprint,
/// build the platform, instantiate the named policy (config::make_policy),
/// run sim::simulate with a recorded trace, audit, and serialize the chunk
/// plan. The cache stores the serialized bytes, fingerprint included, so a
/// warm response is byte-identical to the cold one by construction.
///
/// Determinism: no wall-clock, no ambient randomness — every response is a
/// pure function of the request bytes (and, for "stats" requests, of the
/// request history).

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <istream>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "jobs/job_manager.hpp"
#include "obs/metrics.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "sweep/thread_pool.hpp"

namespace rumr::serve {

struct ServerOptions {
  std::size_t threads = 0;        ///< Concurrent requests in service (0 = auto).
  /// Fan-out width for the queries *inside* one batch (1 = serial; 0 = auto).
  /// Results are index-ordered, so the width never changes response bytes.
  std::size_t batch_threads = 1;
  std::size_t cache_capacity = 4096;    ///< Plan-cache entries (0 = pass-through).
  std::size_t cache_max_bytes = 64u << 20;
  std::size_t cache_shards = 16;
  std::size_t queue_capacity = 64;      ///< Waiting requests beyond in-service.
  jobs::AdmissionPolicy admission = jobs::AdmissionPolicy::kRejectNew;
  jobs::QueueDiscipline discipline = jobs::QueueDiscipline::kFcfs;
  /// Audit every solved plan with check::audit_sim_result (violations turn
  /// into per-query errors) and make stats() audit-clean by construction.
  bool audit = true;

  /// Every problem with these options, human-readable; empty = usable.
  [[nodiscard]] std::vector<std::string> validate() const;
};

class Server {
 public:
  /// Throws std::invalid_argument listing every validate() problem.
  explicit Server(const ServerOptions& options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Submits one frame payload. The future resolves to the response payload
  /// (never throws through the future: every failure is an error response).
  /// A payload that finds an executor free is admitted unparsed and answered
  /// there, whatever it holds. Otherwise it is parsed here: a ping, a stats
  /// request or a malformed payload is answered synchronously (control
  /// requests never wait behind a batch), and a batch is queued, rejected
  /// or sheds a waiter. A stats reply is a snapshot taken when it is
  /// answered, and counts itself as completed.
  [[nodiscard]] std::future<std::string> submit(std::string payload);

  /// submit() + wait: the synchronous convenience path.
  [[nodiscard]] std::string handle(std::string payload);

  /// Pumps framed requests from `in` until EOF, writing framed responses to
  /// `out` in request order (concurrency happens between in-flight
  /// requests, not in the response order). The stream is admission's own
  /// client: while every executor and queue slot is taken it stops reading
  /// instead of having a request rejected or shed, so a client that
  /// pipelines any number of frames gets every one answered. A
  /// session-fatal framing error (bad magic/version/flags, oversized or
  /// truncated frame) writes one final error frame and closes the session.
  void serve_stream(std::istream& in, std::ostream& out);

  /// Blocks until no request is in service or queued.
  void wait_idle();

  /// Counter snapshot (request ledger + plan-cache ledger).
  [[nodiscard]] obs::ServeStats stats() const;

 private:
  struct Pending {
    /// The payload of a request admitted unparsed; its executor parses it.
    std::optional<std::string> payload;
    Request request;  ///< Parsed at admission, or by the executor.
    std::promise<std::string> promise;
    std::uint64_t seq = 0;  ///< Arrival order (FCFS / tie-break key).
  };

  /// submit(); with `wait_for_room`, a batch request that finds admission
  /// full waits for a slot instead of being rejected or shedding a waiter.
  [[nodiscard]] std::future<std::string> submit(std::string payload, bool wait_for_room);
  /// Parses `payload` into `request` and answers it unless it is a batch:
  /// a malformed payload, a ping or a stats request never waits in the
  /// queue. Each is counted completed (a malformed one also as a protocol
  /// error) before a stats snapshot is taken, so a stats reply counts
  /// itself. `admitted` says that admission already counted the request
  /// received and admitted (the executor path); the inline path counts both
  /// here. Returns std::nullopt for a batch.
  [[nodiscard]] std::optional<std::string> answer_unqueued(const std::string& payload,
                                                           Request& request, bool admitted);
  /// Executes one batch request to a response payload (no locks held).
  [[nodiscard]] std::string execute_batch(const Request& request);
  /// Solves one query cold (the cache-miss path).
  [[nodiscard]] std::string solve_query(const Query& query);
  /// Worker loop: serve `item`, then chain onto queued requests until the
  /// queue is empty.
  void worker_run(Pending item);
  /// Picks the next queued request per the discipline. Caller holds mutex_;
  /// queue must be non-empty.
  [[nodiscard]] std::list<Pending>::iterator pick_next_locked();

  ServerOptions options_;
  PlanCache cache_;
  sweep::ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::condition_variable room_cv_;  ///< Notified whenever a slot is released.
  std::list<Pending> queue_;
  std::size_t in_service_ = 0;
  std::uint64_t next_seq_ = 0;
  obs::ServeStats stats_;  ///< Request/query ledger (cache ledger lives in cache_).
};

}  // namespace rumr::serve
