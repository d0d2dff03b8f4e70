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
/// Execution path per query: canonicalize -> plan-cache lookup -> on miss,
/// build the platform, instantiate the named policy (config::make_policy),
/// run sim::simulate with a recorded trace, audit, and serialize the chunk
/// plan. The cache stores the serialized bytes, so a warm response is
/// byte-identical to the cold one by construction.
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
  /// Ping/stats requests, malformed payloads, and admission rejections are
  /// answered synchronously; batch requests go through admission control
  /// and run on the executor pool.
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
    Request request;
    std::promise<std::string> promise;
    std::uint64_t seq = 0;  ///< Arrival order (FCFS / tie-break key).
  };

  /// submit(); with `wait_for_room`, a batch request that finds admission
  /// full waits for a slot instead of being rejected or shedding a waiter.
  [[nodiscard]] std::future<std::string> submit(std::string payload, bool wait_for_room);
  /// Executes one batch request to a response payload (no locks held).
  [[nodiscard]] std::string execute_batch(const Request& request);
  /// Solves one query cold (the cache-miss path).
  [[nodiscard]] std::string solve_query(const Query& query, std::uint64_t fingerprint);
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
