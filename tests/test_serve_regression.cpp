// Cross-thread handoff stress for rumr::serve, run under the "regression"
// label so every preset (tsan included) replays it. Eight client threads
// submit mixed ping, stats, malformed and batch payloads to a 4-thread
// server with a 4-slot queue, two requests outstanding each, so at once
// payloads are admitted unparsed to a free executor, parsed and queued on a
// client thread, answered inline, rejected and shed. Each session starts
// on a fresh server, so cold solves race warm hits on the plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/serve_audit.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve_payloads.hpp"

namespace rumr::serve {
namespace {

using test_support::batch_json;
using test_support::query_json;

TEST(ServeHandoffStress, MixedClientsGetColdBytesOrNamedRefusals) {
  constexpr std::size_t kSessions = 20;
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRequestsEach = 20;
  constexpr std::size_t kOutstanding = 2;
  constexpr std::int64_t kBatches = 6;

  // Batch k (id k) shares a query with batch k + 1, so sessions race both
  // pending and ready cache entries.
  std::vector<std::string> batches;
  std::vector<std::string> cold;  // Single-threaded, uncached response bytes.
  {
    ServerOptions serial;
    serial.threads = 1;
    serial.cache_capacity = 0;
    Server server{serial};
    for (std::int64_t k = 0; k < kBatches; ++k) {
      const auto seed = static_cast<std::uint64_t>(k);
      batches.push_back(batch_json(k, {query_json(seed), query_json(seed + 1, "umr")}));
      cold.push_back(server.handle(batches.back()));
    }
  }

  enum class Kind : unsigned char { kBatch, kPing, kStats, kMalformed };
  struct Sent {
    Kind kind;
    std::int64_t id;
    std::future<std::string> response;
  };

  for (const jobs::AdmissionPolicy admission :
       {jobs::AdmissionPolicy::kRejectNew, jobs::AdmissionPolicy::kShedOldest}) {
    const std::string policy = jobs::to_string(admission);
    const std::string refusal = admission == jobs::AdmissionPolicy::kRejectNew
                                    ? "rejected: request queue is full"
                                    : "shed: displaced by a newer request";
    for (std::size_t session = 0; session < kSessions; ++session) {
      ServerOptions options;
      options.threads = 4;
      options.queue_capacity = 4;
      options.admission = admission;
      Server server{options};

      std::atomic<std::size_t> wrong{0};
      std::atomic<std::size_t> refused{0};
      std::atomic<std::size_t> malformed{0};
      std::vector<std::thread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          std::deque<Sent> in_flight;
          const auto check_one = [&] {
            Sent sent = std::move(in_flight.front());
            in_flight.pop_front();
            const std::string response = sent.response.get();
            bool ok = false;
            switch (sent.kind) {
              case Kind::kBatch: {
                const auto k = static_cast<std::size_t>(sent.id);
                const bool is_refusal = response == make_error_response(sent.id, refusal);
                if (is_refusal) refused.fetch_add(1);
                ok = response == cold[k] || is_refusal;
                break;
              }
              case Kind::kPing:
                ok = response == make_pong_response(sent.id);
                break;
              case Kind::kStats:
                ok = response.rfind("{\"type\":\"stats\",\"id\":" + std::to_string(sent.id) +
                                        ",\"stats\":{",
                                    0) == 0;
                break;
              case Kind::kMalformed:
                ok = response.rfind("{\"type\":\"error\",\"id\":-1,", 0) == 0;
                break;
            }
            if (!ok) wrong.fetch_add(1);
          };
          for (std::size_t r = 0; r < kRequestsEach; ++r) {
            const std::size_t pick = (c + r + session) % 6;
            Sent sent{};
            std::string payload;
            if (pick < 3) {
              sent.kind = Kind::kBatch;
              sent.id = static_cast<std::int64_t>((c + r) % batches.size());
              payload = batches[static_cast<std::size_t>(sent.id)];
            } else if (pick == 3) {
              sent.kind = Kind::kPing;
              sent.id = static_cast<std::int64_t>(1000 * c + r);
              payload = "{\"type\":\"ping\",\"id\":" + std::to_string(sent.id) + "}";
            } else if (pick == 4) {
              sent.kind = Kind::kStats;
              sent.id = static_cast<std::int64_t>(1000 * c + r);
              payload = "{\"type\":\"stats\",\"id\":" + std::to_string(sent.id) + "}";
            } else {
              sent.kind = Kind::kMalformed;
              sent.id = -1;
              payload = "{\"type\":\"batch\",\"queries\":[";
              malformed.fetch_add(1);
            }
            if (in_flight.size() >= kOutstanding) check_one();
            sent.response = server.submit(std::move(payload));
            in_flight.push_back(std::move(sent));
          }
          while (!in_flight.empty()) check_one();
        });
      }
      for (std::thread& client : clients) client.join();
      server.wait_idle();

      const obs::ServeStats stats = server.stats();
      EXPECT_EQ(wrong.load(), 0u) << policy << " session " << session;
      EXPECT_EQ(stats.received, kClients * kRequestsEach) << policy;
      EXPECT_EQ(stats.protocol_errors, malformed.load()) << policy;
      EXPECT_EQ(stats.rejected + stats.shed, refused.load()) << policy;
      // Each of the 2 * kBatches distinct queries is solved at most once,
      // however many clients race for it.
      EXPECT_LE(stats.solves, 2 * static_cast<std::size_t>(kBatches)) << policy;
      const check::AuditReport audit = check::audit_serve_stats(stats, /*drained=*/true);
      EXPECT_TRUE(audit.ok()) << policy << " session " << session << ": " << audit.summary();
    }
  }
}

}  // namespace
}  // namespace rumr::serve
