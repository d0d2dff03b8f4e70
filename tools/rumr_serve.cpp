// rumr_serve: the what-if scheduling daemon (scheduler-as-a-service).
//
// Modes:
//   rumr_serve --stdio [--config <file>]
//       Serve framed requests from stdin, framed responses to stdout, until
//       EOF. This is the daemon proper: point a pipe or a socket relay
//       (socat, systemd socket activation) at it.
//   rumr_serve --self-test
//       In-process loopback verification: cached-vs-cold byte identity,
//       exactly-once solving under concurrent clients, admission control
//       (reject and shed), the stream pump, and the full stats-ledger audit.
//       Exits nonzero on any failure.
//   rumr_serve --emit-demo-requests <file>
//       Write the fixed demo session (ping, a batch, the identical batch
//       again, a stats probe) as framed bytes, for piping into --stdio.
//   rumr_serve --verify-demo-responses <responses> <session-log>
//       Check the framed responses produced by serving the demo session,
//       and the session line --stdio wrote to stderr: frame count and
//       types, warm batch byte-identical to the cold one, and a drained
//       cache ledger that actually recorded the warm hits.
//
// Determinism contract: this binary never reads a clock or ambient
// randomness; every response is a pure function of the request bytes.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/rumr.hpp"
#include "util/json_lite.hpp"

namespace {

using rumr::serve::Server;
using rumr::serve::ServerOptions;

int usage() {
  std::fprintf(stderr,
               "usage: rumr_serve --stdio [--config <file>]\n"
               "       rumr_serve --self-test\n"
               "       rumr_serve --emit-demo-requests <file>\n"
               "       rumr_serve --verify-demo-responses <responses> <session-log>\n");
  return 2;
}

// --- Demo session -----------------------------------------------------------

std::string demo_batch_payload() {
  // Mixed platforms and policies; the same payload is sent twice so the
  // second serving must come out of the cache byte-identically.
  return R"({"type":"batch","id":2,"queries":[)"
         R"({"workload":1000,"algorithm":"rumr","known_error":0.3,"error":0.3,"seed":7},)"
         R"({"workload":1000,"algorithm":"umr","seed":7},)"
         R"({"platform":{"homogeneous":{"workers":6,"bandwidth":9}},"workload":500,)"
         R"("algorithm":"factoring","error":0.2,"seed":11},)"
         R"({"platform":{"workers":[{"speed":1,"bandwidth":8},{"speed":2,"bandwidth":8},)"
         R"({"speed":4,"bandwidth":16}]},"workload":300,"algorithm":"rumr","seed":3}]})";
}

std::vector<std::string> demo_request_payloads() {
  return {
      R"({"type":"ping","id":1})",
      demo_batch_payload(),
      demo_batch_payload(),
      R"({"type":"stats","id":9})",
  };
}

int emit_demo_requests(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "rumr_serve: cannot write %s\n", path.c_str());
    return 1;
  }
  for (const std::string& payload : demo_request_payloads()) {
    rumr::serve::write_frame(out, payload);
  }
  out.flush();
  return out ? 0 : 1;
}

/// The ledger in the "rumr_serve: session {...}" line --stdio writes to
/// stderr after the session drains.
rumr::util::JsonValue read_session_ledger(const std::string& path) {
  std::ifstream in(path);
  const std::string prefix = "rumr_serve: session ";
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(prefix)) return rumr::util::JsonValue::parse(line.substr(prefix.size()));
  }
  throw std::runtime_error("no session ledger line in " + path);
}

int verify_demo_responses(const std::string& path, const std::string& session_path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "rumr_serve: cannot read %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> payloads;
  while (auto payload = rumr::serve::read_frame(in)) payloads.push_back(std::move(*payload));
  if (payloads.size() != 4) {
    std::fprintf(stderr, "verify: expected 4 response frames, got %zu\n", payloads.size());
    return 1;
  }
  const rumr::util::JsonValue pong = rumr::util::JsonValue::parse(payloads[0]);
  if (pong.at("type").as_string() != "pong") {
    std::fprintf(stderr, "verify: frame 0 is %s, expected pong\n", payloads[0].c_str());
    return 1;
  }
  if (payloads[1] != payloads[2]) {
    std::fprintf(stderr, "verify: warm batch response differs from the cold one\n");
    return 1;
  }
  const rumr::util::JsonValue result = rumr::util::JsonValue::parse(payloads[1]);
  if (result.at("type").as_string() != "result" || result.at("results").as_array().size() != 4) {
    std::fprintf(stderr, "verify: bad batch response: %s\n", payloads[1].c_str());
    return 1;
  }
  for (const rumr::util::JsonValue& plan : result.at("results").as_array()) {
    if (plan.find("error") != nullptr) {
      std::fprintf(stderr, "verify: query failed: %s\n", plan.at("error").as_string().c_str());
      return 1;
    }
    if (!(plan.at("makespan").as_number() > 0.0) || plan.at("chunks").as_array().empty()) {
      std::fprintf(stderr, "verify: degenerate plan in %s\n", payloads[1].c_str());
      return 1;
    }
  }
  // The stats request is answered when its frame is read, while the batches
  // may still run: its snapshot guarantees only the requests received so
  // far, none turned away, and no more than the session's 8 lookups.
  const rumr::util::JsonValue stats_reply = rumr::util::JsonValue::parse(payloads[3]);
  const rumr::util::JsonValue& inline_stats = stats_reply.at("stats");
  const double completed = inline_stats.at("completed").as_number();
  if (inline_stats.at("received").as_number() != 4.0 ||
      inline_stats.at("rejected").as_number() != 0.0 ||
      inline_stats.at("shed").as_number() != 0.0 || completed < 2.0 || completed > 4.0 ||
      inline_stats.at("plan_cache").at("lookups").as_number() > 8.0) {
    std::fprintf(stderr, "verify: inline stats snapshot off: %s\n", payloads[3].c_str());
    return 1;
  }
  // The drained ledger: both batches looked up all 4 queries, and the warm
  // one was served from the cache.
  const rumr::util::JsonValue ledger = read_session_ledger(session_path);
  const rumr::util::JsonValue& cache = ledger.at("plan_cache");
  const double hits = cache.at("hits").as_number();
  const double lookups = cache.at("lookups").as_number();
  if (hits < 4.0 || lookups != 8.0 || ledger.at("completed").as_number() != 4.0) {
    std::fprintf(stderr,
                 "verify: session ledger off: lookups=%g hits=%g completed=%g (want 8 lookups, "
                 ">=4 hits, 4 completed)\n",
                 lookups, hits, ledger.at("completed").as_number());
    return 1;
  }
  std::printf("rumr_serve: demo responses verified (4 frames, warm == cold, %g/%g cache hits)\n",
              hits, lookups);
  return 0;
}

// --- Self-test --------------------------------------------------------------

int fail(const char* what) {
  std::fprintf(stderr, "self-test FAILED: %s\n", what);
  return 1;
}

int self_test() {
  // 1. Cached-vs-cold byte identity, three ways: warm repeat on the same
  //    server, a pass-through (capacity 0) server, and a serial server.
  {
    ServerOptions cached;
    cached.threads = 2;
    Server server(cached);
    const std::string cold = server.handle(demo_batch_payload());
    const std::string warm = server.handle(demo_batch_payload());
    if (cold != warm) return fail("warm response != cold response on the same server");

    ServerOptions pass_through;
    pass_through.threads = 1;
    pass_through.cache_capacity = 0;
    Server uncached(pass_through);
    if (uncached.handle(demo_batch_payload()) != cold) {
      return fail("pass-through (uncached) response != cached response");
    }
    const rumr::obs::ServeStats stats = uncached.stats();
    if (stats.plan_cache.hits != 0 || stats.plan_cache.entries != 0 ||
        stats.plan_cache.evictions != stats.plan_cache.insertions) {
      return fail("pass-through cache ledger should evict every insertion");
    }
    rumr::check::audit_serve_stats(server.stats()).throw_if_failed();
    rumr::check::audit_serve_stats(stats).throw_if_failed();
  }

  // 2. Concurrent clients hammering overlapping keys: every distinct
  //    canonical query must be solved exactly once (solves == misses ==
  //    distinct keys), everything else served as hits.
  {
    ServerOptions options;
    options.threads = 4;
    options.queue_capacity = 256;
    Server server(options);
    constexpr int kClients = 8;
    constexpr int kRequestsPerClient = 16;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, c] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          // Seeds overlap across clients: 4 distinct queries in total.
          const std::string payload = std::string(R"({"type":"batch","id":5,"queries":[)") +
                                      R"({"workload":800,"algorithm":"rumr","seed":)" +
                                      std::to_string((c + r) % 4) + "}]}";
          (void)server.handle(payload);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.wait_idle();
    const rumr::obs::ServeStats stats = server.stats();
    rumr::check::audit_serve_stats(stats).throw_if_failed();
    if (stats.solves != 4) return fail("overlapping keys were not solved exactly once each");
    if (stats.plan_cache.lookups != kClients * kRequestsPerClient) {
      return fail("lookup count does not match the submitted query count");
    }
  }

  // 3. Admission control. A slow request pins the single executor; filler
  //    requests then overflow the bounded queue deterministically.
  {
    ServerOptions options;
    options.threads = 1;
    options.queue_capacity = 2;
    options.admission = rumr::jobs::AdmissionPolicy::kRejectNew;
    Server server(options);
    // 256 distinct solves keep the executor busy well past the microseconds
    // the fillers below need.
    std::string slow = R"({"type":"batch","id":10,"queries":[)";
    for (int i = 0; i < 256; ++i) {
      if (i > 0) slow += ',';
      slow += R"({"workload":1500,"algorithm":"rumr","error":0.3,"seed":)" + std::to_string(i) +
              "}";
    }
    slow += "]}";
    std::thread slow_client([&server, &slow] { (void)server.handle(slow); });
    while (server.stats().admitted < 1) std::this_thread::yield();

    auto f1 = server.submit(R"({"type":"batch","id":11,"queries":[{"workload":100}]})");
    auto f2 = server.submit(R"({"type":"batch","id":12,"queries":[{"workload":101}]})");
    auto f3 = server.submit(R"({"type":"batch","id":13,"queries":[{"workload":102}]})");
    const std::string r3 = f3.get();
    if (r3.find("\"type\":\"error\"") == std::string::npos ||
        r3.find("rejected") == std::string::npos) {
      return fail("third filler should have been rejected (queue full)");
    }
    if (f1.get().find("\"type\":\"result\"") == std::string::npos ||
        f2.get().find("\"type\":\"result\"") == std::string::npos) {
      return fail("queued fillers should have been served after the slow request");
    }
    slow_client.join();
    server.wait_idle();
    const rumr::obs::ServeStats stats = server.stats();
    rumr::check::audit_serve_stats(stats).throw_if_failed();
    if (stats.rejected != 1) return fail("expected exactly one rejected request");
  }

  // 4. Shed-oldest admission: the newest arrival displaces the longest
  //    waiter, which gets a shed error response.
  {
    ServerOptions options;
    options.threads = 1;
    options.queue_capacity = 1;
    options.admission = rumr::jobs::AdmissionPolicy::kShedOldest;
    Server server(options);
    std::string slow = R"({"type":"batch","id":20,"queries":[)";
    for (int i = 0; i < 256; ++i) {
      if (i > 0) slow += ',';
      slow += R"({"workload":1500,"algorithm":"umr","error":0.3,"seed":)" + std::to_string(i) +
              "}";
    }
    slow += "]}";
    std::thread slow_client([&server, &slow] { (void)server.handle(slow); });
    while (server.stats().admitted < 1) std::this_thread::yield();

    auto f1 = server.submit(R"({"type":"batch","id":21,"queries":[{"workload":100}]})");
    auto f2 = server.submit(R"({"type":"batch","id":22,"queries":[{"workload":101}]})");
    const std::string r1 = f1.get();
    if (r1.find("shed") == std::string::npos) {
      return fail("oldest queued request should have been shed");
    }
    if (f2.get().find("\"type\":\"result\"") == std::string::npos) {
      return fail("newest request should have been served after shedding");
    }
    slow_client.join();
    server.wait_idle();
    const rumr::obs::ServeStats stats = server.stats();
    rumr::check::audit_serve_stats(stats).throw_if_failed();
    if (stats.shed != 1) return fail("expected exactly one shed request");
  }

  // 5. The stream pump end to end through the facade, self-audited.
  {
    std::ostringstream request_bytes;
    for (const std::string& payload : demo_request_payloads()) {
      rumr::serve::write_frame(request_bytes, payload);
    }
    std::istringstream in(request_bytes.str());
    std::ostringstream out;
    const rumr::obs::ServeStats stats = rumr::Serve().threads(2).run(in, out);
    if (stats.received != 4 || stats.completed != stats.admitted) {
      return fail("stream session ledger is off");
    }
    std::istringstream responses(out.str());
    std::vector<std::string> frames;
    while (auto payload = rumr::serve::read_frame(responses)) frames.push_back(*payload);
    if (frames.size() != 4 || frames[1] != frames[2]) {
      return fail("stream responses should be 4 frames with warm == cold");
    }
  }

  std::printf("rumr_serve --self-test: all checks passed\n");
  return 0;
}

int run_stdio(const ServerOptions& options) {
  Server server(options);
  server.serve_stream(std::cin, std::cout);
  server.wait_idle();
  // The session ledger goes to stderr so the wire stays clean.
  std::fprintf(stderr, "rumr_serve: session %s\n",
               rumr::obs::to_json(server.stats()).c_str());
  rumr::check::audit_serve_stats(server.stats()).throw_if_failed();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();

  try {
    if (args[0] == "--self-test" && args.size() == 1) return self_test();
    if (args[0] == "--emit-demo-requests" && args.size() == 2) return emit_demo_requests(args[1]);
    if (args[0] == "--verify-demo-responses" && args.size() == 3) {
      return verify_demo_responses(args[1], args[2]);
    }
    if (args[0] == "--stdio") {
      ServerOptions options;
      if (args.size() == 3 && args[1] == "--config") {
        options = rumr::serve::server_options_from_config(rumr::config::ConfigFile::load(args[2]));
      } else if (args.size() != 1) {
        return usage();
      }
      return run_stdio(options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rumr_serve: %s\n", e.what());
    return 1;
  }
  return usage();
}
