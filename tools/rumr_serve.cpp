// rumr_serve: the what-if scheduling daemon (scheduler-as-a-service).
//
// Modes:
//   rumr_serve --stdio [--config <file>]
//       Serve framed requests from stdin, framed responses to stdout, until
//       EOF. This is the daemon proper: point a pipe or a socket relay
//       (socat, systemd socket activation) at it.
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
#include <stdexcept>
#include <string>
#include <vector>

#include "api/rumr.hpp"
#include "util/json_lite.hpp"

namespace {

using rumr::serve::Server;
using rumr::serve::ServerOptions;

int usage() {
  std::fprintf(stderr,
               "usage: rumr_serve --stdio [--config <file>]\n"
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
  // The stats reply is a snapshot taken when it is answered, possibly by a
  // free executor while the ping and the batches still run on others: it
  // guarantees only the four requests received, none turned away, itself
  // completed, and no more than the session's 8 lookups.
  const rumr::util::JsonValue stats_reply = rumr::util::JsonValue::parse(payloads[3]);
  const rumr::util::JsonValue& snapshot = stats_reply.at("stats");
  const double completed = snapshot.at("completed").as_number();
  if (snapshot.at("received").as_number() != 4.0 ||
      snapshot.at("rejected").as_number() != 0.0 ||
      snapshot.at("shed").as_number() != 0.0 || completed < 1.0 || completed > 4.0 ||
      snapshot.at("plan_cache").at("lookups").as_number() > 8.0) {
    std::fprintf(stderr, "verify: stats snapshot off: %s\n", payloads[3].c_str());
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
