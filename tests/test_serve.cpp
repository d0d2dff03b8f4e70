// Tests for the what-if scheduling server (rumr::serve): wire framing
// (including property-style incremental decoding at every chunk size),
// request parsing, canonical cache keys, the content-addressed plan cache
// (exactly-once under concurrency — the TSan target — plus eviction and
// failure ledgers), server byte-identity and admission behavior, the
// rumr::Serve facade, and the [serve] config bridge.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/rumr.hpp"
#include "check/serve_audit.hpp"
#include "config/config_file.hpp"
#include "serve/plan_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_config.hpp"

namespace rumr::serve {
namespace {

// --- Helpers ----------------------------------------------------------------

/// A small, fully explicit query payload; vary `seed` for distinct cache keys.
std::string query_json(std::uint64_t seed, const std::string& algorithm = "rumr") {
  return "{\"platform\":{\"homogeneous\":{\"workers\":4,\"speed\":1,\"bandwidth\":12}},"
         "\"workload\":250,\"algorithm\":\"" +
         algorithm + "\",\"known_error\":0.3,\"error\":0.3,\"seed\":" + std::to_string(seed) +
         "}";
}

std::string batch_json(std::int64_t id, const std::vector<std::string>& queries) {
  std::string payload = "{\"type\":\"batch\",\"id\":" + std::to_string(id) + ",\"queries\":[";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (i != 0) payload += ',';
    payload += queries[i];
  }
  payload += "]}";
  return payload;
}

ProtocolError::Kind decode_kind(const std::string& bytes) {
  FrameDecoder decoder;
  try {
    decoder.feed(bytes);
    decoder.finish();
    while (decoder.next()) {
    }
  } catch (const ProtocolError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected a ProtocolError for: " << bytes;
  return ProtocolError::Kind::kBadRequest;
}

// --- Framing ----------------------------------------------------------------

TEST(ServeFraming, RoundTripThroughStream) {
  std::stringstream wire;
  write_frame(wire, "{\"a\":1}");
  write_frame(wire, "");
  write_frame(wire, std::string(1000, 'x'));

  EXPECT_EQ(read_frame(wire).value(), "{\"a\":1}");
  EXPECT_EQ(read_frame(wire).value(), "");
  EXPECT_EQ(read_frame(wire).value(), std::string(1000, 'x'));
  EXPECT_FALSE(read_frame(wire).has_value());  // Clean EOF at a boundary.
}

TEST(ServeFraming, DecoderRecoversFramesAtEveryChunkSize) {
  const std::vector<std::string> payloads = {"", "a", "{\"k\":[1,2,3]}",
                                             std::string(257, 'z')};
  std::string stream;
  for (const std::string& p : payloads) stream += encode_frame(p);

  // Property: however the bytes are sliced, the same frames come out.
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameDecoder decoder;
    std::vector<std::string> got;
    for (std::size_t pos = 0; pos < stream.size(); pos += chunk) {
      decoder.feed(std::string_view(stream).substr(pos, chunk));
      while (auto frame = decoder.next()) got.push_back(*std::move(frame));
    }
    decoder.finish();
    while (auto frame = decoder.next()) got.push_back(*std::move(frame));
    EXPECT_EQ(got, payloads) << "chunk size " << chunk;
    EXPECT_TRUE(decoder.at_boundary());
  }
}

TEST(ServeFraming, BadMagicIsDetectedFromTheFirstByte) {
  FrameDecoder decoder;
  decoder.feed("X");  // One byte of evidence is enough.
  EXPECT_THROW((void)decoder.next(), ProtocolError);
  EXPECT_EQ(decode_kind("XU\x01"), ProtocolError::Kind::kBadMagic);
  EXPECT_EQ(decode_kind("RV"), ProtocolError::Kind::kBadMagic);
}

TEST(ServeFraming, BadVersionAndFlagsAreNamedErrors) {
  EXPECT_EQ(decode_kind(std::string("RU\x02\x00", 4)), ProtocolError::Kind::kBadVersion);
  EXPECT_EQ(decode_kind(std::string("RU\x01\x01", 4)), ProtocolError::Kind::kBadFlags);
}

TEST(ServeFraming, OversizedLengthPrefixFailsBeforeAllocation) {
  // Length field = kMaxPayloadBytes + 1, little-endian.
  const std::uint32_t length = static_cast<std::uint32_t>(kMaxPayloadBytes) + 1;
  std::string header = {'R', 'U', 1, 0};
  for (int shift = 0; shift < 32; shift += 8) {
    header.push_back(static_cast<char>((length >> shift) & 0xffu));
  }
  EXPECT_EQ(decode_kind(header), ProtocolError::Kind::kOversized);

  std::stringstream wire(header);
  try {
    (void)read_frame(wire);
    FAIL() << "oversized frame was accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolError::Kind::kOversized);
    EXPECT_TRUE(e.session_fatal());
  }
}

TEST(ServeFraming, TruncationIsFatalInHeaderAndPayload) {
  const std::string frame = encode_frame("{\"type\":\"ping\",\"id\":1}");
  // Inside the header.
  EXPECT_EQ(decode_kind(frame.substr(0, 3)), ProtocolError::Kind::kTruncated);
  // Inside the payload.
  EXPECT_EQ(decode_kind(frame.substr(0, frame.size() - 1)),
            ProtocolError::Kind::kTruncated);

  std::stringstream wire(frame.substr(0, frame.size() - 1));
  EXPECT_THROW((void)read_frame(wire), ProtocolError);
}

// --- Request parsing --------------------------------------------------------

TEST(ServeRequest, ParsesControlAndBatchRequests) {
  const Request ping = parse_request("{\"type\":\"ping\",\"id\":8}");
  EXPECT_EQ(ping.type, RequestType::kPing);
  EXPECT_EQ(ping.id, 8);

  const Request stats = parse_request("{\"type\":\"stats\",\"id\":9}");
  EXPECT_EQ(stats.type, RequestType::kStats);

  const Request batch =
      parse_request(batch_json(7, {query_json(1), query_json(2)}));
  EXPECT_EQ(batch.type, RequestType::kBatch);
  EXPECT_EQ(batch.id, 7);
  ASSERT_EQ(batch.queries.size(), 2u);
  ASSERT_TRUE(batch.queries[0].query.has_value());
  EXPECT_EQ(batch.queries[0].query->workers.size(), 4u);
  EXPECT_EQ(batch.queries[0].query->seed, 1u);
}

TEST(ServeRequest, EnvelopeProblemsAreNonFatalProtocolErrors) {
  const std::vector<std::string> bad = {
      "not json at all",
      "[1,2,3]",
      "{\"type\":\"frob\",\"id\":1}",
      "{\"type\":\"ping\"}",                      // Missing id.
      "{\"type\":\"ping\",\"id\":1,\"x\":2}",     // Unknown envelope key.
      "{\"type\":\"batch\",\"id\":1,\"queries\":[]}",  // Empty batch, by contract.
  };
  for (const std::string& payload : bad) {
    try {
      (void)parse_request(payload);
      ADD_FAILURE() << "accepted: " << payload;
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.kind(), ProtocolError::Kind::kBadRequest) << payload;
      EXPECT_FALSE(e.session_fatal()) << payload;
    }
  }
}

TEST(ServeRequest, QueryProblemsLandInTheSlotNotTheEnvelope) {
  const Request batch = parse_request(
      batch_json(3, {query_json(1), "{\"workload\":250,\"bogus\":1}"}));
  ASSERT_EQ(batch.queries.size(), 2u);
  EXPECT_TRUE(batch.queries[0].query.has_value());
  EXPECT_FALSE(batch.queries[1].query.has_value());
  EXPECT_FALSE(batch.queries[1].error.empty());
}

TEST(ServeRequest, SeedAcceptsDecimalStringsBeyondDoublePrecision) {
  const Request batch = parse_request(batch_json(
      1, {"{\"workload\":100,\"seed\":\"18446744073709551615\"}"}));
  ASSERT_TRUE(batch.queries[0].query.has_value());
  EXPECT_EQ(batch.queries[0].query->seed, 18446744073709551615ull);
  const std::string key = canonical_query_key(*batch.queries[0].query);
  EXPECT_NE(key.find("\"seed\":\"18446744073709551615\""), std::string::npos);
}

// --- Canonical keys ---------------------------------------------------------

TEST(ServeCanonicalKey, HomogeneousShorthandMatchesExplicitList) {
  const Request shorthand = parse_request(batch_json(
      1, {"{\"platform\":{\"homogeneous\":{\"workers\":3,\"speed\":2,\"bandwidth\":8}},"
          "\"workload\":500,\"seed\":7}"}));
  const Request explicit_list = parse_request(batch_json(
      1, {"{\"platform\":{\"workers\":["
          "{\"speed\":2,\"bandwidth\":8},{\"speed\":2,\"bandwidth\":8},"
          "{\"speed\":2,\"bandwidth\":8}]},\"workload\":500,\"seed\":7}"}));
  ASSERT_TRUE(shorthand.queries[0].query.has_value());
  ASSERT_TRUE(explicit_list.queries[0].query.has_value());
  EXPECT_EQ(canonical_query_key(*shorthand.queries[0].query),
            canonical_query_key(*explicit_list.queries[0].query));
}

TEST(ServeCanonicalKey, EveryFieldParticipates) {
  const Query base = *parse_request(batch_json(1, {query_json(7)})).queries[0].query;
  const std::string base_key = canonical_query_key(base);

  Query changed = base;
  changed.seed = 8;
  EXPECT_NE(canonical_query_key(changed), base_key);
  changed = base;
  changed.workload = 251;
  EXPECT_NE(canonical_query_key(changed), base_key);
  changed = base;
  changed.algorithm = "umr";
  EXPECT_NE(canonical_query_key(changed), base_key);
  changed = base;
  changed.workers.push_back(changed.workers.front());
  EXPECT_NE(canonical_query_key(changed), base_key);
}

TEST(ServeCanonicalKey, IntegralWorkloadIsSpelledInPlainDigits) {
  const Request batch = parse_request(batch_json(1, {"{\"workload\":100000,\"seed\":7}"}));
  ASSERT_TRUE(batch.queries[0].query.has_value());
  const std::string key = canonical_query_key(*batch.queries[0].query);
  EXPECT_NE(key.find("\"workload\":100000,"), std::string::npos) << key;
}

TEST(ServeCanonicalKey, Fnv1a64MatchesReferenceConstants) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);  // FNV-1a offset basis.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(fnv1a64("ab"), fnv1a64("ba"));
}

// --- Plan cache -------------------------------------------------------------

TEST(PlanCache, ExactlyOnceUnderConcurrentLookups) {
  // The TSan target: many client threads race overlapping keys; every
  // distinct key must be solved exactly once and every lookup must land in
  // the hit or miss ledger.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kLookupsEach = 200;
  constexpr std::size_t kDistinctKeys = 16;

  PlanCache cache;
  std::atomic<std::size_t> solves{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t i = 0; i < kLookupsEach; ++i) {
        const std::size_t k = (t * 31 + i) % kDistinctKeys;
        const std::string key = "key-" + std::to_string(k);
        const auto plan = cache.get_or_compute(key, [&, k] {
          solves.fetch_add(1, std::memory_order_relaxed);
          return "plan-" + std::to_string(k);
        });
        ASSERT_EQ(*plan, "plan-" + std::to_string(k));
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(solves.load(), kDistinctKeys);
  const obs::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, kThreads * kLookupsEach);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_EQ(stats.misses, kDistinctKeys);
  EXPECT_EQ(stats.insertions, kDistinctKeys);
  EXPECT_EQ(stats.entries, kDistinctKeys);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.failed_solves, 0u);
}

TEST(PlanCache, EvictsLeastRecentlyUsedWithinCapacity) {
  PlanCache cache(PlanCacheOptions{/*capacity=*/2, /*max_bytes=*/1u << 20,
                                   /*shards=*/1});
  const auto solve = [](const std::string& key) {
    return [key] { return "plan:" + key; };
  };
  (void)cache.get_or_compute("a", solve("a"));
  (void)cache.get_or_compute("b", solve("b"));
  (void)cache.get_or_compute("a", solve("a"));  // Refresh a; b becomes LRU.
  (void)cache.get_or_compute("c", solve("c"));  // Evicts b.

  obs::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 3u);

  (void)cache.get_or_compute("a", solve("a"));
  EXPECT_EQ(cache.stats().hits, 2u);  // a survived both passes.
  (void)cache.get_or_compute("b", solve("b"));
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);  // b was really gone.
  EXPECT_EQ(stats.entries + stats.evictions, stats.insertions);
}

TEST(PlanCache, ZeroCapacityIsAccountedPassThrough) {
  PlanCache cache(PlanCacheOptions{/*capacity=*/0, /*max_bytes=*/1u << 20,
                                   /*shards=*/1});
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(*cache.get_or_compute("k", [] { return std::string("v"); }), "v");
  }
  const obs::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 0u);  // Nothing is ever resident.
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes_cached, 0u);
}

TEST(PlanCache, ByteBudgetBoundsResidency) {
  PlanCache cache(PlanCacheOptions{/*capacity=*/100, /*max_bytes=*/1,
                                   /*shards=*/1});
  (void)cache.get_or_compute("key-one", [] { return std::string(100, 'p'); });
  (void)cache.get_or_compute("key-two", [] { return std::string(100, 'q'); });
  const obs::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);  // Every plan is over the byte budget alone.
  EXPECT_EQ(stats.evictions, stats.insertions);
  EXPECT_EQ(stats.bytes_cached, 0u);
}

TEST(PlanCache, SolverFailureReachesCallerAndAllowsRetry) {
  PlanCache cache;
  EXPECT_THROW((void)cache.get_or_compute(
                   "k", []() -> std::string { throw std::runtime_error("solver died"); }),
               std::runtime_error);
  obs::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.failed_solves, 1u);
  EXPECT_EQ(stats.entries, 0u);  // Failed entry was removed...

  EXPECT_EQ(*cache.get_or_compute("k", [] { return std::string("ok"); }), "ok");
  stats = cache.stats();  // ...so the retry solves and caches.
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.insertions + stats.collisions + stats.failed_solves, stats.misses);
}

// --- Server -----------------------------------------------------------------

TEST(ServeServer, WarmResponsesAreByteIdenticalToCold) {
  const std::string payload =
      batch_json(2, {query_json(7), query_json(8), query_json(7, "umr")});

  Server cached{ServerOptions{}};
  const std::string cold = cached.handle(payload);
  const std::string warm = cached.handle(payload);
  EXPECT_EQ(cold, warm);
  EXPECT_NE(cold.find("\"type\":\"result\""), std::string::npos);
  EXPECT_NE(cold.find("\"makespan\":"), std::string::npos);

  // A pass-through server (capacity 0) recomputes everything and must still
  // produce the same bytes: identity is a property of the solver, the cache
  // only preserves it.
  ServerOptions pass_through;
  pass_through.cache_capacity = 0;
  Server uncached{pass_through};
  EXPECT_EQ(uncached.handle(payload), cold);

  const obs::ServeStats stats = cached.stats();
  EXPECT_EQ(stats.queries, 6u);
  EXPECT_EQ(stats.solves, 3u);
  EXPECT_EQ(stats.plan_cache.hits, 3u);
  EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
}

TEST(ServeServer, BatchFanOutWidthDoesNotChangeResponseBytes) {
  std::vector<std::string> queries;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) queries.push_back(query_json(seed));
  const std::string payload = batch_json(4, queries);

  ServerOptions serial;
  serial.batch_threads = 1;
  ServerOptions wide;
  wide.batch_threads = 4;
  Server a{serial};
  Server b{wide};
  EXPECT_EQ(a.handle(payload), b.handle(payload));
}

TEST(ServeServer, MalformedPayloadIsAnsweredInSession) {
  Server server{ServerOptions{}};
  const std::string response = server.handle("definitely not a request");
  EXPECT_NE(response.find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(response.find("\"id\":-1"), std::string::npos);

  const obs::ServeStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
}

TEST(ServeServer, PerQueryErrorsDoNotPoisonTheBatch) {
  Server server{ServerOptions{}};
  const std::string response = server.handle(batch_json(
      5, {query_json(1), query_json(1, "frobnicate"), "{\"bogus\":true}"}));
  EXPECT_NE(response.find("\"makespan\":"), std::string::npos);
  EXPECT_NE(response.find("unknown algorithm"), std::string::npos);

  const obs::ServeStats stats = server.stats();
  EXPECT_EQ(stats.queries, 3u);
  // One parse failure; the unknown algorithm fails in the solver instead.
  EXPECT_EQ(stats.query_errors, 1u);
  EXPECT_EQ(stats.plan_cache.failed_solves, 1u);
  EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
}

TEST(ServeServer, PingAndStatsAnswerInline) {
  Server server{ServerOptions{}};
  EXPECT_EQ(server.handle("{\"type\":\"ping\",\"id\":8}"), "{\"type\":\"pong\",\"id\":8}");
  const std::string stats_response = server.handle("{\"type\":\"stats\",\"id\":9}");
  EXPECT_NE(stats_response.find("\"type\":\"stats\""), std::string::npos);
  EXPECT_NE(stats_response.find("\"plan_cache\""), std::string::npos);
}

TEST(ServeServer, RejectNewAdmissionFillsQueueThenRejects) {
  // A width-1 executor runs the submitting client's batch inline, so a
  // client thread pins the server while the main thread probes admission.
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 2;
  Server server{options};

  std::vector<std::string> big;
  for (std::uint64_t seed = 1; seed <= 192; ++seed) big.push_back(query_json(seed));
  std::thread client([&] { (void)server.handle(batch_json(1, big)); });
  while (server.stats().admitted < 1) std::this_thread::yield();

  std::vector<std::future<std::string>> fillers;
  for (std::int64_t id = 10; id < 13; ++id) {
    fillers.push_back(server.submit(batch_json(id, {query_json(7)})));
  }
  // Two waited, the third found the queue full.
  EXPECT_NE(fillers[2].get().find("rejected: request queue is full"), std::string::npos);
  EXPECT_NE(fillers[0].get().find("\"type\":\"result\""), std::string::npos);
  EXPECT_NE(fillers[1].get().find("\"type\":\"result\""), std::string::npos);
  client.join();
  server.wait_idle();

  const obs::ServeStats stats = server.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth_high_water, 2u);
  EXPECT_EQ(stats.admitted + stats.rejected + stats.shed, stats.received);
  EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
}

TEST(ServeServer, ShedOldestDisplacesTheLongestWaiter) {
  ServerOptions options;
  options.threads = 1;
  options.queue_capacity = 1;
  options.admission = jobs::AdmissionPolicy::kShedOldest;
  Server server{options};

  std::vector<std::string> big;
  for (std::uint64_t seed = 1; seed <= 192; ++seed) big.push_back(query_json(seed));
  std::thread client([&] { (void)server.handle(batch_json(1, big)); });
  while (server.stats().admitted < 1) std::this_thread::yield();

  std::future<std::string> first = server.submit(batch_json(10, {query_json(3)}));
  std::future<std::string> second = server.submit(batch_json(11, {query_json(4)}));
  EXPECT_NE(first.get().find("shed: displaced by a newer request"), std::string::npos);
  EXPECT_NE(second.get().find("\"type\":\"result\""), std::string::npos);
  client.join();
  server.wait_idle();

  const obs::ServeStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
}

TEST(ServeServer, StreamSessionAnswersInRequestOrder) {
  const std::string batch = batch_json(2, {query_json(7), query_json(8)});
  std::stringstream in;
  write_frame(in, "{\"type\":\"ping\",\"id\":1}");
  write_frame(in, batch);
  write_frame(in, batch);  // Identical request: must serve from cache, same bytes.
  write_frame(in, "{\"type\":\"stats\",\"id\":9}");

  std::stringstream out;
  Server server{ServerOptions{}};
  server.serve_stream(in, out);

  std::vector<std::string> responses;
  while (auto frame = read_frame(out)) responses.push_back(*std::move(frame));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0], "{\"type\":\"pong\",\"id\":1}");
  EXPECT_EQ(responses[1], responses[2]);
  EXPECT_NE(responses[3].find("\"type\":\"stats\""), std::string::npos);
  EXPECT_EQ(server.stats().plan_cache.hits, 2u);
}

TEST(ServeServer, OversizedMiQueriesGetNamedErrorsAndTheBatchIsAnswered) {
  // Frame 1: an installment count past 2^63, whose N*x wraps around to a
  // tiny matrix that an unchecked solve would write far outside; the
  // registry's parser rejects it. Frame 2: a count the parser accepts whose
  // N*x exceeds the solver's bound, so the solver rejects it. Each error
  // stays in its slot.
  const std::string overflow =
      "{\"id\":2,\"type\":\"batch\",\"queries\":[{\"platform\":{\"homogeneous\":"
      "{\"workers\":2}},\"workload\":100,\"algorithm\":\"mi-9223372036854775809\","
      "\"seed\":1}," + query_json(5) + "]}";
  const std::string too_large = batch_json(3, {query_json(6), query_json(6, "mi-1000")});
  std::stringstream in;
  write_frame(in, overflow);
  write_frame(in, too_large);

  std::stringstream out;
  Server server{ServerOptions{}};
  server.serve_stream(in, out);

  std::vector<std::string> responses;
  while (auto frame = read_frame(out)) responses.push_back(*std::move(frame));
  ASSERT_EQ(responses.size(), 2u);
  const std::string& first = responses[0];
  EXPECT_NE(first.find("{\"error\":\"bad MI installment count in: mi-9223372036854775809"),
            std::string::npos)
      << first;
  EXPECT_LT(first.find("\"error\""), first.find("\"makespan\":")) << first;
  const std::string& second = responses[1];
  EXPECT_NE(second.find("\"makespan\":"), std::string::npos) << second;
  EXPECT_NE(second.find("MI-1000 on 4 workers exceeds the solver's bound"), std::string::npos)
      << second;
  EXPECT_LT(second.find("\"makespan\":"), second.find("\"error\"")) << second;

  const obs::ServeStats stats = server.stats();
  EXPECT_EQ(stats.plan_cache.failed_solves, 2u);
  EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
}

TEST(ServeServer, StreamSessionClosesOnFatalFramingError) {
  std::stringstream in;
  write_frame(in, "{\"type\":\"ping\",\"id\":1}");
  in << "XX garbage after a valid frame";

  std::stringstream out;
  Server server{ServerOptions{}};
  server.serve_stream(in, out);

  std::vector<std::string> responses;
  while (auto frame = read_frame(out)) responses.push_back(*std::move(frame));
  ASSERT_EQ(responses.size(), 2u);  // The in-flight ping, then the fatal error.
  EXPECT_EQ(responses[0], "{\"type\":\"pong\",\"id\":1}");
  EXPECT_NE(responses[1].find("\"type\":\"error\""), std::string::npos);
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

// --- Facade -----------------------------------------------------------------

TEST(ServeFacade, ValidateNamesEveryProblem) {
  EXPECT_TRUE(rumr::Serve().validate().empty());

  rumr::Serve bad;
  bad.cache_shards(0)
      .queue_capacity(0)
      .admission(jobs::AdmissionPolicy::kShedOldest);
  const std::vector<std::string> problems = bad.validate();
  EXPECT_EQ(problems.size(), 2u);
  EXPECT_THROW((void)bad.make_server(), std::invalid_argument);
}

TEST(ServeFacade, RunPumpsASessionAndAuditsTheLedger) {
  std::stringstream in;
  write_frame(in, batch_json(1, {query_json(5)}));
  write_frame(in, batch_json(1, {query_json(5)}));

  std::stringstream out;
  const obs::ServeStats stats = rumr::Serve().threads(2).run(in, out);
  EXPECT_EQ(stats.received, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.plan_cache.hits, 1u);

  const std::optional<std::string> first = read_frame(out);
  const std::optional<std::string> second = read_frame(out);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(*first, *second);
}

// --- Config bridge ----------------------------------------------------------

TEST(ServeConfig, ParsesTheFullSection) {
  const ServerOptions options = server_options_from_config(config::ConfigFile::parse(
      "[serve]\n"
      "threads = 3\n"
      "batch_threads = 2\n"
      "cache_capacity = 128\n"
      "cache_bytes = 4096\n"
      "cache_shards = 4\n"
      "queue = priority\n"
      "admission = shed\n"
      "queue_capacity = 9\n"
      "audit = false\n"));
  EXPECT_EQ(options.threads, 3u);
  EXPECT_EQ(options.batch_threads, 2u);
  EXPECT_EQ(options.cache_capacity, 128u);
  EXPECT_EQ(options.cache_max_bytes, 4096u);
  EXPECT_EQ(options.cache_shards, 4u);
  EXPECT_EQ(options.discipline, jobs::QueueDiscipline::kPriority);
  EXPECT_EQ(options.admission, jobs::AdmissionPolicy::kShedOldest);
  EXPECT_EQ(options.queue_capacity, 9u);
  EXPECT_FALSE(options.audit);
}

TEST(ServeConfig, DefaultsWhenSectionAbsentAndRejectsBadEnums) {
  const ServerOptions defaults =
      server_options_from_config(config::ConfigFile::parse(""));
  EXPECT_EQ(defaults.cache_capacity, ServerOptions{}.cache_capacity);
  EXPECT_EQ(defaults.admission, jobs::AdmissionPolicy::kRejectNew);

  EXPECT_THROW((void)server_options_from_config(
                   config::ConfigFile::parse("[serve]\nadmission = drop\n")),
               config::ConfigError);
  EXPECT_THROW((void)server_options_from_config(
                   config::ConfigFile::parse("[serve]\nqueue = lifo\n")),
               config::ConfigError);
}

}  // namespace
}  // namespace rumr::serve
