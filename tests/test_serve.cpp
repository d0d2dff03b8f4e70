// Tests for the what-if scheduling server (rumr::serve): wire framing
// (including property-style incremental decoding at every chunk size),
// request parsing, canonical cache keys, the content-addressed plan cache
// (exactly-once under concurrency — the TSan target — plus eviction and
// failure ledgers), server byte-identity and admission behavior, the
// rumr::Serve facade, and the [serve] config bridge.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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
#include "serve_payloads.hpp"
#include "stats/rng.hpp"
#include "util/json_lite.hpp"

namespace rumr::serve {
namespace {

// --- Helpers ----------------------------------------------------------------

using test_support::batch_json;
using test_support::query_json;

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

/// A batch of one query on `workers` identical workers, as the shorthand or
/// as an explicit list.
std::string workers_batch(std::size_t workers, bool shorthand) {
  std::string platform;
  if (shorthand) {
    platform = "{\"homogeneous\":{\"workers\":" + std::to_string(workers) + "}}";
  } else {
    platform = "{\"workers\":[";
    for (std::size_t i = 0; i < workers; ++i) platform += i == 0 ? "{}" : ",{}";
    platform += "]}";
  }
  return batch_json(1, {"{\"platform\":" + platform + ",\"workload\":100}"});
}

TEST(ServeRequest, AQueryDescribesAtMostOneHundredThousandWorkers) {
  for (const bool shorthand : {true, false}) {
    const Request at_limit = parse_request(workers_batch(100000, shorthand));
    ASSERT_TRUE(at_limit.queries[0].query.has_value()) << at_limit.queries[0].error;
    EXPECT_EQ(at_limit.queries[0].query->workers.size(), 100000u);

    // One more is the query's own problem: a slot error, not a refusal.
    const Request over = parse_request(workers_batch(100001, shorthand));
    ASSERT_FALSE(over.queries[0].query.has_value());
    EXPECT_EQ(over.queries[0].error,
              shorthand ? "bad request: platform.homogeneous.workers must be a non-negative "
                          "integer <= 100000"
                        : "bad request: platform.workers exceeds the 100000-worker limit");
  }
}

TEST(ServeRequest, ABatchDescribesAtMostOneHundredThousandWorkersInTotal) {
  const auto query = [](std::size_t workers) {
    return "{\"platform\":{\"homogeneous\":{\"workers\":" + std::to_string(workers) +
           "}},\"workload\":100}";
  };
  // The default platform is ten workers, and a list counts its entries.
  const std::string list = "{\"platform\":{\"workers\":[{},{}]},\"workload\":100}";
  const Request at_limit =
      parse_request(batch_json(1, {query(60000), "{\"workload\":100}", list, query(39988)}));
  for (const QuerySlot& slot : at_limit.queries) ASSERT_TRUE(slot.query.has_value()) << slot.error;

  try {
    (void)parse_request(batch_json(1, {query(60000), "{\"workload\":100}", list, query(39989)}));
    ADD_FAILURE() << "accepted a batch of 100001 workers";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolError::Kind::kBadRequest);
    EXPECT_STREQ(e.what(),
                 "bad request: batch request describes more than 100000 workers in total");
  }
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

// --- Binary cache keys ------------------------------------------------------

Query parse_query_json(const std::string& query) {
  const Request request = parse_request(batch_json(1, {query}));
  EXPECT_TRUE(request.queries[0].query.has_value()) << request.queries[0].error;
  return *request.queries[0].query;
}

/// Over every pair of `queries`: the binary keys are equal exactly when the
/// canonical texts are.
void expect_keys_agree(const std::vector<Query>& queries) {
  std::vector<std::string> texts;
  std::vector<std::string> binaries;
  for (const Query& q : queries) {
    texts.push_back(canonical_query_key(q));
    binaries.push_back(binary_query_key(q));
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (std::size_t j = 0; j < queries.size(); ++j) {
      EXPECT_EQ(binaries[i] == binaries[j], texts[i] == texts[j])
          << "queries " << i << " and " << j << ":\n  " << texts[i] << "\n  " << texts[j];
    }
  }
}

TEST(ServeBinaryKey, EqualExactlyWhenTheCanonicalTextsAreEqual) {
  // The canonical-equivalence cases: shorthand against the explicit list,
  // and every field participating.
  const Query shorthand = parse_query_json(
      "{\"platform\":{\"homogeneous\":{\"workers\":3,\"speed\":2,\"bandwidth\":8}},"
      "\"workload\":500,\"seed\":7}");
  const Query explicit_list = parse_query_json(
      "{\"platform\":{\"workers\":[{\"speed\":2,\"bandwidth\":8},{\"speed\":2,\"bandwidth\":8},"
      "{\"speed\":2,\"bandwidth\":8}]},\"workload\":500,\"seed\":7}");
  EXPECT_EQ(binary_query_key(shorthand), binary_query_key(explicit_list));

  const Query base = parse_query_json(
      "{\"platform\":{\"workers\":[{\"speed\":2,\"bandwidth\":30,\"comp_latency\":0.1},"
      "{\"speed\":2,\"bandwidth\":30,\"comp_latency\":0.1},{\"speed\":1,\"bandwidth\":15},"
      "{\"speed\":1,\"bandwidth\":15},{\"speed\":0.5,\"bandwidth\":8,\"comm_latency\":0.2}]},"
      "\"workload\":1000,\"algorithm\":\"rumr\",\"known_error\":0.3,\"error\":0.3,"
      "\"seed\":\"12345678901234567\",\"uplink_channels\":2,\"output_ratio\":0.25,"
      "\"worker_buffer_capacity\":3}");
  std::vector<Query> family = {shorthand, explicit_list, base, base};

  // Seeded one-ulp moves of every double field, up and down, plus one-step
  // moves of every integer field.
  stats::Rng rng(20031);
  const auto nudge = [&](double v) {
    return std::nextafter(v, rng.uniform_index(2) == 0 ? -HUGE_VAL : HUGE_VAL);
  };
  for (int round = 0; round < 4; ++round) {
    Query q = base;
    q.workload = nudge(q.workload);
    family.push_back(q);
    q = base;
    q.known_error = nudge(q.known_error);
    family.push_back(q);
    q = base;
    q.error = nudge(q.error);
    family.push_back(q);
    q = base;
    q.output_ratio = nudge(q.output_ratio);
    family.push_back(q);
    const std::size_t w = rng.uniform_index(base.workers.size());
    for (double platform::WorkerSpec::*field :
         {&platform::WorkerSpec::speed, &platform::WorkerSpec::bandwidth,
          &platform::WorkerSpec::comp_latency, &platform::WorkerSpec::comm_latency,
          &platform::WorkerSpec::transfer_latency}) {
      q = base;
      q.workers[w].*field = nudge(q.workers[w].*field);
      family.push_back(q);
    }
  }
  Query q = base;
  q.uplink_channels += 1;
  family.push_back(q);
  q = base;
  q.worker_buffer_capacity += 1;
  family.push_back(q);

  // -0.0 against 0.0, in a latency and in `error`.
  q = base;
  q.workers[2].comp_latency = -0.0;
  family.push_back(q);
  q.workers[2].comp_latency = 0.0;
  family.push_back(q);
  q = base;
  q.error = -0.0;
  family.push_back(q);
  q.error = 0.0;
  family.push_back(q);

  // Seeds around 2^53, where a double stops being exact.
  for (const std::uint64_t seed :
       {(1ULL << 53) - 1, 1ULL << 53, (1ULL << 53) + 1, (1ULL << 53) + 1}) {
    q = base;
    q.seed = seed;
    family.push_back(q);
  }

  // Algorithm names with a quote, a backslash and non-ASCII (UTF-8) bytes,
  // including ones that spell another name's escape.
  for (const char* name : {"ru\"mr", "ru\\mr", "ru\\\"mr", "r\xc3\xa9mr", "r\\u00e9mr",
                           "\xe6\x97\xa5\xe6\x9c\xac", "\xf0\x9f\x99\x82", "r\xc3\xa9mr"}) {
    q = base;
    q.algorithm = name;
    family.push_back(q);
  }

  // Runs: a homogeneous list, the same list with one worker moved by one
  // ulp (splitting its run), the same workers reordered, and one fewer.
  q = base;
  q.workers.assign(8, base.workers[0]);
  family.push_back(q);
  Query split = q;
  split.workers[3].speed = std::nextafter(split.workers[3].speed, HUGE_VAL);
  family.push_back(split);
  Query reordered = base;
  std::swap(reordered.workers[1], reordered.workers[2]);
  family.push_back(reordered);
  q.workers.pop_back();
  family.push_back(q);

  expect_keys_agree(family);
}

TEST(ServeBinaryKey, InvalidUtf8AlgorithmBytesStayApart) {
  // The text key folds each invalid byte into U+FFFD; the binary key keeps
  // the bytes, so it is the finer of the two here. No registry name holds
  // such bytes, so both queries fail to solve either way.
  const Query base = parse_query_json(query_json(7));
  Query a = base;
  a.algorithm = "\xff";
  Query b = base;
  b.algorithm = "\xfe";
  EXPECT_EQ(canonical_query_key(a), canonical_query_key(b));
  EXPECT_NE(binary_query_key(a), binary_query_key(b));
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

  // The pass-through server evicts every plan it inserts.
  const obs::ServeStats uncached_stats = uncached.stats();
  EXPECT_EQ(uncached_stats.plan_cache.hits, 0u);
  EXPECT_EQ(uncached_stats.plan_cache.entries, 0u);
  EXPECT_EQ(uncached_stats.plan_cache.evictions, uncached_stats.plan_cache.insertions);
  EXPECT_TRUE(check::audit_serve_stats(uncached_stats, /*drained=*/true).ok());
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

TEST(ServeServer, ABatchOverTheWorkerLimitIsRefusedBeforeItExpands) {
  // Ten maximal shorthand queries in a frame under 1 KB: the second crosses
  // the batch's 100000-worker budget, so the request is refused whole.
  const std::string query =
      "{\"platform\":{\"homogeneous\":{\"workers\":100000}},\"workload\":100}";
  Server server{ServerOptions{}};
  const std::string response = server.handle(batch_json(3, std::vector<std::string>(10, query)));
  EXPECT_EQ(response, make_error_response(-1, "bad request: batch request describes more than "
                                              "100000 workers in total"));
  const obs::ServeStats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.plan_cache.lookups, 0u);
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

/// One counter of a stats reply's ledger.
std::uint64_t reply_count(const std::string& reply, const char* field) {
  const util::JsonValue doc = util::JsonValue::parse(reply);
  return static_cast<std::uint64_t>(doc.find("stats")->find(field)->as_number());
}

TEST(ServeServer, ControlRequestsAnswerAlikeOnAnExecutorAndInline) {
  const std::string ping = "{\"type\":\"ping\",\"id\":8}";
  const std::string stats_request = "{\"type\":\"stats\",\"id\":9}";
  const std::string malformed = "definitely not a request";

  // Idle: an executor is free for each probe, so it admits the payload
  // unparsed and the executor answers it.
  ServerOptions idle_options;
  idle_options.threads = 2;
  Server idle{idle_options};

  // Saturated, pinned as the reject test does: a width-1 executor runs a
  // client's 192-query batch, so each probe is parsed and answered on the
  // submitting thread.
  ServerOptions pinned_options;
  pinned_options.threads = 1;
  pinned_options.queue_capacity = 2;
  Server pinned{pinned_options};
  std::vector<std::string> big;
  for (std::uint64_t seed = 1; seed <= 192; ++seed) big.push_back(query_json(seed));
  std::thread client([&] { (void)pinned.handle(batch_json(1, big)); });
  while (pinned.stats().queries < big.size()) std::this_thread::yield();

  std::vector<std::string> malformed_replies;
  for (Server* server : {&idle, &pinned}) {
    const obs::ServeStats before = server->stats();
    EXPECT_EQ(server->submit(ping).get(), "{\"type\":\"pong\",\"id\":8}");
    const std::string reply = server->submit(stats_request).get();
    EXPECT_EQ(reply.rfind("{\"type\":\"stats\",\"id\":9,\"stats\":{", 0), 0u) << reply;
    EXPECT_NE(reply.find("\"plan_cache\""), std::string::npos) << reply;
    // The reply is a snapshot taken when it is answered: it counts the ping
    // and itself as received, admitted and completed.
    EXPECT_EQ(reply_count(reply, "received"), before.received + 2) << reply;
    EXPECT_EQ(reply_count(reply, "admitted"), before.admitted + 2) << reply;
    EXPECT_GE(reply_count(reply, "completed"), before.completed + 2) << reply;
    malformed_replies.push_back(server->submit(malformed).get());
  }
  EXPECT_EQ(malformed_replies[0].rfind("{\"type\":\"error\",\"id\":-1,", 0), 0u)
      << malformed_replies[0];
  EXPECT_EQ(malformed_replies[0], malformed_replies[1]);
  client.join();
  pinned.wait_idle();

  // The same ledger buckets on both paths, once the pin's own batch (one
  // request, 192 queries) is set aside.
  const obs::ServeStats a = idle.stats();
  const obs::ServeStats b = pinned.stats();
  EXPECT_EQ(a.received, 3u);
  EXPECT_EQ(a.admitted, 3u);
  EXPECT_EQ(a.completed, 3u);
  EXPECT_EQ(a.protocol_errors, 1u);
  EXPECT_EQ(b.received - 1, a.received);
  EXPECT_EQ(b.admitted - 1, a.admitted);
  EXPECT_EQ(b.completed - 1, a.completed);
  EXPECT_EQ(b.protocol_errors, a.protocol_errors);
  EXPECT_EQ(b.rejected + b.shed, a.rejected + a.shed);
  EXPECT_EQ(b.queries - big.size(), a.queries);
  EXPECT_TRUE(check::audit_serve_stats(a, /*drained=*/true).ok());
  EXPECT_TRUE(check::audit_serve_stats(b, /*drained=*/true).ok());
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

TEST(ServeServer, PipelinedStreamIsNeverRejectedOrShed) {
  // 500 one-query cold frames in one pipelined session against an admission
  // capacity of 2 executors + 4 queue slots: the stream stops reading while
  // admission is full instead of turning requests away. Ping, stats and
  // malformed frames are interleaved; each is answered in its place.
  constexpr std::size_t kFrames = 500;
  std::stringstream frames;
  std::vector<std::string> expected_prefix;  // Of each response, in order.
  std::size_t malformed = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto id = static_cast<std::int64_t>(i);
    write_frame(frames, batch_json(id, {query_json(i, "umr")}));
    expected_prefix.push_back("{\"type\":\"result\",\"id\":" + std::to_string(id) + ",");
    const std::string control_id = std::to_string(100000 + i);
    if (i % 7 == 3) {
      write_frame(frames, "{\"type\":\"ping\",\"id\":" + control_id + "}");
      expected_prefix.push_back("{\"type\":\"pong\",\"id\":" + control_id + "}");
    }
    if (i % 11 == 5) {
      write_frame(frames, "{\"type\":\"stats\",\"id\":" + control_id + "}");
      expected_prefix.push_back("{\"type\":\"stats\",\"id\":" + control_id + ",");
    }
    if (i % 13 == 7) {
      write_frame(frames, "{\"type\":\"batch\",\"id\":" + control_id);
      expected_prefix.push_back("{\"type\":\"error\",\"id\":-1,");
      ++malformed;
    }
  }
  for (const jobs::AdmissionPolicy admission :
       {jobs::AdmissionPolicy::kRejectNew, jobs::AdmissionPolicy::kShedOldest}) {
    ServerOptions options;
    options.threads = 2;
    options.queue_capacity = 4;
    options.admission = admission;
    Server server{options};
    std::stringstream in(frames.str());
    std::stringstream out;
    server.serve_stream(in, out);
    server.wait_idle();

    std::size_t responses = 0;
    while (auto frame = read_frame(out)) {
      ASSERT_LT(responses, expected_prefix.size());
      EXPECT_EQ(frame->rfind(expected_prefix[responses], 0), 0u)
          << jobs::to_string(admission) << " response " << responses << ": " << *frame;
      ++responses;
    }
    EXPECT_EQ(responses, expected_prefix.size()) << jobs::to_string(admission);
    const obs::ServeStats stats = server.stats();
    EXPECT_EQ(stats.received, expected_prefix.size());
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.protocol_errors, malformed);
    EXPECT_EQ(stats.plan_cache.misses, kFrames);  // Every batch was a cold solve.
    EXPECT_TRUE(check::audit_serve_stats(stats, /*drained=*/true).ok());
  }
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
