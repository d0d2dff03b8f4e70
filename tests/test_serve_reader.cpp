// Differential test of serve's request reader, run under the "regression"
// label so every preset (asan-ubsan and tsan included) replays it. The
// reader walks a util::JsonDocument tape; tests/serve_tree_reader.hpp keeps
// the reader that walked a util::JsonValue tree as the reference. On a
// seeded corpus of valid batches and their mutations the two must agree:
// the same ProtocolError text, or the same type, id and priority, and in
// each slot the same error text or the same binary_query_key.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve_payloads.hpp"
#include "serve_tree_reader.hpp"
#include "stats/rng.hpp"

namespace rumr::serve {
namespace {

using test_support::batch_json;
using test_support::every_field_query_json;
using test_support::kListPlatform;
using test_support::kShorthandPlatform;
using test_support::query_json;

/// Everything the readers promise about one payload, as comparable text.
std::string outcome(Request (*reader)(const std::string&), const std::string& payload) {
  Request request;
  try {
    request = reader(payload);
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.kind(), ProtocolError::Kind::kBadRequest) << payload;
    return std::string("throws: ") + e.what();
  }
  std::string text = "type " + std::to_string(static_cast<int>(request.type)) + " id " +
                     std::to_string(request.id) + " priority " +
                     std::to_string(request.priority);
  for (const QuerySlot& slot : request.queries) {
    text += slot.query ? "\n  key " + binary_query_key(*slot.query) : "\n  error " + slot.error;
  }
  return text;
}

std::vector<std::string> valid_payloads() {
  return {
      batch_json(7, {query_json(1), query_json(2, "umr")}),
      batch_json(8, {every_field_query_json(kShorthandPlatform, "42"),
                     every_field_query_json(kListPlatform, "\"18446744073709551615\"")}),
      "{\"type\":\"batch\",\"id\":9,\"priority\":-3,\"queries\":[{\"workload\":100},"
      "{\"workload\":1e3,\"seed\":\"7\",\"platform\":{\"workers\":[{},{\"speed\":3}]}}]}",
      "{\"type\":\"ping\",\"id\":1}",
      " {\n\"id\" : 2 ,\t\"type\" : \"stats\" } ",
  };
}

/// Hand-written cases: duplicate keys at every level (the first wins),
/// unknown keys, wrong types, escapes, nesting at the depth limit, and the
/// numbers at the edges of a double.
std::vector<std::string> targeted_payloads() {
  const std::string q = query_json(3);
  std::vector<std::string> out = {
      // Duplicate keys, first wins.
      "{\"type\":\"batch\",\"type\":\"ping\",\"id\":1,\"queries\":[" + q + "]}",
      "{\"type\":\"ping\",\"type\":\"batch\",\"id\":1}",
      "{\"type\":\"batch\",\"id\":1,\"id\":\"x\",\"queries\":[" + q + "]}",
      "{\"type\":\"batch\",\"id\":1,\"queries\":[" + q + "],\"queries\":[]}",
      batch_json(1, {"{\"workload\":100,\"workload\":-1}", "{\"workload\":-1,\"workload\":100}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":2},"
                     "\"homogeneous\":{\"workers\":0}}}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":2,"
                     "\"workers\":3,\"speed\":2,\"speed\":-1}}}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"workers\":[{\"speed\":1,\"speed\":0}]}}"}),
      batch_json(1, {"{\"workload\":1,\"seed\":\"5\",\"seed\":-5,\"algorithm\":\"umr\","
                     "\"algorithm\":7}"}),
      // Unknown keys at every level.
      "{\"type\":\"ping\",\"id\":1,\"x\":2}",
      batch_json(1, {"{\"workload\":1,\"x\":2}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"x\":{}}}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"homogeneous\":{\"x\":1}}}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"workers\":[{\"x\":1}]}}"}),
      // Wrong types.
      "{\"type\":1,\"id\":1}",
      "{\"type\":\"ping\",\"id\":\"1\"}",
      "{\"type\":\"batch\",\"id\":1,\"priority\":\"high\",\"queries\":[" + q + "]}",
      "{\"type\":\"batch\",\"id\":1,\"queries\":{}}",
      "{\"type\":\"ping\",\"id\":1,\"queries\":[]}",
      batch_json(1, {"[]", "\"q\"", "null", "true", "{\"workload\":\"1\"}",
                     "{\"workload\":1,\"platform\":[]}",
                     "{\"workload\":1,\"platform\":{\"homogeneous\":[]}}",
                     "{\"workload\":1,\"platform\":{\"workers\":{}}}",
                     "{\"workload\":1,\"platform\":{\"workers\":[1]}}",
                     "{\"workload\":1,\"platform\":{\"workers\":[]}}",
                     "{\"workload\":1,\"platform\":{}}",
                     "{\"workload\":1,\"algorithm\":\"\"}", "{\"workload\":1,\"seed\":\"\"}",
                     "{\"workload\":1,\"seed\":\"12a\"}", "{\"workload\":1,\"seed\":1.5}",
                     "{\"workload\":1,\"uplink_channels\":0}",
                     "{\"workload\":1,\"worker_buffer_capacity\":false}",
                     "{\"workload\":1,\"output_ratio\":-0.5}"}),
      // Escaped keys and values, surrogate pairs included.
      "{\"t\\u0079pe\":\"b\\u0061tch\",\"\\u0069d\":4,\"queries\":[{\"\\u0077orkload\":100,"
      "\"algorithm\":\"\\ud83d\\ude00\",\"seed\":\"\\u0031\\u0032\"}]}",
      batch_json(1, {"{\"workload\":1,\"algorithm\":\"u\\u006dr\\n\\t\\\"\\\\\\/\"}",
                     "{\"workload\":1,\"algorithm\":\"\\u00e9\\u20ac\"}",
                     "{\"workload\":1,\"algorithm\":\"\\ud800\"}"}),
      // Numbers at a double's edges: 1e308, -0, 2^53 - 1, 2^53 + 1, 1e400.
      batch_json(1, {"{\"workload\":1e308}", "{\"workload\":-0}", "{\"workload\":1,\"error\":-0}",
                     "{\"workload\":1,\"seed\":-0}", "{\"workload\":1,\"seed\":9007199254740991}",
                     "{\"workload\":1,\"seed\":9007199254740993}",
                     "{\"workload\":1,\"uplink_channels\":9007199254740993}",
                     "{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":-0}}}"}),
      "{\"type\":\"batch\",\"id\":9007199254740991,\"priority\":-9007199254740993,"
      "\"queries\":[{\"workload\":1}]}",
      "{\"type\":\"ping\",\"id\":-0,\"priority\":-0}",
      "{\"type\":\"ping\",\"id\":1e400}",
      batch_json(1, {"{\"workload\":1e400}"}),
      // The batch worker limit: 100000 in total is accepted, one more is not.
      batch_json(1, {"{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":60000}}}",
                     "{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":40000}}}"}),
      batch_json(1, {"{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":60000}}}",
                     "{\"workload\":1,\"platform\":{\"homogeneous\":{\"workers\":40001}}}"}),
  };
  // Nesting that reaches depth 64 (the limit) and 65, in an unknown key and
  // in a known one.
  for (const int levels : {61, 62, 63, 64}) {
    const std::string nest = std::string(static_cast<std::size_t>(levels), '[') +
                             std::string(static_cast<std::size_t>(levels), ']');
    out.push_back(batch_json(1, {"{\"workload\":1,\"deep\":" + nest + "}"}));
    out.push_back(batch_json(1, {"{\"workload\":1,\"platform\":" + nest + "}"}));
  }
  return out;
}

/// One field of an object the reader checks, with a valid and an invalid
/// value (JSON text).
struct Field {
  std::string key;
  std::string good;
  std::string bad;
};

/// `fields` as one object, all valid except the two at `bad_a` and `bad_b`,
/// written in reverse so document order is not the readers' check order.
std::string object_with(const std::vector<Field>& fields, std::size_t bad_a, std::size_t bad_b) {
  std::string text = "{";
  for (std::size_t i = fields.size(); i-- > 0;) {
    if (text.size() > 1) text += ',';
    const bool bad = i == bad_a || i == bad_b;
    text += "\"" + fields[i].key + "\":" + (bad ? fields[i].bad : fields[i].good);
  }
  return text + "}";
}

/// Objects that break two fields at once, for every pair at every level
/// (and one field beside an unknown key): where two checks fail, the
/// readers must report the one their check order reaches first.
std::vector<std::string> double_fault_payloads() {
  const std::vector<Field> worker = {{"speed", "2", "0"},
                                     {"bandwidth", "8", "-1"},
                                     {"comp_latency", "0.5", "-0.5"},
                                     {"comm_latency", "0.25", "\"x\""},
                                     {"transfer_latency", "0", "-1"},
                                     {"zz", "", "0"}};
  std::vector<Field> homogeneous = {{"workers", "3", "0"}};
  homogeneous.insert(homogeneous.end(), worker.begin(), worker.end());
  const std::vector<Field> query = {
      {"platform", kShorthandPlatform, "[]"},
      {"workload", "100", "-1"},
      {"algorithm", "\"umr\"", "\"\""},
      {"known_error", "0.1", "-1"},
      {"error", "0.1", "\"x\""},
      {"seed", "\"7\"", "\"7x\""},
      {"uplink_channels", "2", "0"},
      {"output_ratio", "0", "-2"},
      {"worker_buffer_capacity", "1", "0.5"},
      {"zz", "", "0"}};
  const std::vector<Field> envelope = {{"type", "\"batch\"", "\"frob\""},
                                       {"id", "1", "-1"},
                                       {"priority", "2", "1.5"},
                                       {"queries", "[{\"workload\":1}]", "{}"},
                                       {"zz", "", "0"}};
  // Each list ends with the unknown key "zz", present only when it is one
  // of the bad fields.
  const auto build = [](std::vector<Field> fields, std::size_t a, std::size_t b) {
    if (a != fields.size() - 1 && b != fields.size() - 1) fields.pop_back();
    return object_with(fields, a, b);
  };
  std::vector<std::string> out;
  const auto pairs = [&](const std::vector<Field>& fields, auto&& wrap) {
    for (std::size_t a = 0; a < fields.size(); ++a) {
      for (std::size_t b = a; b < fields.size(); ++b) out.push_back(wrap(build(fields, a, b)));
    }
  };
  pairs(worker, [](const std::string& w) {
    return batch_json(1, {"{\"workload\":1,\"platform\":{\"workers\":[{}," + w + "]}}"});
  });
  pairs(homogeneous, [](const std::string& h) {
    return batch_json(1, {"{\"workload\":1,\"platform\":{\"homogeneous\":" + h + "}}"});
  });
  pairs(query, [](const std::string& q) { return batch_json(1, {q}); });
  pairs(envelope, [](const std::string& e) { return e; });
  out.push_back(batch_json(1, {"{\"workload\":1,\"platform\":{\"zz\":1,\"workers\":[{}],"
                               "\"homogeneous\":{}}}"}));
  return out;
}

/// Byte flips, insertions and deletions, drawn from bytes that JSON gives
/// meaning to plus arbitrary ones.
std::vector<std::string> mutations(const std::string& base, std::uint64_t seed, std::size_t count) {
  static const std::string kBytes = "{}[]\",:\\ -+.0123456789eEtfnul\x01\x80\xff";
  stats::Rng rng(seed);
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::string text = base;
    const std::size_t edits = 1 + rng.uniform_index(3);
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
      const std::size_t at = rng.uniform_index(text.size());
      const char byte = rng.uniform_index(4) == 0
                            ? static_cast<char>(rng.uniform_index(256))
                            : kBytes[rng.uniform_index(kBytes.size())];
      switch (rng.uniform_index(3)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte); break;
        default: text.erase(at, 1); break;
      }
    }
    out.push_back(std::move(text));
  }
  return out;
}

TEST(ServeReaderDifferential, TapeAndTreeReadersAgreeOnASeededCorpus) {
  std::vector<std::string> corpus = valid_payloads();
  const std::vector<std::string> targeted = targeted_payloads();
  corpus.insert(corpus.end(), targeted.begin(), targeted.end());
  const std::vector<std::string> double_faults = double_fault_payloads();
  corpus.insert(corpus.end(), double_faults.begin(), double_faults.end());
  const std::vector<std::string> valid = valid_payloads();
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t cut = 0; cut < valid[i].size(); ++cut) {
      corpus.push_back(valid[i].substr(0, cut));
    }
  }
  std::uint64_t seed = 20031;
  for (const std::string& base : valid) {
    const std::vector<std::string> mutated = mutations(base, seed++, 400);
    corpus.insert(corpus.end(), mutated.begin(), mutated.end());
  }

  std::size_t throws = 0;
  std::size_t slot_errors = 0;
  std::size_t keys = 0;
  for (const std::string& payload : corpus) {
    const std::string tape = outcome(&parse_request, payload);
    const std::string tree = outcome(&test_support::tree_reader::parse_request, payload);
    ASSERT_EQ(tape, tree) << "payload: " << payload;
    if (tape.starts_with("throws: ")) ++throws;
    for (std::size_t at = tape.find("\n  error "); at != std::string::npos;
         at = tape.find("\n  error ", at + 1)) {
      ++slot_errors;
    }
    for (std::size_t at = tape.find("\n  key "); at != std::string::npos;
         at = tape.find("\n  key ", at + 1)) {
      ++keys;
    }
  }
  // The corpus reaches every outcome, not just one kind of refusal.
  EXPECT_GT(throws, corpus.size() / 4);
  EXPECT_GT(slot_errors, 100u);
  EXPECT_GT(keys, 100u);
}

TEST(ServeReaderDifferential, RequestKeepsNoViewOfItsPayload) {
  std::vector<std::string> payloads = valid_payloads();
  const std::vector<std::string> targeted = targeted_payloads();
  payloads.insert(payloads.end(), targeted.begin(), targeted.end());
  for (const std::string& payload : payloads) {
    Request request;
    bool parsed = true;
    {
      auto buffer = std::make_unique<std::string>(payload);
      try {
        request = parse_request(*buffer);
      } catch (const ProtocolError&) {
        parsed = false;
      }
      std::fill(buffer->begin(), buffer->end(), '#');
    }  // The payload's bytes are overwritten and freed here.
    if (!parsed) continue;
    // Read every field; a view into the payload would read freed memory
    // (asan-ubsan reports it) or the '#' bytes (this comparison does).
    const Request fresh = parse_request(payload);
    EXPECT_EQ(request.type, fresh.type);
    EXPECT_EQ(request.id, fresh.id);
    EXPECT_EQ(request.priority, fresh.priority);
    ASSERT_EQ(request.queries.size(), fresh.queries.size());
    for (std::size_t i = 0; i < request.queries.size(); ++i) {
      const QuerySlot& slot = request.queries[i];
      EXPECT_EQ(slot.error, fresh.queries[i].error) << payload;
      ASSERT_EQ(slot.query.has_value(), fresh.queries[i].query.has_value());
      if (!slot.query) continue;
      const Query& query = *slot.query;
      EXPECT_EQ(query.algorithm, fresh.queries[i].query->algorithm);
      EXPECT_EQ(canonical_query_key(query), canonical_query_key(*fresh.queries[i].query));
    }
  }
}

}  // namespace
}  // namespace rumr::serve
