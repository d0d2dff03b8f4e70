#pragma once

// The reference request reader for the differential test: serve's request
// reader as it was before it read a JsonDocument tape, walking the
// util::JsonValue tree instead. It keeps that reader's checks, their order
// and every message, and adds only the batch worker limit, so the two
// readers can be compared on any payload.

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "platform/platform.hpp"
#include "serve/protocol.hpp"
#include "util/json_lite.hpp"

namespace rumr::test_support::tree_reader {

using serve::ProtocolError;
using serve::Query;
using serve::QuerySlot;
using serve::Request;
using serve::RequestType;
using util::JsonError;
using util::JsonValue;

inline constexpr std::size_t kMaxWorkers = 100000;
inline constexpr double kMaxExactDouble = 9007199254740992.0;  // 2^53

/// Thrown past the batch's worker budget; passes the per-query catch.
struct BatchWorkerLimit {};

[[noreturn]] inline void bad_request(const std::string& what) {
  throw ProtocolError(ProtocolError::Kind::kBadRequest, "bad request: " + what);
}

inline double number_field(const JsonValue& v, const char* field) {
  if (v.kind() != JsonValue::Kind::kNumber) bad_request(std::string(field) + " must be a number");
  return v.as_number();
}

inline std::uint64_t integer_field(const JsonValue& v, const char* field,
                                   double max = kMaxExactDouble) {
  const double d = number_field(v, field);
  if (!(d >= 0.0) || d != std::floor(d) || d > max) {
    bad_request(std::string(field) + " must be a non-negative integer <= " +
                std::to_string(static_cast<std::uint64_t>(max)));
  }
  return static_cast<std::uint64_t>(d);
}

inline double nonnegative_field(const JsonValue& v, const char* field) {
  const double d = number_field(v, field);
  if (!(d >= 0.0)) bad_request(std::string(field) + " must be >= 0");
  return d;
}

inline double positive_field(const JsonValue& v, const char* field) {
  const double d = number_field(v, field);
  if (!(d > 0.0)) bad_request(std::string(field) + " must be > 0");
  return d;
}

inline void reject_unknown_keys(const JsonValue& obj, std::initializer_list<const char*> allowed,
                                const char* where) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) { known = true; break; }
    }
    if (!known) bad_request(std::string(where) + ": unknown key \"" + key + "\"");
  }
}

inline void spend_workers(std::size_t count, std::size_t& workers_left) {
  if (count > workers_left) throw BatchWorkerLimit{};
  workers_left -= count;
}

inline platform::WorkerSpec parse_worker_spec(const JsonValue& v, const char* where) {
  if (!v.is_object()) bad_request(std::string(where) + " must be an object");
  reject_unknown_keys(
      v, {"speed", "bandwidth", "comp_latency", "comm_latency", "transfer_latency"}, where);
  platform::WorkerSpec spec;
  if (const JsonValue* f = v.find("speed")) spec.speed = positive_field(*f, "speed");
  if (const JsonValue* f = v.find("bandwidth")) spec.bandwidth = positive_field(*f, "bandwidth");
  if (const JsonValue* f = v.find("comp_latency")) {
    spec.comp_latency = nonnegative_field(*f, "comp_latency");
  }
  if (const JsonValue* f = v.find("comm_latency")) {
    spec.comm_latency = nonnegative_field(*f, "comm_latency");
  }
  if (const JsonValue* f = v.find("transfer_latency")) {
    spec.transfer_latency = nonnegative_field(*f, "transfer_latency");
  }
  return spec;
}

inline std::vector<platform::WorkerSpec> parse_platform(const JsonValue* v,
                                                        std::size_t& workers_left) {
  if (v == nullptr) {
    const platform::HomogeneousParams defaults;
    spend_workers(defaults.workers, workers_left);
    return std::vector<platform::WorkerSpec>(
        defaults.workers,
        platform::WorkerSpec{defaults.speed, defaults.bandwidth, defaults.comp_latency,
                             defaults.comm_latency, defaults.transfer_latency});
  }
  if (!v->is_object()) bad_request("platform must be an object");
  reject_unknown_keys(*v, {"homogeneous", "workers"}, "platform");
  const JsonValue* homogeneous = v->find("homogeneous");
  const JsonValue* workers = v->find("workers");
  if ((homogeneous != nullptr) == (workers != nullptr)) {
    bad_request("platform requires exactly one of \"homogeneous\" or \"workers\"");
  }
  if (homogeneous != nullptr) {
    if (!homogeneous->is_object()) bad_request("platform.homogeneous must be an object");
    reject_unknown_keys(*homogeneous,
                        {"workers", "speed", "bandwidth", "comp_latency", "comm_latency",
                         "transfer_latency"},
                        "platform.homogeneous");
    platform::HomogeneousParams params;
    if (const JsonValue* f = homogeneous->find("workers")) {
      params.workers = static_cast<std::size_t>(
          integer_field(*f, "platform.homogeneous.workers", static_cast<double>(kMaxWorkers)));
      if (params.workers == 0) bad_request("platform.homogeneous.workers must be >= 1");
    }
    spend_workers(params.workers, workers_left);
    platform::WorkerSpec spec{params.speed, params.bandwidth, params.comp_latency,
                              params.comm_latency, params.transfer_latency};
    if (const JsonValue* f = homogeneous->find("speed")) spec.speed = positive_field(*f, "speed");
    if (const JsonValue* f = homogeneous->find("bandwidth")) {
      spec.bandwidth = positive_field(*f, "bandwidth");
    }
    if (const JsonValue* f = homogeneous->find("comp_latency")) {
      spec.comp_latency = nonnegative_field(*f, "comp_latency");
    }
    if (const JsonValue* f = homogeneous->find("comm_latency")) {
      spec.comm_latency = nonnegative_field(*f, "comm_latency");
    }
    if (const JsonValue* f = homogeneous->find("transfer_latency")) {
      spec.transfer_latency = nonnegative_field(*f, "transfer_latency");
    }
    return std::vector<platform::WorkerSpec>(params.workers, spec);
  }
  if (!workers->is_array()) bad_request("platform.workers must be an array");
  const auto& list = workers->as_array();
  if (list.empty()) bad_request("platform.workers must not be empty");
  if (list.size() > kMaxWorkers) {
    bad_request("platform.workers exceeds the " + std::to_string(kMaxWorkers) + "-worker limit");
  }
  spend_workers(list.size(), workers_left);
  std::vector<platform::WorkerSpec> specs;
  specs.reserve(list.size());
  for (const JsonValue& entry : list) {
    specs.push_back(parse_worker_spec(entry, "platform.workers entry"));
  }
  return specs;
}

inline std::uint64_t parse_seed(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kString) {
    const std::string& text = v.as_string();
    if (text.empty()) bad_request("seed string must not be empty");
    std::uint64_t seed = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), seed);
    if (ec != std::errc{} || ptr != text.data() + text.size()) {
      bad_request("seed string must be a decimal uint64");
    }
    return seed;
  }
  return integer_field(v, "seed");
}

inline Query parse_query(const JsonValue& v, std::size_t& workers_left) {
  if (!v.is_object()) bad_request("query must be an object");
  reject_unknown_keys(v,
                      {"platform", "workload", "algorithm", "known_error", "error", "seed",
                       "uplink_channels", "output_ratio", "worker_buffer_capacity"},
                      "query");
  Query query;
  query.workers = parse_platform(v.find("platform"), workers_left);
  const JsonValue* workload = v.find("workload");
  if (workload == nullptr) bad_request("query requires \"workload\"");
  query.workload = positive_field(*workload, "workload");
  if (const JsonValue* f = v.find("algorithm")) {
    if (f->kind() != JsonValue::Kind::kString) bad_request("algorithm must be a string");
    query.algorithm = f->as_string();
    if (query.algorithm.empty()) bad_request("algorithm must not be empty");
  }
  if (const JsonValue* f = v.find("known_error")) {
    query.known_error = nonnegative_field(*f, "known_error");
  }
  if (const JsonValue* f = v.find("error")) query.error = nonnegative_field(*f, "error");
  if (const JsonValue* f = v.find("seed")) query.seed = parse_seed(*f);
  if (const JsonValue* f = v.find("uplink_channels")) {
    query.uplink_channels = static_cast<std::size_t>(integer_field(*f, "uplink_channels"));
    if (query.uplink_channels == 0) bad_request("uplink_channels must be >= 1");
  }
  if (const JsonValue* f = v.find("output_ratio")) {
    query.output_ratio = nonnegative_field(*f, "output_ratio");
  }
  if (const JsonValue* f = v.find("worker_buffer_capacity")) {
    query.worker_buffer_capacity =
        static_cast<std::size_t>(integer_field(*f, "worker_buffer_capacity"));
    if (query.worker_buffer_capacity == 0) bad_request("worker_buffer_capacity must be >= 1");
  }
  return query;
}

/// serve::parse_request over a JsonValue tree.
inline Request parse_request(const std::string& payload) {
  JsonValue doc = JsonValue::null();
  try {
    util::ParseLimits limits;
    limits.max_bytes = serve::kMaxPayloadBytes;
    doc = JsonValue::parse(payload, limits);
  } catch (const JsonError& e) {
    bad_request(e.what());
  }
  Request request;
  try {
    if (!doc.is_object()) bad_request("request must be a JSON object");
    reject_unknown_keys(doc, {"type", "id", "priority", "queries"}, "request");
    const JsonValue* type = doc.find("type");
    if (type == nullptr || type->kind() != JsonValue::Kind::kString) {
      bad_request("request requires a string \"type\"");
    }
    if (type->as_string() == "batch") {
      request.type = RequestType::kBatch;
    } else if (type->as_string() == "ping") {
      request.type = RequestType::kPing;
    } else if (type->as_string() == "stats") {
      request.type = RequestType::kStats;
    } else {
      bad_request("unknown request type \"" + type->as_string() + "\"");
    }
    const JsonValue* id = doc.find("id");
    if (id == nullptr) bad_request("request requires \"id\"");
    request.id = static_cast<std::int64_t>(integer_field(*id, "id"));
    if (const JsonValue* priority = doc.find("priority")) {
      const double d = number_field(*priority, "priority");
      if (d != std::floor(d) || d < -kMaxExactDouble || d > kMaxExactDouble) {
        bad_request("priority must be an integer");
      }
      request.priority = static_cast<std::int64_t>(d);
    }
    const JsonValue* queries = doc.find("queries");
    if (request.type != RequestType::kBatch) {
      if (queries != nullptr) bad_request("only batch requests carry \"queries\"");
      return request;
    }
    if (queries == nullptr || !queries->is_array()) {
      bad_request("batch request requires a \"queries\" array");
    }
    if (queries->as_array().empty()) bad_request("batch request with an empty \"queries\" array");
    request.queries.reserve(queries->as_array().size());
    std::size_t workers_left = kMaxWorkers;
    for (const JsonValue& entry : queries->as_array()) {
      QuerySlot slot;
      try {
        slot.query = parse_query(entry, workers_left);
      } catch (const ProtocolError& e) {
        slot.error = e.what();
      } catch (const JsonError& e) {
        slot.error = std::string("bad request: ") + e.what();
      }
      request.queries.push_back(std::move(slot));
    }
  } catch (const JsonError& e) {
    bad_request(e.what());
  } catch (const BatchWorkerLimit&) {
    bad_request("batch request describes more than " + std::to_string(kMaxWorkers) +
                " workers in total");
  }
  return request;
}

}  // namespace rumr::test_support::tree_reader
