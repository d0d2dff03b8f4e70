#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/json_lite.hpp"

namespace rumr::serve {
namespace {

using util::JsonError;
using util::JsonValue;

/// Largest worker count a query may describe. A homogeneous shorthand
/// expands at parse time, so without a cap a 16-byte request could demand a
/// multi-gigabyte worker list.
constexpr std::size_t kMaxWorkers = 100000;

/// Largest integer a double carries exactly; integer fields beyond it would
/// silently lose precision in the JSON number representation.
constexpr double kMaxExactDouble = 9007199254740992.0;  // 2^53

[[noreturn]] void bad_request(const std::string& what) {
  throw ProtocolError(ProtocolError::Kind::kBadRequest, "bad request: " + what);
}

/// Validates the 8 header bytes and returns the payload length.
std::uint32_t decode_header(const unsigned char* h) {
  if (h[0] != kMagic0 || h[1] != kMagic1) {
    throw ProtocolError(ProtocolError::Kind::kBadMagic, "frame: bad magic bytes");
  }
  if (h[2] != kProtocolVersion) {
    throw ProtocolError(ProtocolError::Kind::kBadVersion,
                        "frame: unknown protocol version " + std::to_string(h[2]));
  }
  if (h[3] != 0) {
    throw ProtocolError(ProtocolError::Kind::kBadFlags,
                        "frame: nonzero flags byte " + std::to_string(h[3]));
  }
  const std::uint32_t length = static_cast<std::uint32_t>(h[4]) |
                               (static_cast<std::uint32_t>(h[5]) << 8) |
                               (static_cast<std::uint32_t>(h[6]) << 16) |
                               (static_cast<std::uint32_t>(h[7]) << 24);
  if (length > kMaxPayloadBytes) {
    throw ProtocolError(ProtocolError::Kind::kOversized,
                        "frame: declared payload of " + std::to_string(length) +
                            " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                            "-byte limit");
  }
  return length;
}

// --- Request-schema helpers ------------------------------------------------

double number_field(const JsonValue& v, const char* field) {
  if (v.kind() != JsonValue::Kind::kNumber) bad_request(std::string(field) + " must be a number");
  return v.as_number();
}

std::uint64_t integer_field(const JsonValue& v, const char* field, double max = kMaxExactDouble) {
  const double d = number_field(v, field);
  if (!(d >= 0.0) || d != std::floor(d) || d > max) {
    bad_request(std::string(field) + " must be a non-negative integer <= " +
                std::to_string(static_cast<std::uint64_t>(max)));
  }
  return static_cast<std::uint64_t>(d);
}

double nonnegative_field(const JsonValue& v, const char* field) {
  const double d = number_field(v, field);
  if (!(d >= 0.0)) bad_request(std::string(field) + " must be >= 0");
  return d;
}

double positive_field(const JsonValue& v, const char* field) {
  const double d = number_field(v, field);
  if (!(d > 0.0)) bad_request(std::string(field) + " must be > 0");
  return d;
}

void reject_unknown_keys(const JsonValue& obj, std::initializer_list<const char*> allowed,
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

platform::WorkerSpec parse_worker_spec(const JsonValue& v, const char* where) {
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

/// Expands the platform description to the explicit worker list — the
/// canonicalization step that makes {"homogeneous": {"workers": 2}} and the
/// equivalent two-element "workers" array share one cache line.
std::vector<platform::WorkerSpec> parse_platform(const JsonValue* v) {
  if (v == nullptr) {
    // Library default: the paper's Table-1 homogeneous 10-worker platform.
    const platform::HomogeneousParams defaults;
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
  std::vector<platform::WorkerSpec> specs;
  specs.reserve(list.size());
  for (const JsonValue& entry : list) {
    specs.push_back(parse_worker_spec(entry, "platform.workers entry"));
  }
  return specs;
}

std::uint64_t parse_seed(const JsonValue& v) {
  if (v.kind() == JsonValue::Kind::kString) {
    // Decimal-string form: carries the full uint64 range (a JSON number
    // loses exactness past 2^53).
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

Query parse_query(const JsonValue& v) {
  if (!v.is_object()) bad_request("query must be an object");
  reject_unknown_keys(v,
                      {"platform", "workload", "algorithm", "known_error", "error", "seed",
                       "uplink_channels", "output_ratio", "worker_buffer_capacity"},
                      "query");
  Query query;
  query.workers = parse_platform(v.find("platform"));
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

/// Appends an integer in plain decimal (integers in canonical keys and
/// response envelopes never go through double formatting).
void append_decimal(std::string& out, std::uint64_t value) { out += std::to_string(value); }

// A worker's bytes are exactly the bit patterns of its five doubles.
static_assert(sizeof(platform::WorkerSpec) == 5 * sizeof(double));

/// Appends the bytes of `value` in host order (binary keys never leave the
/// process).
template <typename T>
void append_bytes(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof value];
  std::memcpy(bytes, &value, sizeof value);
  out.append(bytes, sizeof value);
}

}  // namespace

// --- Framing ---------------------------------------------------------------

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxPayloadBytes) {
    throw ProtocolError(ProtocolError::Kind::kOversized,
                        "frame: payload of " + std::to_string(payload.size()) +
                            " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                            "-byte limit");
  }
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.push_back(static_cast<char>(kMagic0));
  frame.push_back(static_cast<char>(kMagic1));
  frame.push_back(static_cast<char>(kProtocolVersion));
  frame.push_back('\0');  // flags
  const auto length = static_cast<std::uint32_t>(payload.size());
  frame.push_back(static_cast<char>(length & 0xffu));
  frame.push_back(static_cast<char>((length >> 8) & 0xffu));
  frame.push_back(static_cast<char>((length >> 16) & 0xffu));
  frame.push_back(static_cast<char>((length >> 24) & 0xffu));
  frame.append(payload);
  return frame;
}

std::optional<std::string> read_frame(std::istream& in) {
  unsigned char header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), static_cast<std::streamsize>(kHeaderBytes));
  const auto got = static_cast<std::size_t>(in.gcount());
  if (got == 0) return std::nullopt;  // clean EOF at a frame boundary
  if (got < kHeaderBytes) {
    throw ProtocolError(ProtocolError::Kind::kTruncated, "frame: stream ended inside a header");
  }
  const std::uint32_t length = decode_header(header);
  std::string payload(length, '\0');
  if (length > 0) {
    in.read(payload.data(), static_cast<std::streamsize>(length));
    if (static_cast<std::size_t>(in.gcount()) < length) {
      throw ProtocolError(ProtocolError::Kind::kTruncated, "frame: stream ended inside a payload");
    }
  }
  return payload;
}

void write_frame(std::ostream& out, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

void FrameDecoder::feed(std::string_view bytes) { buffer_.append(bytes); }

std::optional<std::string> FrameDecoder::next() {
  // Validate the header prefix byte-by-byte so malformed streams fail as
  // soon as the evidence arrives, not only once 8 bytes are buffered.
  const auto* bytes = reinterpret_cast<const unsigned char*>(buffer_.data());
  if (!buffer_.empty() && bytes[0] != kMagic0) {
    throw ProtocolError(ProtocolError::Kind::kBadMagic, "frame: bad magic bytes");
  }
  if (buffer_.size() >= 2 && bytes[1] != kMagic1) {
    throw ProtocolError(ProtocolError::Kind::kBadMagic, "frame: bad magic bytes");
  }
  if (buffer_.size() >= 3 && bytes[2] != kProtocolVersion) {
    throw ProtocolError(ProtocolError::Kind::kBadVersion,
                        "frame: unknown protocol version " + std::to_string(bytes[2]));
  }
  if (buffer_.size() >= 4 && bytes[3] != 0) {
    throw ProtocolError(ProtocolError::Kind::kBadFlags,
                        "frame: nonzero flags byte " + std::to_string(bytes[3]));
  }
  if (buffer_.size() >= kHeaderBytes) {
    const std::uint32_t length = decode_header(bytes);
    if (buffer_.size() >= kHeaderBytes + length) {
      std::string payload = buffer_.substr(kHeaderBytes, length);
      buffer_.erase(0, kHeaderBytes + length);
      return payload;
    }
  }
  if (finished_ && !buffer_.empty()) {
    throw ProtocolError(ProtocolError::Kind::kTruncated, "frame: stream ended inside a frame");
  }
  return std::nullopt;
}

// --- Requests --------------------------------------------------------------

Request parse_request(const std::string& payload) {
  JsonValue doc = JsonValue::null();
  try {
    util::ParseLimits limits;
    limits.max_bytes = kMaxPayloadBytes;
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
    for (const JsonValue& entry : queries->as_array()) {
      QuerySlot slot;
      try {
        slot.query = parse_query(entry);
      } catch (const ProtocolError& e) {
        slot.error = e.what();
      } catch (const JsonError& e) {
        slot.error = std::string("bad request: ") + e.what();
      }
      request.queries.push_back(std::move(slot));
    }
  } catch (const JsonError& e) {
    bad_request(e.what());
  }
  return request;
}

// --- Canonical keys and fingerprints ---------------------------------------

std::string canonical_query_key(const Query& query) {
  std::string key;
  key.reserve(128 + 48 * query.workers.size());
  key += "{\"workers\":[";
  for (std::size_t i = 0; i < query.workers.size(); ++i) {
    const platform::WorkerSpec& w = query.workers[i];
    if (i > 0) key += ',';
    key += '[';
    util::append_json_number(key, w.speed);
    key += ',';
    util::append_json_number(key, w.bandwidth);
    key += ',';
    util::append_json_number(key, w.comp_latency);
    key += ',';
    util::append_json_number(key, w.comm_latency);
    key += ',';
    util::append_json_number(key, w.transfer_latency);
    key += ']';
  }
  key += "],\"workload\":";
  util::append_json_number(key, query.workload);
  key += ",\"algorithm\":";
  util::append_json_quoted(key, query.algorithm);
  key += ",\"known_error\":";
  util::append_json_number(key, query.known_error);
  key += ",\"error\":";
  util::append_json_number(key, query.error);
  key += ",\"seed\":\"";
  append_decimal(key, query.seed);
  key += "\",\"uplink_channels\":";
  append_decimal(key, query.uplink_channels);
  key += ",\"output_ratio\":";
  util::append_json_number(key, query.output_ratio);
  key += ",\"worker_buffer_capacity\":";
  append_decimal(key, query.worker_buffer_capacity);
  key += '}';
  return key;
}

std::string binary_query_key(const Query& query) {
  // Fixed-width fields, the length-prefixed algorithm, then fixed-width runs
  // to the end: every field's extent is known, so the encoding is
  // unambiguous. Runs are maximal, so one worker list has one encoding.
  // Bitwise equality is text equality: distinct finite doubles, 0.0 and
  // -0.0 included, have distinct shortest-round-trip spellings.
  std::string key;
  // Eight words, the name, and room for four runs.
  key.reserve(8 * 8 + query.algorithm.size() + 4 * (8 + sizeof(platform::WorkerSpec)));
  append_bytes(key, query.workload);
  append_bytes(key, query.known_error);
  append_bytes(key, query.error);
  append_bytes(key, query.seed);
  append_bytes(key, query.uplink_channels);
  append_bytes(key, query.output_ratio);
  append_bytes(key, query.worker_buffer_capacity);
  append_bytes(key, query.algorithm.size());
  key += query.algorithm;
  const std::vector<platform::WorkerSpec>& workers = query.workers;
  for (std::size_t begin = 0, end = 0; begin < workers.size(); begin = end) {
    while (end < workers.size() &&
           std::memcmp(&workers[end], &workers[begin], sizeof(platform::WorkerSpec)) == 0) {
      ++end;
    }
    append_bytes(key, end - begin);
    append_bytes(key, workers[begin]);
  }
  return key;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

// --- Responses -------------------------------------------------------------

std::string make_result_response(std::int64_t id, const std::vector<std::string>& results) {
  std::string payload = "{\"type\":\"result\",\"id\":";
  payload += std::to_string(id);
  payload += ",\"results\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i > 0) payload += ',';
    payload += results[i];  // pre-serialized: cached plan bytes pass through verbatim
  }
  payload += "]}";
  return payload;
}

std::string make_error_response(std::int64_t id, std::string_view error) {
  std::string payload = "{\"type\":\"error\",\"id\":";
  payload += std::to_string(id);
  payload += ",\"error\":";
  util::append_json_quoted(payload, error);
  payload += '}';
  return payload;
}

std::string make_query_error(std::string_view error) {
  std::string payload = "{\"error\":";
  util::append_json_quoted(payload, error);
  payload += '}';
  return payload;
}

std::string make_pong_response(std::int64_t id) {
  return "{\"type\":\"pong\",\"id\":" + std::to_string(id) + "}";
}

}  // namespace rumr::serve
