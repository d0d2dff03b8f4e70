#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/json_lite.hpp"

namespace rumr::serve {
namespace {

using util::JsonDocument;
using util::JsonError;
using util::JsonView;

/// Largest worker count a query may describe, and a batch's queries in
/// total. A homogeneous shorthand expands at parse time, so without the
/// per-query cap a 16-byte request could demand a multi-gigabyte worker
/// list, and without the batch cap a frame of such queries could.
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
//
// The readers walk the request's JsonDocument through JsonView handles: no
// tree is built, and every string a Query keeps is copied out of the view.

/// Thrown when a batch's queries would expand to more than kMaxWorkers
/// workers in total. It is not a ProtocolError, so it passes the per-query
/// catch and rejects the whole request.
struct BatchWorkerLimit {};

double number_field(JsonView v, const char* field) {
  if (v.kind() != JsonView::Kind::kNumber) bad_request(std::string(field) + " must be a number");
  return v.as_number();
}

std::uint64_t integer_field(JsonView v, const char* field, double max = kMaxExactDouble) {
  const double d = number_field(v, field);
  if (!(d >= 0.0) || d != std::floor(d) || d > max) {
    bad_request(std::string(field) + " must be a non-negative integer <= " +
                std::to_string(static_cast<std::uint64_t>(max)));
  }
  return static_cast<std::uint64_t>(d);
}

double nonnegative_field(JsonView v, const char* field) {
  const double d = number_field(v, field);
  if (!(d >= 0.0)) bad_request(std::string(field) + " must be >= 0");
  return d;
}

double positive_field(JsonView v, const char* field) {
  const double d = number_field(v, field);
  if (!(d > 0.0)) bad_request(std::string(field) + " must be > 0");
  return d;
}

void reject_unknown_keys(JsonView obj, std::initializer_list<std::string_view> allowed,
                         const char* where) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool known = false;
    for (const std::string_view a : allowed) {
      if (key == a) { known = true; break; }
    }
    if (!known) bad_request(std::string(where) + ": unknown key \"" + std::string(key) + "\"");
  }
}

/// Charges `count` workers to the batch's budget.
void spend_workers(std::size_t count, std::size_t& workers_left) {
  if (count > workers_left) throw BatchWorkerLimit{};
  workers_left -= count;
}

platform::WorkerSpec parse_worker_spec(JsonView v, const char* where) {
  if (!v.is_object()) bad_request(std::string(where) + " must be an object");
  reject_unknown_keys(
      v, {"speed", "bandwidth", "comp_latency", "comm_latency", "transfer_latency"}, where);
  platform::WorkerSpec spec;
  if (const auto f = v.find("speed")) spec.speed = positive_field(*f, "speed");
  if (const auto f = v.find("bandwidth")) spec.bandwidth = positive_field(*f, "bandwidth");
  if (const auto f = v.find("comp_latency")) {
    spec.comp_latency = nonnegative_field(*f, "comp_latency");
  }
  if (const auto f = v.find("comm_latency")) {
    spec.comm_latency = nonnegative_field(*f, "comm_latency");
  }
  if (const auto f = v.find("transfer_latency")) {
    spec.transfer_latency = nonnegative_field(*f, "transfer_latency");
  }
  return spec;
}

/// Expands the platform description to the explicit worker list — the
/// canonicalization step that makes {"homogeneous": {"workers": 2}} and the
/// equivalent two-element "workers" array share one cache line. A query's
/// workers are charged to the batch's budget as soon as their count is
/// known to be within the per-query limit, before any list is built.
std::vector<platform::WorkerSpec> parse_platform(std::optional<JsonView> v,
                                                 std::size_t& workers_left) {
  if (!v) {
    // Library default: the paper's Table-1 homogeneous 10-worker platform.
    const platform::HomogeneousParams defaults;
    spend_workers(defaults.workers, workers_left);
    return std::vector<platform::WorkerSpec>(
        defaults.workers,
        platform::WorkerSpec{defaults.speed, defaults.bandwidth, defaults.comp_latency,
                             defaults.comm_latency, defaults.transfer_latency});
  }
  if (!v->is_object()) bad_request("platform must be an object");
  reject_unknown_keys(*v, {"homogeneous", "workers"}, "platform");
  const std::optional<JsonView> homogeneous = v->find("homogeneous");
  const std::optional<JsonView> workers = v->find("workers");
  if (homogeneous.has_value() == workers.has_value()) {
    bad_request("platform requires exactly one of \"homogeneous\" or \"workers\"");
  }
  if (homogeneous) {
    if (!homogeneous->is_object()) bad_request("platform.homogeneous must be an object");
    reject_unknown_keys(*homogeneous,
                        {"workers", "speed", "bandwidth", "comp_latency", "comm_latency",
                         "transfer_latency"},
                        "platform.homogeneous");
    platform::HomogeneousParams params;
    if (const auto f = homogeneous->find("workers")) {
      params.workers = static_cast<std::size_t>(
          integer_field(*f, "platform.homogeneous.workers", static_cast<double>(kMaxWorkers)));
      if (params.workers == 0) bad_request("platform.homogeneous.workers must be >= 1");
    }
    spend_workers(params.workers, workers_left);
    platform::WorkerSpec spec{params.speed, params.bandwidth, params.comp_latency,
                              params.comm_latency, params.transfer_latency};
    if (const auto f = homogeneous->find("speed")) spec.speed = positive_field(*f, "speed");
    if (const auto f = homogeneous->find("bandwidth")) {
      spec.bandwidth = positive_field(*f, "bandwidth");
    }
    if (const auto f = homogeneous->find("comp_latency")) {
      spec.comp_latency = nonnegative_field(*f, "comp_latency");
    }
    if (const auto f = homogeneous->find("comm_latency")) {
      spec.comm_latency = nonnegative_field(*f, "comm_latency");
    }
    if (const auto f = homogeneous->find("transfer_latency")) {
      spec.transfer_latency = nonnegative_field(*f, "transfer_latency");
    }
    return std::vector<platform::WorkerSpec>(params.workers, spec);
  }
  if (!workers->is_array()) bad_request("platform.workers must be an array");
  const auto list = workers->elements();
  if (list.empty()) bad_request("platform.workers must not be empty");
  if (list.size() > kMaxWorkers) {
    bad_request("platform.workers exceeds the " + std::to_string(kMaxWorkers) + "-worker limit");
  }
  spend_workers(list.size(), workers_left);
  std::vector<platform::WorkerSpec> specs;
  specs.reserve(list.size());
  for (const JsonView entry : list) {
    specs.push_back(parse_worker_spec(entry, "platform.workers entry"));
  }
  return specs;
}

std::uint64_t parse_seed(JsonView v) {
  if (v.kind() == JsonView::Kind::kString) {
    // Decimal-string form: carries the full uint64 range (a JSON number
    // loses exactness past 2^53).
    const std::string_view text = v.as_string();
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

Query parse_query(JsonView v, std::size_t& workers_left) {
  if (!v.is_object()) bad_request("query must be an object");
  reject_unknown_keys(v,
                      {"platform", "workload", "algorithm", "known_error", "error", "seed",
                       "uplink_channels", "output_ratio", "worker_buffer_capacity"},
                      "query");
  Query query;
  query.workers = parse_platform(v.find("platform"), workers_left);
  const std::optional<JsonView> workload = v.find("workload");
  if (!workload) bad_request("query requires \"workload\"");
  query.workload = positive_field(*workload, "workload");
  if (const auto f = v.find("algorithm")) {
    if (f->kind() != JsonView::Kind::kString) bad_request("algorithm must be a string");
    query.algorithm = f->as_string();
    if (query.algorithm.empty()) bad_request("algorithm must not be empty");
  }
  if (const auto f = v.find("known_error")) {
    query.known_error = nonnegative_field(*f, "known_error");
  }
  if (const auto f = v.find("error")) query.error = nonnegative_field(*f, "error");
  if (const auto f = v.find("seed")) query.seed = parse_seed(*f);
  if (const auto f = v.find("uplink_channels")) {
    query.uplink_channels = static_cast<std::size_t>(integer_field(*f, "uplink_channels"));
    if (query.uplink_channels == 0) bad_request("uplink_channels must be >= 1");
  }
  if (const auto f = v.find("output_ratio")) {
    query.output_ratio = nonnegative_field(*f, "output_ratio");
  }
  if (const auto f = v.find("worker_buffer_capacity")) {
    query.worker_buffer_capacity =
        static_cast<std::size_t>(integer_field(*f, "worker_buffer_capacity"));
    if (query.worker_buffer_capacity == 0) bad_request("worker_buffer_capacity must be >= 1");
  }
  return query;
}

/// The payload's JSON document; a syntax error is a bad request.
JsonDocument parse_payload(const std::string& payload) {
  try {
    util::ParseLimits limits;
    limits.max_bytes = kMaxPayloadBytes;
    return JsonDocument::parse(payload, limits);
  } catch (const JsonError& e) {
    bad_request(e.what());
  }
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
  const JsonDocument json = parse_payload(payload);
  const JsonView doc = json.root();
  Request request;
  try {
    if (!doc.is_object()) bad_request("request must be a JSON object");
    reject_unknown_keys(doc, {"type", "id", "priority", "queries"}, "request");
    const std::optional<JsonView> type = doc.find("type");
    if (!type || type->kind() != JsonView::Kind::kString) {
      bad_request("request requires a string \"type\"");
    }
    if (type->as_string() == "batch") {
      request.type = RequestType::kBatch;
    } else if (type->as_string() == "ping") {
      request.type = RequestType::kPing;
    } else if (type->as_string() == "stats") {
      request.type = RequestType::kStats;
    } else {
      bad_request("unknown request type \"" + std::string(type->as_string()) + "\"");
    }
    const std::optional<JsonView> id = doc.find("id");
    if (!id) bad_request("request requires \"id\"");
    request.id = static_cast<std::int64_t>(integer_field(*id, "id"));
    if (const auto priority = doc.find("priority")) {
      const double d = number_field(*priority, "priority");
      if (d != std::floor(d) || d < -kMaxExactDouble || d > kMaxExactDouble) {
        bad_request("priority must be an integer");
      }
      request.priority = static_cast<std::int64_t>(d);
    }
    const std::optional<JsonView> queries = doc.find("queries");
    if (request.type != RequestType::kBatch) {
      if (queries) bad_request("only batch requests carry \"queries\"");
      return request;
    }
    if (!queries || !queries->is_array()) {
      bad_request("batch request requires a \"queries\" array");
    }
    const auto entries = queries->elements();
    if (entries.empty()) bad_request("batch request with an empty \"queries\" array");
    request.queries.reserve(entries.size());
    std::size_t workers_left = kMaxWorkers;
    for (const JsonView entry : entries) {
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
  constexpr std::string_view kHead = "{\"type\":\"result\",\"id\":";
  constexpr std::string_view kResults = ",\"results\":[";
  const std::string id_text = std::to_string(id);
  // Sized exactly up front (plans, the commas between them, "]}"): a warm
  // response is tens of kilobytes, and growing it would copy it repeatedly.
  std::size_t size = kHead.size() + id_text.size() + kResults.size() +
                     (results.empty() ? 0 : results.size() - 1) + 2;
  for (const std::string& result : results) size += result.size();
  std::string payload;
  payload.reserve(size);
  payload += kHead;
  payload += id_text;
  payload += kResults;
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
