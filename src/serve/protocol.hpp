#pragma once

/// \file protocol.hpp
/// Wire protocol for the what-if scheduling server (rumr::serve).
///
/// Frame format (version 1), little-endian throughout:
///
///   offset  size  field
///   0       2     magic bytes 'R' 'U'
///   2       1     protocol version (1)
///   3       1     flags (must be 0 in version 1)
///   4       4     payload length in bytes, unsigned little-endian
///   8       n     payload: one JSON document (UTF-8, 7-bit clean on write)
///
/// A malformed header (bad magic, unknown version, nonzero flags, oversized
/// length) is session-fatal: the byte stream has lost framing and cannot be
/// resynchronized, so the server closes the session. A well-framed payload
/// that fails to parse as a request is NOT fatal — the server answers it
/// with an error response and keeps the session open.
///
/// Request payloads:
///
///   {"type": "batch", "id": 7, "priority": 0, "queries": [ <query>... ]}
///   {"type": "ping",  "id": 8}
///   {"type": "stats", "id": 9}
///
/// A query describes one what-if scheduling problem:
///
///   {"platform": {"homogeneous": {"workers": 10, "speed": 1, ...}}
///               | {"workers": [{"speed": 1, "bandwidth": 12, ...}, ...]},
///    "workload": 1000, "algorithm": "rumr", "known_error": 0.3,
///    "error": 0.3, "seed": 42, "uplink_channels": 1, "output_ratio": 0,
///    "worker_buffer_capacity": 1}
///
/// Response payloads (the `results` array holds one entry per query, in
/// query order — either a plan object or {"error": "..."}):
///
///   {"type": "result", "id": 7, "results": [ <plan>... ]}
///   {"type": "error",  "id": 7, "error": "..."}
///   {"type": "pong",   "id": 8}
///   {"type": "stats",  "id": 9, "stats": { ... obs::ServeStats ... }}
///
/// Determinism: responses never carry wall-clock time, host identity, or
/// ambient randomness — the same request bytes always produce the same
/// response bytes, which is what makes the plan cache's byte-identity
/// guarantee (cached == cold) testable.

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "platform/platform.hpp"

namespace rumr::serve {

inline constexpr unsigned char kMagic0 = 'R';
inline constexpr unsigned char kMagic1 = 'U';
inline constexpr unsigned char kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 8;
/// Upper bound on one frame's payload; a length field beyond this is treated
/// as a framing error before any allocation happens.
inline constexpr std::size_t kMaxPayloadBytes = 16u << 20;

/// Thrown on wire-level problems. Frame-level kinds (kBadMagic, kBadVersion,
/// kBadFlags, kOversized, kTruncated) are session-fatal; kBadRequest means a
/// well-framed payload that is not a valid request (answered with an error
/// response, session continues).
class ProtocolError : public std::runtime_error {
 public:
  enum class Kind : unsigned char {
    kBadMagic,    ///< Header does not start with 'R' 'U'.
    kBadVersion,  ///< Unknown protocol version byte.
    kBadFlags,    ///< Nonzero flags byte in a version that defines none.
    kOversized,   ///< Declared payload length exceeds kMaxPayloadBytes.
    kTruncated,   ///< Stream ended inside a header or payload.
    kBadRequest,  ///< Payload parsed as a frame but not as a request.
  };

  ProtocolError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

  /// True when the session's framing is lost and it must be closed.
  [[nodiscard]] bool session_fatal() const noexcept { return kind_ != Kind::kBadRequest; }

 private:
  Kind kind_;
};

// --- Framing ---------------------------------------------------------------

/// Wraps one payload in a version-1 frame.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Reads one frame's payload from the stream. Returns std::nullopt on clean
/// EOF (stream exhausted exactly at a frame boundary). Throws ProtocolError
/// on a malformed header or a stream that ends mid-frame.
[[nodiscard]] std::optional<std::string> read_frame(std::istream& in);

/// Writes one framed payload to the stream.
void write_frame(std::ostream& out, std::string_view payload);

/// Incremental frame decoder for byte streams that arrive in arbitrary
/// slices (sockets, pipes). Feed bytes, then drain complete frames with
/// next(); call finish() at EOF so a dangling partial frame raises the named
/// truncation error instead of waiting forever.
class FrameDecoder {
 public:
  void feed(std::string_view bytes);

  /// Next complete payload, or std::nullopt if more bytes are needed.
  /// Throws ProtocolError (kBadMagic/kBadVersion/kBadFlags/kOversized) as
  /// soon as the buffered prefix proves the stream malformed, and
  /// kTruncated after finish() if a partial frame remains.
  [[nodiscard]] std::optional<std::string> next();

  /// Marks end of input.
  void finish() noexcept { finished_ = true; }

  /// True when every fed byte has been consumed into complete frames.
  [[nodiscard]] bool at_boundary() const noexcept { return buffer_.empty(); }

 private:
  std::string buffer_;
  bool finished_ = false;
};

// --- Requests --------------------------------------------------------------

/// One what-if scheduling problem, fully canonicalized: a homogeneous
/// platform shorthand is expanded to the explicit worker list at parse time,
/// so equivalent descriptions share one cache line.
struct Query {
  std::vector<platform::WorkerSpec> workers;
  double workload = 0.0;
  std::string algorithm = "rumr";
  double known_error = 0.0;
  double error = 0.0;
  std::uint64_t seed = 1;
  std::size_t uplink_channels = 1;
  double output_ratio = 0.0;
  std::size_t worker_buffer_capacity = 1;
};

enum class RequestType : unsigned char { kBatch, kPing, kStats };

/// One batch entry: either a parsed query or the reason it did not parse.
/// Per-query problems are answered in place ({"error": ...} in the results
/// array) so one bad query cannot poison a thousand-query batch.
struct QuerySlot {
  std::optional<Query> query;
  std::string error;  ///< Set iff !query.
};

struct Request {
  RequestType type = RequestType::kBatch;
  std::int64_t id = 0;
  std::int64_t priority = 0;   ///< Higher serves first under kPriority.
  std::vector<QuerySlot> queries;  ///< Populated for kBatch.
};

/// Parses one frame payload into a Request. Throws ProtocolError
/// (kBadRequest) with a human-readable reason on any envelope problem —
/// including an empty batch, which is a named error by contract. Problems
/// inside individual queries do NOT throw; they land in the slot's `error`.
[[nodiscard]] Request parse_request(const std::string& payload);

// --- Canonical keys and fingerprints ---------------------------------------

/// The canonical byte representation of a query: a compact JSON object with
/// a fixed key order, the worker list always explicit, every number printed
/// by the shortest-round-trip writer, and the seed carried as a decimal
/// string (it may exceed 2^53). Two queries describe the same problem iff
/// their canonical keys are byte-identical. A plan's fingerprint is the
/// FNV-1a hash of this text, so it is built once per cold solve.
[[nodiscard]] std::string canonical_query_key(const Query& query);

/// The plan cache's key for a query: opaque, in-process bytes that two
/// queries share exactly when their canonical_query_key texts are equal,
/// built without formatting a number. It holds the bit pattern of every
/// double and integer field, one entry per run of bitwise-identical workers
/// (run length plus its five doubles), and the algorithm as length-prefixed
/// bytes. The one place the two forms part: algorithm bytes that are not
/// valid UTF-8, which the text folds into U+FFFD and this form keeps apart
/// (no registry name holds such bytes, so those solves fail either way).
[[nodiscard]] std::string binary_query_key(const Query& query);

/// FNV-1a 64-bit over a byte string (the cache's shard/fingerprint hash;
/// same constants as sweep::derive_rep_seed's label fold).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

// --- Responses -------------------------------------------------------------

/// Serialized plan fields live in serve/server.cpp (they need sim types);
/// response envelopes are assembled here so the framing layer owns every
/// byte that crosses the wire.

/// {"type":"result","id":N,"results":[...]} — `results` entries are
/// pre-serialized JSON (plan objects or per-query error objects) and are
/// spliced in verbatim, preserving the cached plan's exact bytes.
[[nodiscard]] std::string make_result_response(std::int64_t id,
                                               const std::vector<std::string>& results);

/// {"type":"error","id":N,"error":"..."} (request-level failure).
[[nodiscard]] std::string make_error_response(std::int64_t id, std::string_view error);

/// {"error":"..."} (per-query failure inside a result response).
[[nodiscard]] std::string make_query_error(std::string_view error);

/// {"type":"pong","id":N}
[[nodiscard]] std::string make_pong_response(std::int64_t id);

}  // namespace rumr::serve
