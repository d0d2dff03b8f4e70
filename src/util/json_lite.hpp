#pragma once

/// \file json_lite.hpp
/// Minimal JSON reader *and* the repo's only JSON writer: every document
/// the repo writes (golden fixtures, metrics and jobs reports, Chrome
/// traces, lint findings, chaos results, the rumr::serve wire protocol)
/// spells its strings and numbers here.
///
/// This is deliberately not a general-purpose JSON library: it parses the
/// subset the repo's writers emit (objects, arrays, strings, finite numbers,
/// booleans, null) into a plain value tree and has no dependencies beyond
/// the standard library. Since the serve daemon started putting parsed
/// documents on a network-shaped boundary, the reader is hardened for wire
/// use: every rejection throws a JsonError carrying a machine-readable
/// Kind (a truncated document is distinguishable from an oversized one or
/// from plain garbage), documents above a caller-set byte budget are
/// rejected before any allocation scales with them, and \uXXXX escapes
/// (including surrogate pairs) decode to UTF-8 instead of being rejected.
///
/// The writer side is the exact inverse: JsonValue factories build a tree
/// and dump() serializes it with full escaping — control characters and
/// non-ASCII text are emitted as \uXXXX escapes, so the output is always
/// 7-bit clean and parse(dump(v)) reproduces the tree. Numbers print with
/// std::to_chars shortest round-trip form (integers below 2^53 always as
/// plain digits), so serialization is
/// byte-deterministic across runs and platforms — the property the serve
/// plan cache's canonical keys and byte-identical responses rest on — and
/// every double parses back bit for bit. The writer has one non-finite
/// rule per audience: the wire refuses NaN and infinity (number(),
/// append_json_number throw), reports write them as null
/// (number_or_null).

#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rumr::util {

/// Every failure mode of the reader/writer, machine-distinguishable so wire
/// code can answer "was this frame cut short or actually malformed?".
class JsonError : public std::runtime_error {
 public:
  enum class Kind {
    kTruncated,   ///< Input ended inside a value, string, or escape.
    kOversized,   ///< Document exceeds ParseLimits::max_bytes.
    kTooDeep,     ///< Nesting exceeds ParseLimits::max_depth.
    kMalformed,   ///< Syntax error (bad literal, bad escape, bad number, ...).
    kTrailing,    ///< Valid document followed by garbage.
    kType,        ///< Typed accessor used on the wrong kind.
    kMissingKey,  ///< at() on an absent object member.
  };

  JsonError(Kind kind, const std::string& what)
      : std::runtime_error("json_lite: " + what), kind_(kind) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
};

/// Reader resource bounds. The defaults fit the repo's fixtures; wire
/// callers (serve/protocol) pass their own, tighter budget.
struct ParseLimits {
  std::size_t max_bytes = 64 * 1024 * 1024;  ///< Document size ceiling.
  int max_depth = 64;                        ///< Array/object nesting ceiling.
};

/// One parsed JSON value. A plain tagged struct, not an API to grow: the
/// fixture and wire schemas are flat enough that callers just walk the tree
/// (or build one with the factories and dump() it).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses one JSON document (surrounding whitespace allowed). Throws
  /// JsonError naming the byte offset and failure kind on malformed,
  /// truncated, oversized, or trailing-garbage input.
  [[nodiscard]] static JsonValue parse(std::string_view text) { return parse(text, ParseLimits{}); }
  [[nodiscard]] static JsonValue parse(std::string_view text, const ParseLimits& limits);

  // Writer-side factories ----------------------------------------------------

  [[nodiscard]] static JsonValue null();
  [[nodiscard]] static JsonValue boolean(bool v);
  /// Throws JsonError{kType} on a non-finite value — the wire format has no
  /// NaN/inf spelling, and silently emitting null would corrupt cache keys.
  [[nodiscard]] static JsonValue number(double v);
  /// A report's number: number(v), or null when `v` is NaN or infinite.
  [[nodiscard]] static JsonValue number_or_null(double v);
  [[nodiscard]] static JsonValue string(std::string v);
  [[nodiscard]] static JsonValue array();
  /// An object holding `members` in the order given.
  [[nodiscard]] static JsonValue object(
      std::initializer_list<std::pair<std::string, JsonValue>> members = {});

  /// Appends to an array (throws JsonError{kType} on any other kind).
  void push_back(JsonValue element);
  /// Appends a member to an object (throws JsonError{kType} otherwise).
  /// Keys are kept in insertion order — canonical writers insert in the
  /// canonical order and get canonical bytes out.
  void set(std::string key, JsonValue value);

  /// Serializes this value as one compact JSON document: no whitespace,
  /// object keys in insertion order, numbers as append_json_number writes
  /// them, strings escaped to 7-bit ASCII (control characters
  /// and non-ASCII as \uXXXX, invalid UTF-8 bytes as U+FFFD).
  [[nodiscard]] std::string dump() const;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Typed accessors; throw JsonError{kType} on a kind mismatch.
  [[nodiscard]] double as_number() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  /// Object member lookup: nullptr when absent (or when this is not an
  /// object). Duplicate keys resolve to the first occurrence.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Object member that must exist; throws JsonError{kMissingKey} naming it.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;

  friend class JsonParser;
};

/// Appends `text` to `out` as a quoted JSON string literal with the writer's
/// escaping rules (the building block dump() and the streaming writers
/// share).
void append_json_quoted(std::string& out, std::string_view text);

/// Appends `value` in std::to_chars shortest round-trip form, except that
/// an integer below 2^53 in magnitude is always plain digits (100000, never
/// 1e+05). Throws JsonError{kType} on non-finite input.
void append_json_number(std::string& out, double value);

}  // namespace rumr::util
