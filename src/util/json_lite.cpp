#include "util/json_lite.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>

namespace rumr::util {

namespace {

[[noreturn]] void fail(JsonError::Kind kind, std::size_t offset, const std::string& what) {
  throw JsonError(kind, what + " at byte " + std::to_string(offset));
}

/// Encodes one Unicode scalar value as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

void append_u16_escape(std::string& out, std::uint32_t unit) {
  constexpr char kHex[] = "0123456789abcdef";
  out += "\\u";
  out.push_back(kHex[(unit >> 12) & 0xF]);
  out.push_back(kHex[(unit >> 8) & 0xF]);
  out.push_back(kHex[(unit >> 4) & 0xF]);
  out.push_back(kHex[unit & 0xF]);
}

/// Decodes the UTF-8 sequence starting at text[i]; returns the scalar value
/// and advances i past it, or returns U+FFFD advancing one byte when the
/// sequence is invalid (overlong, truncated, surrogate, out of range).
std::uint32_t decode_utf8(std::string_view text, std::size_t& i) {
  const auto byte = [&](std::size_t k) -> std::uint32_t {
    return static_cast<unsigned char>(text[k]);
  };
  const std::uint32_t b0 = byte(i);
  std::size_t need = 0;
  std::uint32_t cp = 0;
  std::uint32_t min = 0;
  if (b0 < 0x80) {
    ++i;
    return b0;
  }
  if ((b0 & 0xE0) == 0xC0) {
    need = 1;
    cp = b0 & 0x1F;
    min = 0x80;
  } else if ((b0 & 0xF0) == 0xE0) {
    need = 2;
    cp = b0 & 0x0F;
    min = 0x800;
  } else if ((b0 & 0xF8) == 0xF0) {
    need = 3;
    cp = b0 & 0x07;
    min = 0x10000;
  } else {
    ++i;
    return 0xFFFD;
  }
  if (i + need >= text.size()) {
    // Not enough continuation bytes left.
    ++i;
    return 0xFFFD;
  }
  for (std::size_t k = 1; k <= need; ++k) {
    const std::uint32_t bk = byte(i + k);
    if ((bk & 0xC0) != 0x80) {
      ++i;
      return 0xFFFD;
    }
    cp = (cp << 6) | (bk & 0x3F);
  }
  i += need + 1;
  if (cp < min || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return 0xFFFD;
  return cp;
}

}  // namespace

void append_json_quoted(std::string& out, std::string_view text) {
  out.push_back('"');
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\b': out += "\\b"; ++i; continue;
      case '\f': out += "\\f"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (c < 0x20 || c == 0x7F) {
      append_u16_escape(out, c);
      ++i;
      continue;
    }
    if (c < 0x80) {
      out.push_back(static_cast<char>(c));
      ++i;
      continue;
    }
    // Non-ASCII: decode the UTF-8 sequence and escape the scalar, so the
    // emitted document is 7-bit clean regardless of the input encoding.
    const std::uint32_t cp = decode_utf8(text, i);
    if (cp < 0x10000) {
      append_u16_escape(out, cp);
    } else {
      const std::uint32_t v = cp - 0x10000;
      append_u16_escape(out, 0xD800 + (v >> 10));
      append_u16_escape(out, 0xDC00 + (v & 0x3FF));
    }
  }
  out.push_back('"');
}

void append_json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    throw JsonError(JsonError::Kind::kType, "non-finite number has no JSON spelling");
  }
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) {
    throw JsonError(JsonError::Kind::kType, "number formatting failed");
  }
  // The shortest form of a round integer can carry an exponent (100000 is
  // "1e+05"), which readers that type numbers by their spelling take for a
  // float. Integers that a double holds exactly are written as plain digits.
  if (std::find(buf, ptr, 'e') != ptr && std::abs(value) < 0x1p53 &&
      value == std::trunc(value)) {
    ptr = std::to_chars(buf, buf + sizeof(buf), static_cast<std::int64_t>(value)).ptr;
  }
  out.append(buf, ptr);
}

/// Recursive-descent parser over the input view. Depth is bounded to keep a
/// hostile (or corrupted) document from overflowing the stack.
class JsonParser {
 public:
  JsonParser(std::string_view text, const ParseLimits& limits)
      : text_(text), limits_(limits) {}

  JsonValue run() {
    if (text_.size() > limits_.max_bytes) {
      throw JsonError(JsonError::Kind::kOversized,
                      "document of " + std::to_string(text_.size()) +
                          " bytes exceeds the " + std::to_string(limits_.max_bytes) +
                          "-byte limit");
    }
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail(JsonError::Kind::kTrailing, pos_, "trailing garbage after document");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail(JsonError::Kind::kTruncated, pos_, "unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(JsonError::Kind::kMalformed, pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue value(int depth) {
    if (depth > limits_.max_depth) fail(JsonError::Kind::kTooDeep, pos_, "nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': {
        v.kind_ = JsonValue::Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        for (;;) {
          skip_ws();
          std::string key = string_body();
          skip_ws();
          expect(':');
          v.object_.emplace_back(std::move(key), value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind_ = JsonValue::Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        for (;;) {
          v.array_.push_back(value(depth + 1));
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = string_body();
        return v;
      case 't':
        if (!consume_literal("true")) fail(JsonError::Kind::kMalformed, pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail(JsonError::Kind::kMalformed, pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail(JsonError::Kind::kMalformed, pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kNull;
        return v;
      default:
        v.kind_ = JsonValue::Kind::kNumber;
        v.number_ = number_body();
        return v;
    }
  }

  /// Reads exactly four hex digits of a \u escape's code unit.
  std::uint32_t hex4() {
    if (pos_ + 4 > text_.size()) {
      fail(JsonError::Kind::kTruncated, pos_, "unterminated \\u escape");
    }
    std::uint32_t unit = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text_[pos_++];
      unit <<= 4;
      if (c >= '0' && c <= '9') {
        unit |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        unit |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        unit |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail(JsonError::Kind::kMalformed, pos_ - 1, "bad hex digit in \\u escape");
      }
    }
    return unit;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail(JsonError::Kind::kTruncated, pos_, "unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail(JsonError::Kind::kTruncated, pos_, "unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          const std::size_t unit_at = pos_ - 2;
          std::uint32_t cp = hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(JsonError::Kind::kMalformed, unit_at, "lone low surrogate");
          }
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' || text_[pos_ + 1] != 'u') {
              fail(JsonError::Kind::kMalformed, unit_at, "unpaired high surrogate");
            }
            pos_ += 2;
            const std::uint32_t low = hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail(JsonError::Kind::kMalformed, unit_at, "unpaired high surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: fail(JsonError::Kind::kMalformed, pos_ - 1, "unsupported escape");
      }
    }
  }

  double number_body() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    double out = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc() || ptr != text_.data() + pos_ || !std::isfinite(out)) {
      fail(JsonError::Kind::kMalformed, start, "malformed number");
    }
    return out;
  }

  std::string_view text_;
  ParseLimits limits_;
  std::size_t pos_ = 0;
};

JsonValue JsonValue::parse(std::string_view text, const ParseLimits& limits) {
  return JsonParser(text, limits).run();
}

JsonValue JsonValue::null() { return JsonValue{}; }

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  if (!std::isfinite(v)) {
    throw JsonError(JsonError::Kind::kType, "non-finite number has no JSON spelling");
  }
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::number_or_null(double v) {
  return std::isfinite(v) ? number(v) : null();
}

JsonValue JsonValue::string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::object(std::initializer_list<std::pair<std::string, JsonValue>> members) {
  JsonValue out;
  out.kind_ = Kind::kObject;
  out.object_.assign(members.begin(), members.end());
  return out;
}

void JsonValue::push_back(JsonValue element) {
  if (kind_ != Kind::kArray) {
    throw JsonError(JsonError::Kind::kType, "push_back on a non-array value");
  }
  array_.push_back(std::move(element));
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::kObject) {
    throw JsonError(JsonError::Kind::kType, "set on a non-object value");
  }
  object_.emplace_back(std::move(key), std::move(value));
}

std::string JsonValue::dump() const {
  std::string out;
  // Serialize iteratively-recursively; the tree depth is parser-bounded (or
  // writer-controlled), so plain recursion is safe here.
  struct Dumper {
    static void emit(std::string& out, const JsonValue& v) {
      switch (v.kind_) {
        case Kind::kNull: out += "null"; return;
        case Kind::kBool: out += v.bool_ ? "true" : "false"; return;
        case Kind::kNumber: append_json_number(out, v.number_); return;
        case Kind::kString: append_json_quoted(out, v.string_); return;
        case Kind::kArray: {
          out.push_back('[');
          for (std::size_t i = 0; i < v.array_.size(); ++i) {
            if (i > 0) out.push_back(',');
            emit(out, v.array_[i]);
          }
          out.push_back(']');
          return;
        }
        case Kind::kObject: {
          out.push_back('{');
          for (std::size_t i = 0; i < v.object_.size(); ++i) {
            if (i > 0) out.push_back(',');
            append_json_quoted(out, v.object_[i].first);
            out.push_back(':');
            emit(out, v.object_[i].second);
          }
          out.push_back('}');
          return;
        }
      }
    }
  };
  Dumper::emit(out, *this);
  return out;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw JsonError(JsonError::Kind::kType, "value is not a number");
  return number_;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonError(JsonError::Kind::kType, "value is not a bool");
  return bool_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw JsonError(JsonError::Kind::kType, "value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) throw JsonError(JsonError::Kind::kType, "value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) throw JsonError(JsonError::Kind::kType, "value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw JsonError(JsonError::Kind::kMissingKey, "missing key '" + std::string(key) + "'");
  }
  return *v;
}

}  // namespace rumr::util
