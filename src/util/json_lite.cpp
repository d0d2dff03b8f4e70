#include "util/json_lite.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>

namespace rumr::util {

namespace {

[[noreturn]] void fail(JsonError::Kind kind, std::size_t offset, const std::string& what) {
  throw JsonError(kind, what + " at byte " + std::to_string(offset));
}

/// Encodes one Unicode scalar value as UTF-8.
void append_utf8(std::vector<char>& out, std::uint32_t cp) {
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

/// The one tokenizer: recursive descent over the input view, appending each
/// value to a JsonDocument's tape in document order. Depth is bounded to keep
/// a hostile (or corrupted) document from overflowing the stack.
class JsonTokenizer {
 public:
  JsonTokenizer(std::string_view text, const ParseLimits& limits, JsonDocument& doc)
      : text_(text), limits_(limits), nodes_(doc.nodes_), decoded_(doc.decoded_) {}

  void run() {
    // A node spans at least one input byte, so 32-bit tape offsets hold
    // every document below 4 GiB.
    const std::size_t max_bytes =
        std::min<std::size_t>(limits_.max_bytes, std::numeric_limits<std::uint32_t>::max());
    if (text_.size() > max_bytes) {
      throw JsonError(JsonError::Kind::kOversized,
                      "document of " + std::to_string(text_.size()) +
                          " bytes exceeds the " + std::to_string(max_bytes) + "-byte limit");
    }
    value(0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail(JsonError::Kind::kTrailing, pos_, "trailing garbage after document");
    }
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

  /// Appends one node and returns its index: a container's node is filled
  /// in after its children, and appending may move the array, so callers
  /// hold indices, never references.
  std::size_t push(JsonValue::Kind kind) {
    nodes_.emplace_back().kind = kind;
    return nodes_.size() - 1;
  }

  /// Ends the container pushed at `at`: its subtree is every node since.
  void close(std::size_t at, std::uint32_t count) {
    nodes_[at].extent = static_cast<std::uint32_t>(nodes_.size() - at);
    nodes_[at].count = count;
  }

  void value(int depth) {
    if (depth > limits_.max_depth) fail(JsonError::Kind::kTooDeep, pos_, "nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': {
        const std::size_t at = push(JsonValue::Kind::kObject);
        ++pos_;
        skip_ws();
        std::uint32_t count = 0;
        if (peek() == '}') {
          ++pos_;
          close(at, count);
          return;
        }
        for (;;) {
          skip_ws();
          string();  // The member's key.
          skip_ws();
          expect(':');
          value(depth + 1);
          ++count;
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          close(at, count);
          return;
        }
      }
      case '[': {
        const std::size_t at = push(JsonValue::Kind::kArray);
        ++pos_;
        skip_ws();
        std::uint32_t count = 0;
        if (peek() == ']') {
          ++pos_;
          close(at, count);
          return;
        }
        for (;;) {
          value(depth + 1);
          ++count;
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          close(at, count);
          return;
        }
      }
      case '"':
        string();
        return;
      case 't':
        if (!consume_literal("true")) fail(JsonError::Kind::kMalformed, pos_, "bad literal");
        nodes_[push(JsonValue::Kind::kBool)].boolean = true;
        return;
      case 'f':
        if (!consume_literal("false")) fail(JsonError::Kind::kMalformed, pos_, "bad literal");
        push(JsonValue::Kind::kBool);
        return;
      case 'n':
        if (!consume_literal("null")) fail(JsonError::Kind::kMalformed, pos_, "bad literal");
        push(JsonValue::Kind::kNull);
        return;
      default: {
        const double number = number_body();
        nodes_[push(JsonValue::Kind::kNumber)].number = number;
        return;
      }
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

  /// Appends a kString node over `length` bytes at `text`.
  void push_string(const char* text, std::size_t length) {
    detail::JsonNode& node = nodes_[push(JsonValue::Kind::kString)];
    node.text = text;
    node.length = static_cast<std::uint32_t>(length);
  }

  /// Reads one string literal onto the tape. A literal without escapes is a
  /// view of the input. One with escapes decodes into the document's
  /// buffer, reserved to the input's size on first use: a literal never
  /// decodes to more bytes than it spans, so the buffer never reallocates
  /// and every view into it stays valid.
  void string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') ++pos_;
    if (pos_ >= text_.size()) {
      fail(JsonError::Kind::kTruncated, pos_, "unterminated string");
    }
    if (text_[pos_] == '"') {
      push_string(text_.data() + start, pos_ - start);
      ++pos_;
      return;
    }
    if (decoded_.capacity() == 0) decoded_.reserve(text_.size());
    const std::size_t from = decoded_.size();
    decoded_.insert(decoded_.end(), text_.data() + start, text_.data() + pos_);
    for (;;) {
      if (pos_ >= text_.size()) {
        fail(JsonError::Kind::kTruncated, pos_, "unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        decoded_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        fail(JsonError::Kind::kTruncated, pos_, "unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': decoded_.push_back('"'); break;
        case '\\': decoded_.push_back('\\'); break;
        case '/': decoded_.push_back('/'); break;
        case 'n': decoded_.push_back('\n'); break;
        case 't': decoded_.push_back('\t'); break;
        case 'r': decoded_.push_back('\r'); break;
        case 'b': decoded_.push_back('\b'); break;
        case 'f': decoded_.push_back('\f'); break;
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
          append_utf8(decoded_, cp);
          break;
        }
        default: fail(JsonError::Kind::kMalformed, pos_ - 1, "unsupported escape");
      }
    }
    push_string(decoded_.data() + from, decoded_.size() - from);
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
  std::vector<detail::JsonNode>& nodes_;
  std::vector<char>& decoded_;
  std::size_t pos_ = 0;
};

JsonDocument JsonDocument::parse(std::string_view text, const ParseLimits& limits) {
  JsonDocument doc;
  // The wire's batches spend about eight bytes a node, so this is their one
  // allocation; denser documents regrow the array.
  doc.nodes_.reserve(text.size() / 6 + 1);
  JsonTokenizer(text, limits, doc).run();
  return doc;
}

double JsonView::as_number() const {
  if (node_->kind != Kind::kNumber) {
    throw JsonError(JsonError::Kind::kType, "value is not a number");
  }
  return node_->number;
}

bool JsonView::as_bool() const {
  if (node_->kind != Kind::kBool) throw JsonError(JsonError::Kind::kType, "value is not a bool");
  return node_->boolean;
}

std::string_view JsonView::as_string() const {
  if (node_->kind != Kind::kString) {
    throw JsonError(JsonError::Kind::kType, "value is not a string");
  }
  return as_key();
}

JsonView::Children<JsonView> JsonView::elements() const {
  if (node_->kind != Kind::kArray) throw JsonError(JsonError::Kind::kType, "value is not an array");
  return Children<JsonView>(node_);
}

JsonView::Children<JsonView::Member> JsonView::members() const {
  if (node_->kind != Kind::kObject) {
    throw JsonError(JsonError::Kind::kType, "value is not an object");
  }
  return Children<Member>(node_);
}

namespace {

/// The tree of one tape value; recursion is as deep as the parser allowed.
JsonValue tree_of(JsonView view) {
  switch (view.kind()) {
    case JsonValue::Kind::kNull: return JsonValue::null();
    case JsonValue::Kind::kBool: return JsonValue::boolean(view.as_bool());
    case JsonValue::Kind::kNumber: return JsonValue::number(view.as_number());
    case JsonValue::Kind::kString: return JsonValue::string(std::string(view.as_string()));
    case JsonValue::Kind::kArray: {
      JsonValue out = JsonValue::array();
      for (const JsonView element : view.elements()) out.push_back(tree_of(element));
      return out;
    }
    case JsonValue::Kind::kObject: {
      JsonValue out = JsonValue::object();
      for (const auto& [key, value] : view.members()) out.set(std::string(key), tree_of(value));
      return out;
    }
  }
  return JsonValue::null();
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text, const ParseLimits& limits) {
  const JsonDocument doc = JsonDocument::parse(text, limits);
  return tree_of(doc.root());
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
