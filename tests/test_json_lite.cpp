// Tests for util/json_lite.hpp: the one tokenizer and its two consumers
// (the JsonValue tree and the JsonDocument tape read through JsonView), and
// the writer.

#include "util/json_lite.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rumr::util {
namespace {

TEST(JsonLite, ParsesFlatRateObject) {
  const JsonValue doc = JsonValue::parse(R"({"a": 1.5, "b": 2e6, "c": -3})");
  ASSERT_EQ(doc.as_object().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("a").as_number(), 1.5);
  EXPECT_DOUBLE_EQ(doc.at("b").as_number(), 2e6);
  EXPECT_DOUBLE_EQ(doc.at("c").as_number(), -3.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
}

TEST(JsonLite, ParsesNestedStructure) {
  const JsonValue doc = JsonValue::parse(
      R"({"name": "homogeneous-10", "cases": [{"ok": true}, {"ok": false}], "none": null})");
  EXPECT_EQ(doc.at("name").as_string(), "homogeneous-10");
  ASSERT_EQ(doc.at("cases").as_array().size(), 2u);
  EXPECT_TRUE(doc.at("cases").as_array()[0].at("ok").as_bool());
  EXPECT_FALSE(doc.at("cases").as_array()[1].at("ok").as_bool());
}

TEST(JsonLite, RoundTripsFullPrecisionDoubles) {
  // Golden fixtures are written with 17 significant digits; the reader must
  // reproduce the exact bit pattern.
  const double value = 134.88428544543922;
  const JsonValue doc = JsonValue::parse(R"({"makespan": 134.88428544543922})");
  EXPECT_EQ(doc.at("makespan").as_number(), value);
}

TEST(JsonLite, ParsesStringEscapes) {
  const JsonValue doc = JsonValue::parse(R"({"s": "a\"b\\c\nd"})");
  EXPECT_EQ(doc.at("s").as_string(), "a\"b\\c\nd");
}

TEST(JsonLite, KindMismatchesThrow) {
  const JsonValue doc = JsonValue::parse(R"({"n": 1})");
  EXPECT_THROW((void)doc.at("n").as_string(), std::runtime_error);
  EXPECT_THROW((void)doc.at("n").as_bool(), std::runtime_error);
  EXPECT_THROW((void)doc.at("n").as_array(), std::runtime_error);
  EXPECT_THROW((void)doc.as_number(), std::runtime_error);
}

TEST(JsonLite, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": })"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1e})"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": inf})"), std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": "unterminated})"), std::runtime_error);
}

TEST(JsonLite, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW((void)JsonValue::parse(deep), std::runtime_error);
}

// --- Wire-hardening regression tests (serve protocol requirements) ---------

TEST(JsonLite, TruncatedDocumentsRaiseTheNamedTruncationError) {
  for (const char* text : {"", "{", "[1, 2", R"({"a": "unterminated)", R"({"a": "x\)",
                           R"({"s": "\u00)", "tru", "[1,"}) {
    try {
      (void)JsonValue::parse(text);
      FAIL() << "accepted truncated document: " << text;
    } catch (const JsonError& e) {
      // "tru" is a truncation of `true`, but the parser cannot know that a
      // longer document was intended — a bad literal is malformed, the rest
      // are unambiguous truncations.
      if (std::string(text) == "tru" || std::string(text) == "[1,") {
        continue;  // kind depends on where the cut landed; throwing is enough
      }
      EXPECT_EQ(e.kind(), JsonError::Kind::kTruncated) << text << ": " << e.what();
    }
  }
}

TEST(JsonLite, OversizedDocumentsAreRejectedUpFrontWithTheNamedError) {
  ParseLimits limits;
  limits.max_bytes = 16;
  const std::string big = R"({"k": "0123456789abcdef"})";
  ASSERT_GT(big.size(), limits.max_bytes);
  try {
    (void)JsonValue::parse(big, limits);
    FAIL() << "accepted oversized document";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), JsonError::Kind::kOversized);
  }
  // At or under the limit parses normally.
  EXPECT_NO_THROW((void)JsonValue::parse(R"({"k": 1})", limits));
}

TEST(JsonLite, NamedKindsDistinguishTrailingGarbageDepthAndTypeErrors) {
  try {
    (void)JsonValue::parse("{} trailing");
    FAIL();
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), JsonError::Kind::kTrailing);
  }
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  try {
    (void)JsonValue::parse(deep);
    FAIL();
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), JsonError::Kind::kTooDeep);
  }
  const JsonValue doc = JsonValue::parse(R"({"n": 1})");
  try {
    (void)doc.at("n").as_string();
    FAIL();
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), JsonError::Kind::kType);
  }
  try {
    (void)doc.at("missing");
    FAIL();
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), JsonError::Kind::kMissingKey);
  }
}

TEST(JsonLite, DecodesUnicodeEscapesIncludingSurrogatePairs) {
  const JsonValue doc = JsonValue::parse(R"({"s": "Aé€😀"})");
  EXPECT_EQ(doc.at("s").as_string(),
            "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");  // A é € 😀 in UTF-8
}

TEST(JsonLite, RejectsLoneAndUnpairedSurrogates) {
  for (const char* text : {R"(["\udc00"])", R"(["\ud800"])", R"(["\ud800x"])",
                           R"(["\ud800A"])"}) {
    try {
      (void)JsonValue::parse(text);
      FAIL() << "accepted " << text;
    } catch (const JsonError& e) {
      EXPECT_EQ(e.kind(), JsonError::Kind::kMalformed) << text;
    }
  }
}

// --- One tokenizer: both consumers fail alike --------------------------------

/// One rejected document, the limits it was read with, and the error the
/// tokenizer must raise for it: kind, message and byte offset.
struct ParseFailure {
  std::string text;
  JsonError::Kind kind;
  std::string message;
  ParseLimits limits{};
};

std::vector<ParseFailure> parse_failures() {
  using Kind = JsonError::Kind;
  ParseLimits tiny;
  tiny.max_bytes = 16;
  ParseLimits shallow;
  shallow.max_depth = 2;
  return {
      {"", Kind::kTruncated, "json_lite: unexpected end of input at byte 0"},
      {"[1, 2", Kind::kTruncated, "json_lite: unexpected end of input at byte 5"},
      {R"({"k")", Kind::kTruncated, "json_lite: unexpected end of input at byte 4"},
      {std::string(65, '['), Kind::kTruncated, "json_lite: unexpected end of input at byte 65"},
      {R"({"a": "unterminated)", Kind::kTruncated, "json_lite: unterminated string at byte 19"},
      {R"(["ab\)", Kind::kTruncated, "json_lite: unterminated escape at byte 5"},
      {R"({"s": "\u00)", Kind::kTruncated, R"(json_lite: unterminated \u escape at byte 9)"},
      {R"({"k": "0123456789abcdef"})", Kind::kOversized,
       "json_lite: document of 25 bytes exceeds the 16-byte limit", tiny},
      {std::string(66, '['), Kind::kTooDeep, "json_lite: nesting too deep at byte 65"},
      {"[[[1]]]", Kind::kTooDeep, "json_lite: nesting too deep at byte 3", shallow},
      {"tru", Kind::kMalformed, "json_lite: bad literal at byte 0"},
      {R"({"a" 1})", Kind::kMalformed, "json_lite: expected ':' at byte 5"},
      {R"({"a": 1 "b": 2})", Kind::kMalformed, "json_lite: expected '}' at byte 8"},
      {"[1 2]", Kind::kMalformed, "json_lite: expected ']' at byte 3"},
      {"{1: 2}", Kind::kMalformed, R"(json_lite: expected '"' at byte 1)"},
      {R"({"a": 1e})", Kind::kMalformed, "json_lite: malformed number at byte 6"},
      {"[1e400]", Kind::kMalformed, "json_lite: malformed number at byte 1"},
      {R"(["\u00zz"])", Kind::kMalformed, R"(json_lite: bad hex digit in \u escape at byte 6)"},
      {R"(["\udc00"])", Kind::kMalformed, "json_lite: lone low surrogate at byte 2"},
      {R"(["\ud800x"])", Kind::kMalformed, "json_lite: unpaired high surrogate at byte 2"},
      {R"(["\ud800A"])", Kind::kMalformed, "json_lite: unpaired high surrogate at byte 2"},
      {R"(["\q"])", Kind::kMalformed, "json_lite: unsupported escape at byte 3"},
      {"{} trailing", Kind::kTrailing, "json_lite: trailing garbage after document at byte 3"},
      {"[1] ]", Kind::kTrailing, "json_lite: trailing garbage after document at byte 4"},
  };
}

template <typename Parse>
void expect_failure(const ParseFailure& failure, Parse parse, const char* consumer) {
  try {
    parse(failure.text, failure.limits);
    ADD_FAILURE() << consumer << " accepted: " << failure.text;
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), failure.kind) << consumer << ": " << failure.text;
    EXPECT_EQ(std::string(e.what()), failure.message) << consumer << ": " << failure.text;
  }
}

TEST(JsonLite, EveryParseErrorKeepsItsMessageAndOffsetInBothConsumers) {
  for (const ParseFailure& failure : parse_failures()) {
    expect_failure(
        failure,
        [](std::string_view text, const ParseLimits& limits) {
          (void)JsonValue::parse(text, limits);
        },
        "JsonValue::parse");
    expect_failure(
        failure,
        [](std::string_view text, const ParseLimits& limits) {
          (void)JsonDocument::parse(text, limits);
        },
        "JsonDocument::parse");
  }
}

TEST(JsonLite, AccessorErrorsKeepTheirMessagesInBothConsumers) {
  const std::string text = R"({"n": 1, "s": "x"})";
  const JsonValue tree = JsonValue::parse(text);
  const JsonDocument doc = JsonDocument::parse(text);
  const JsonView n = *doc.root().find("n");
  const auto message = [](auto&& access) {
    try {
      access();
    } catch (const JsonError& e) {
      EXPECT_EQ(e.kind(), JsonError::Kind::kType);
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { (void)tree.at("n").as_string(); }), "json_lite: value is not a string");
  EXPECT_EQ(message([&] { (void)n.as_string(); }), "json_lite: value is not a string");
  EXPECT_EQ(message([&] { (void)tree.at("n").as_bool(); }), "json_lite: value is not a bool");
  EXPECT_EQ(message([&] { (void)n.as_bool(); }), "json_lite: value is not a bool");
  EXPECT_EQ(message([&] { (void)tree.as_number(); }), "json_lite: value is not a number");
  EXPECT_EQ(message([&] { (void)doc.root().as_number(); }), "json_lite: value is not a number");
  EXPECT_EQ(message([&] { (void)tree.at("n").as_array(); }), "json_lite: value is not an array");
  EXPECT_EQ(message([&] { (void)n.elements(); }), "json_lite: value is not an array");
  EXPECT_EQ(message([&] { (void)tree.at("n").as_object(); }), "json_lite: value is not an object");
  EXPECT_EQ(message([&] { (void)n.members(); }), "json_lite: value is not an object");
  try {
    (void)tree.at("missing");
    ADD_FAILURE() << "at() found a missing key";
  } catch (const JsonError& e) {
    EXPECT_EQ(e.kind(), JsonError::Kind::kMissingKey);
    EXPECT_EQ(std::string(e.what()), "json_lite: missing key 'missing'");
  }
}

// --- The tape ----------------------------------------------------------------

TEST(JsonDocument, ViewsWalkTheTapeInDocumentOrder) {
  const std::string text =
      R"({"a": [1, {"b": null}, [], "s"], "t": true, "f": false, "o": {}, "a": 2})";
  const JsonDocument doc = JsonDocument::parse(text);
  const JsonView root = doc.root();
  ASSERT_TRUE(root.is_object());
  std::vector<std::string> keys;
  for (const auto& [key, value] : root.members()) {
    (void)value;
    keys.emplace_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "t", "f", "o", "a"}));
  EXPECT_EQ(root.members().size(), 5u);

  // Duplicate keys: find() returns the first, like JsonValue::find.
  const JsonView a = *root.find("a");
  ASSERT_TRUE(a.is_array());
  const auto elements = a.elements();
  ASSERT_EQ(elements.size(), 4u);
  auto it = elements.begin();
  EXPECT_EQ((*it).as_number(), 1.0);
  ++it;
  EXPECT_TRUE((*it).is_object());
  EXPECT_EQ((*it).find("b")->kind(), JsonView::Kind::kNull);
  ++it;
  EXPECT_TRUE((*it).is_array());
  EXPECT_TRUE((*it).elements().empty());
  EXPECT_EQ((*it).elements().begin(), (*it).elements().end());
  ++it;
  EXPECT_EQ((*it).as_string(), "s");
  ++it;
  EXPECT_EQ(it, elements.end());

  EXPECT_TRUE(root.find("t")->as_bool());
  EXPECT_FALSE(root.find("f")->as_bool());
  EXPECT_TRUE(root.find("o")->members().empty());
  EXPECT_FALSE(root.find("missing").has_value());
  EXPECT_FALSE(a.find("a").has_value());  // Not an object.
}

TEST(JsonDocument, PlainStringsViewTheInputAndEscapedOnesAreDecoded) {
  const std::string text = R"(["plain", "tab\there", "\u0077orkload", "\ud83d\ude00", ""])";
  JsonDocument parsed = JsonDocument::parse(text);
  const JsonDocument doc = std::move(parsed);  // Views into the decode buffer survive a move.
  std::vector<std::string_view> strings;
  for (const JsonView element : doc.root().elements()) strings.push_back(element.as_string());
  ASSERT_EQ(strings.size(), 5u);
  EXPECT_EQ(strings[0], "plain");
  EXPECT_EQ(strings[0].data(), text.data() + 2);  // A view of the input, not a copy.
  EXPECT_EQ(strings[1], "tab\there");
  EXPECT_EQ(strings[2], "workload");
  EXPECT_EQ(strings[3], "\xF0\x9F\x98\x80");
  EXPECT_EQ(strings[4], "");
  for (std::size_t i = 1; i < 4; ++i) {
    const bool in_input =
        strings[i].data() >= text.data() && strings[i].data() < text.data() + text.size();
    EXPECT_FALSE(in_input) << "escaped string " << i << " should be decoded";
  }
}

TEST(JsonDocument, TheTreeIsBuiltFromTheTape) {
  const std::string text =
      R"({"k": [1.5, -0, 1e308, "é"], "k": {"x": null, "y": [true, false]}})";
  const JsonValue tree = JsonValue::parse(text);
  ASSERT_EQ(tree.as_object().size(), 2u);  // The tree keeps duplicate keys too.
  EXPECT_EQ(tree.at("k").as_array()[2].as_number(), 1e308);
  EXPECT_TRUE(std::signbit(tree.at("k").as_array()[1].as_number()));
  EXPECT_EQ(tree.at("k").as_array()[3].as_string(), "\xC3\xA9");
  EXPECT_EQ(tree.as_object()[1].second.at("y").as_array().size(), 2u);
  EXPECT_EQ(tree.dump(), R"({"k":[1.5,-0,1e+308,"\u00e9"],"k":{"x":null,"y":[true,false]}})");
}

TEST(JsonLite, WriterEscapesControlCharactersAndNonAscii) {
  JsonValue obj = JsonValue::object();
  obj.set("ctl", JsonValue::string(std::string("a\x01" "b\x1f" "\x7f\n\t") + '\0' + "z"));
  obj.set("utf8", JsonValue::string("caf\xC3\xA9 \xE2\x82\xAC \xF0\x9F\x98\x80"));
  obj.set("bad", JsonValue::string("\xFF\xFE"));  // invalid UTF-8 bytes
  const std::string wire = obj.dump();
  EXPECT_EQ(wire,
            "{\"ctl\":\"a\\u0001b\\u001f\\u007f\\n\\t\\u0000z\","
            "\"utf8\":\"caf\\u00e9 \\u20ac \\ud83d\\ude00\","
            "\"bad\":\"\\ufffd\\ufffd\"}");
  // 7-bit clean: nothing outside printable ASCII survives escaping.
  for (const char c : wire) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
  }
}

TEST(JsonLite, WriterReaderRoundTripReproducesTheTree) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("weird \"name\"\twith\nbytes \xE2\x82\xAC"));
  obj.set("n", JsonValue::number(134.88428544543922));
  obj.set("neg", JsonValue::number(-0.3));
  obj.set("t", JsonValue::boolean(true));
  obj.set("z", JsonValue::null());
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(1));
  arr.push_back(JsonValue::string("\x02"));
  obj.set("a", std::move(arr));

  const std::string wire = obj.dump();
  const JsonValue back = JsonValue::parse(wire);
  EXPECT_EQ(back.at("name").as_string(), "weird \"name\"\twith\nbytes \xE2\x82\xAC");
  EXPECT_EQ(back.at("n").as_number(), 134.88428544543922);
  EXPECT_EQ(back.at("neg").as_number(), -0.3);
  EXPECT_TRUE(back.at("t").as_bool());
  EXPECT_EQ(back.at("z").kind(), JsonValue::Kind::kNull);
  EXPECT_EQ(back.at("a").as_array()[0].as_number(), 1.0);
  EXPECT_EQ(back.at("a").as_array()[1].as_string(), "\x02");
  // Canonical bytes: dumping the re-parsed tree reproduces the wire exactly.
  EXPECT_EQ(back.dump(), wire);
}

TEST(JsonLite, IntegersBelowTwoToThe53AreWrittenInPlainDigits) {
  const auto spelled = [](double value) {
    std::string out;
    append_json_number(out, value);
    return out;
  };
  // Shortest round-trip form would print these with an exponent ("1e+05").
  EXPECT_EQ(spelled(1e5), "100000");
  EXPECT_EQ(spelled(2e5), "200000");
  EXPECT_EQ(spelled(1e6), "1000000");
  EXPECT_EQ(spelled(-3e5), "-300000");
  EXPECT_EQ(spelled(1e15), "1000000000000000");
  EXPECT_EQ(spelled(9007199254740991.0), "9007199254740991");  // 2^53 - 1.
  // Non-integers keep their shortest form, exponent included.
  EXPECT_EQ(spelled(1.5e-07), "1.5e-07");
  EXPECT_EQ(spelled(0.25), "0.25");
  for (const double value : {1e5, 2e5, 1e6, -3e5, 1e15, 9007199254740991.0, 1.5e-07}) {
    EXPECT_EQ(JsonValue::parse(spelled(value)).as_number(), value) << spelled(value);
  }
}

TEST(JsonLite, WriterRefusesNonFiniteNumbers) {
  EXPECT_THROW((void)JsonValue::number(std::numeric_limits<double>::infinity()), JsonError);
  EXPECT_THROW((void)JsonValue::number(std::numeric_limits<double>::quiet_NaN()), JsonError);
}

}  // namespace
}  // namespace rumr::util
