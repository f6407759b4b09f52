// util/json.h: the reader handles RFC 8259 documents (with int64-exact
// numbers and \u escapes), rejects malformed and hostile inputs with
// ParseError instead of crashing, and the writer's output parses back
// to the same tree — the property the HTTP API depends on.

#include <string>

#include <gtest/gtest.h>

#include "sqlnf/util/json.h"
#include "test_util.h"

namespace sqlnf {
namespace {

TEST(JsonParseTest, Scalars) {
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson("null"));
  EXPECT_TRUE(v.is_null());
  ASSERT_OK_AND_ASSIGN(v, ParseJson("true"));
  EXPECT_TRUE(v.bool_value());
  ASSERT_OK_AND_ASSIGN(v, ParseJson("-42"));
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value(), -42);
  ASSERT_OK_AND_ASSIGN(v, ParseJson("2.5"));
  EXPECT_FALSE(v.is_int());
  EXPECT_DOUBLE_EQ(v.double_value(), 2.5);
  ASSERT_OK_AND_ASSIGN(v, ParseJson("\"a\\nb\""));
  EXPECT_EQ(v.str_value(), "a\nb");
}

TEST(JsonParseTest, Int64ExactBoundaries) {
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson("9223372036854775807"));
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value(), INT64_MAX);
  ASSERT_OK_AND_ASSIGN(v, ParseJson("-9223372036854775808"));
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value(), INT64_MIN);
  // One past the edge degrades to double, not garbage.
  ASSERT_OK_AND_ASSIGN(v, ParseJson("9223372036854775808"));
  EXPECT_TRUE(v.is_number());
  EXPECT_FALSE(v.is_int());
}

// int_value() is defined for every double: values past int64's range
// saturate instead of hitting the undefined float-to-int conversion.
TEST(JsonParseTest, IntValueSaturatesOutOfRangeDoubles) {
  struct Case {
    const char* text;
    int64_t want;
  };
  for (const Case& c : {Case{"1e300", INT64_MAX}, Case{"-1e300", INT64_MIN},
                        Case{"1e999", INT64_MAX}, Case{"-1e999", INT64_MIN},
                        Case{"9223372036854775808", INT64_MAX},
                        Case{"-9223372036854775809", INT64_MIN},
                        Case{"2.9", 2}, Case{"-2.9", -2}, Case{"0.5", 0}}) {
    ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(c.text));
    ASSERT_FALSE(v.is_int()) << c.text;
    EXPECT_EQ(v.int_value(), c.want) << c.text;
    ASSERT_OK_AND_ASSIGN(
        JsonValue obj, ParseJson(std::string("{\"n\":") + c.text + "}"));
    EXPECT_EQ(obj.GetInt("n", 7), c.want) << c.text;
  }
}

TEST(JsonParseTest, NestedStructure) {
  ASSERT_OK_AND_ASSIGN(
      JsonValue v,
      ParseJson(R"({"sql":"SELECT 1","threads":4,"tags":["a","b"]})"));
  ASSERT_TRUE(v.is_object());
  ASSERT_OK_AND_ASSIGN(std::string sql, v.GetString("sql"));
  EXPECT_EQ(sql, "SELECT 1");
  EXPECT_EQ(v.GetInt("threads", 1), 4);
  EXPECT_EQ(v.GetInt("absent", 7), 7);
  const JsonValue* tags = v.Find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_EQ(tags->items().size(), 2u);
  EXPECT_EQ(tags->items()[1].str_value(), "b");
}

TEST(JsonParseTest, UnicodeEscapes) {
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson("\"\\u00e9\\u0041\""));
  EXPECT_EQ(v.str_value(), "\xc3\xa9"
                           "A");
}

// A surrogate pair is one code point outside the BMP and decodes to
// its 4-byte UTF-8 sequence, not to two 3-byte (CESU-8) halves. A lone
// or reversed surrogate is a ParseError.
TEST(JsonParseTest, SurrogatePairsDecodeToOneCodePoint) {
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson("\"\\ud83d\\ude00\""));
  EXPECT_EQ(v.str_value(), "\xf0\x9f\x98\x80");  // U+1F600
  ASSERT_OK_AND_ASSIGN(
      v, ParseJson("\"a\\uD800\\uDC00b\\uDBFF\\uDFFFc\""));
  EXPECT_EQ(v.str_value(), "a\xf0\x90\x80\x80"  // U+10000
                           "b\xf4\x8f\xbf\xbf"  // U+10FFFF
                           "c");
  for (const char* bad : {
           "\"\\ud83d\"",          // lone high, at the end
           "\"\\ud83dx\"",         // lone high, then a plain byte
           "\"\\ud83d\\n\"",       // lone high, then another escape
           "\"\\ud83d\\u0041\"",   // high, then a non-surrogate
           "\"\\ud83d\\ud83d\"",   // high, then another high
           "\"\\ude00\"",          // lone low
           "\"\\ude00\\ud83d\"",   // reversed pair
           "\"\\ud83d\\ude0\"",    // truncated low
       }) {
    const Result<JsonValue> r = ParseJson(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(JsonParseTest, RejectsMalformed) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // trailing garbage
  EXPECT_FALSE(ParseJson("{\"a\":1} x").ok());
}

TEST(JsonParseTest, DepthCapStopsHostileNesting) {
  std::string deep(10000, '[');
  deep += std::string(10000, ']');
  Result<JsonValue> r = ParseJson(deep);  // must not overflow the stack
  EXPECT_FALSE(r.ok());
}

TEST(JsonWriterTest, ComposesAndRoundTrips) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("name");
  w.String("he said \"hi\"\n");
  w.Key("counts");
  w.BeginArray();
  w.Int(1);
  w.Int(-2);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("x");
  w.Double(0.5);
  w.EndObject();
  w.EndObject();
  const std::string text = std::move(w).Take();

  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(text));
  EXPECT_TRUE(v.Find("ok")->bool_value());
  EXPECT_EQ(v.Find("name")->str_value(), "he said \"hi\"\n");
  ASSERT_EQ(v.Find("counts")->items().size(), 3u);
  EXPECT_EQ(v.Find("counts")->items()[1].int_value(), -2);
  EXPECT_TRUE(v.Find("counts")->items()[2].is_null());
  EXPECT_DOUBLE_EQ(v.Find("nested")->Find("x")->double_value(), 0.5);
}

TEST(JsonWriterTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  const std::string quoted = JsonQuote(std::string("\x01\t\n", 3));
  ASSERT_OK_AND_ASSIGN(JsonValue v, ParseJson(quoted));
  EXPECT_EQ(v.str_value(), std::string("\x01\t\n", 3));
}

// The escape of every byte, as the quoting wrote it before it learned
// to append unescaped runs whole: the 32 control bytes, then '"' and
// '\\'; every other byte (0x7F and the UTF-8 lead and continuation
// bytes included) is written as it is.
std::string QuotedByte(unsigned char b) {
  static const char* const kControl[32] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\b",     "\\t",     "\\n",     "\\u000b",
      "\\f",     "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  if (b < 0x20) return kControl[b];
  if (b == '"') return "\\\"";
  if (b == '\\') return "\\\\";
  return std::string(1, static_cast<char>(b));
}

TEST(JsonWriterTest, QuoteEscapesEveryByteAloneAndBetweenRuns) {
  std::string all, all_expected;
  for (int b = 0; b < 256; ++b) {
    const std::string byte(1, static_cast<char>(b));
    const std::string escaped = QuotedByte(static_cast<unsigned char>(b));
    EXPECT_EQ(JsonQuote(byte), "\"" + escaped + "\"") << "byte " << b;
    EXPECT_EQ(JsonQuote("ab" + byte + "cd"), "\"ab" + escaped + "cd\"")
        << "byte " << b;
    all += byte + "xyz";
    all_expected += escaped + "xyz";
  }
  EXPECT_EQ(JsonQuote(all), "\"" + all_expected + "\"");
  // The writer's keys and strings escape exactly as JsonQuote does.
  JsonWriter w;
  w.BeginObject();
  w.Key(all);
  w.String(all);
  w.EndObject();
  EXPECT_EQ(std::move(w).Take(), "{" + JsonQuote(all) + ":" +
                                     JsonQuote(all) + "}");
}

}  // namespace
}  // namespace sqlnf
