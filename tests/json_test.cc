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

}  // namespace
}  // namespace sqlnf
