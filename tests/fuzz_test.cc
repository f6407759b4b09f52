// Randomized robustness: malformed text into the parsers and CSV
// reader must produce error statuses, never crashes or accepted
// garbage; random valid inputs must round-trip. The service's own
// front end gets fixed-seed mutation fuzzers too: mutated request
// bodies through ParseJson and the field getters, and mutated request
// streams through HttpRequestReader at random chunk splits.

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "sqlnf/constraints/parser.h"
#include "sqlnf/constraints/satisfies.h"
#include "sqlnf/constraints/serialize.h"
#include "sqlnf/core/encoded_table.h"
#include "sqlnf/engine/csv.h"
#include "sqlnf/engine/validate.h"
#include "sqlnf/net/http.h"
#include "sqlnf/util/json.h"
#include "test_util.h"

namespace sqlnf {
namespace {

using testing::Schema;

std::string RandomText(Rng* rng, int max_len) {
  static const char kAlphabet[] =
      "abcxyz ,;<>{}->sw\n\"\t0123456789#NULL";
  int len = static_cast<int>(rng->Uniform(0, max_len));
  std::string out;
  for (int i = 0; i < len; ++i) {
    out += kAlphabet[rng->Index(sizeof(kAlphabet) - 1)];
  }
  return out;
}

TEST(FuzzTest, ConstraintParserNeverCrashes) {
  Rng rng(404);
  TableSchema schema = Schema("abc", "a");
  for (int i = 0; i < 3000; ++i) {
    std::string text = RandomText(&rng, 40);
    auto fd = ParseFd(schema, text);
    auto key = ParseKey(schema, text);
    auto c = ParseConstraint(schema, text);
    auto set = ParseConstraintSet(schema, text);
    // If a full constraint set parses, every piece must render/reparse.
    if (set.ok()) {
      for (const Constraint& parsed : set->All()) {
        auto again =
            ParseConstraint(schema, ConstraintToString(parsed, schema));
        ASSERT_OK(again.status()) << text;
      }
    }
  }
}

TEST(FuzzTest, CsvReaderNeverCrashes) {
  Rng rng(505);
  for (int i = 0; i < 2000; ++i) {
    std::string text = RandomText(&rng, 80);
    auto table = ReadCsvString(text);
    if (table.ok()) {
      // Whatever parsed must serialize and reparse to the same shape.
      auto again = ReadCsvString(WriteCsvString(*table));
      ASSERT_OK(again.status()) << text;
      EXPECT_EQ(again->num_rows(), table->num_rows());
      EXPECT_EQ(again->num_columns(), table->num_columns());
    }
  }
}

TEST(FuzzTest, DesignParserNeverCrashes) {
  Rng rng(606);
  for (int i = 0; i < 2000; ++i) {
    std::string text = "table t\nattrs a b c\n" + RandomText(&rng, 60);
    auto design = ParseDesign(text);
    if (design.ok()) {
      auto again = ParseDesign(FormatDesign(*design));
      ASSERT_OK(again.status()) << text;
    }
  }
}

TEST(FuzzTest, CsvRoundTripsRandomTables) {
  Rng rng(707);
  for (int trial = 0; trial < 100; ++trial) {
    int cols = 1 + static_cast<int>(rng.Uniform(0, 5));
    TableSchema schema =
        Schema(std::string("abcdef").substr(0, cols));
    Table t(schema);
    int rows = static_cast<int>(rng.Uniform(0, 12));
    for (int r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) {
        switch (rng.Uniform(0, 3)) {
          case 0:
            row.push_back(Value::Null());
            break;
          case 1:
            row.push_back(Value::Str(RandomText(&rng, 10)));
            break;
          default:
            row.push_back(Value::Str(std::to_string(rng.Uniform(0, 99))));
        }
      }
      ASSERT_OK(t.AddRow(Tuple(std::move(row))));
    }
    if (t.num_rows() == 0) continue;  // header-only CSV re-parses empty
    auto back = ReadCsvString(WriteCsvString(t));
    ASSERT_OK(back.status());
    ASSERT_EQ(back->num_rows(), t.num_rows());
    // Values round-trip as strings; ⊥ stays ⊥.
    for (int r = 0; r < t.num_rows(); ++r) {
      for (int c = 0; c < cols; ++c) {
        EXPECT_EQ(back->row(r)[c].is_null(), t.row(r)[c].is_null());
        if (!t.row(r)[c].is_null()) {
          EXPECT_EQ(back->row(r)[c].ToString(), t.row(r)[c].ToString());
        }
      }
    }
  }
}

// Any table the CSV reader accepts — including ones parsed from random
// garbage — must flow through the encoded validators without crashing,
// and their verdicts must match the all-pairs reference checker.
TEST(FuzzTest, CsvTablesThroughEncodedValidators) {
  Rng rng(808);
  int validated = 0;
  for (int i = 0; i < 2000; ++i) {
    auto table = ReadCsvString(RandomText(&rng, 80));
    if (!table.ok() || table->num_columns() == 0) continue;
    ++validated;
    const int n = table->num_columns();
    const EncodedTable enc(*table);
    for (int c = 0; c < 2; ++c) {
      FunctionalDependency fd;
      fd.lhs = testing::RandomSubset(&rng, n);
      fd.rhs = AttributeSet::Single(
          static_cast<AttributeId>(rng.Index(n)));
      KeyConstraint key;
      key.attrs = testing::RandomSubset(&rng, n, 0.5);
      if (key.attrs.empty()) key.attrs = fd.rhs;
      for (Mode mode : {Mode::kPossible, Mode::kCertain}) {
        fd.mode = mode;
        key.mode = mode;
        EXPECT_EQ(!FindFdViolationEncoded(enc, fd).has_value(),
                  Satisfies(*table, fd))
            << "iter=" << i;
        EXPECT_EQ(!FindKeyViolationEncoded(enc, key).has_value(),
                  Satisfies(*table, key))
            << "iter=" << i;
      }
    }
  }
  // The garbage alphabet parses often enough for this to bite.
  EXPECT_GT(validated, 50);
}

// One to four random edits of `seed`: a byte range deleted, a fragment
// from `fragments` inserted, a slice duplicated, or one byte replaced
// by any byte value.
std::string Mutate(Rng* rng, std::string text,
                   const std::vector<std::string_view>& fragments) {
  const int edits = static_cast<int>(rng->Uniform(1, 4));
  for (int e = 0; e < edits; ++e) {
    const size_t at = rng->Index(text.size() + 1);
    switch (rng->Uniform(0, 3)) {
      case 0:
        text.erase(at, static_cast<size_t>(rng->Uniform(1, 8)));
        break;
      case 1:
        text.insert(at, fragments[rng->Index(fragments.size())]);
        break;
      case 2:
        text.insert(at, text.substr(rng->Index(text.size() + 1),
                                    static_cast<size_t>(rng->Uniform(1, 16))));
        break;
      default:
        if (at < text.size()) {
          text[at] = static_cast<char>(rng->Uniform(0, 255));
        }
    }
  }
  return text;
}

// Calls every getter the service uses on every node of a parsed tree.
void Walk(const JsonValue& v, int* numbers) {
  if (v.is_number()) {
    ++*numbers;
    (void)v.int_value();  // defined for every double, even 1e300
    (void)v.double_value();
  }
  for (const JsonValue& item : v.items()) Walk(item, numbers);
  for (const auto& [key, member] : v.members()) {
    (void)v.GetInt(key, 0);
    (void)v.GetString(key);
    Walk(member, numbers);
  }
  (void)v.GetInt("max_rows", 0);
  (void)v.GetString("table");
}

// A random string of valid UTF-8 (1- to 4-byte sequences, no
// surrogates) mixed with control bytes, quotes and backslashes. Also
// writes into `*ascii_json` the string as a JSON literal that escapes
// everything outside printable ASCII as \uXXXX, with surrogate pairs
// above the BMP (what Python's json.dumps sends by default).
std::string RandomUtf8WithControls(Rng* rng, int max_chars,
                                   std::string* ascii_json) {
  std::string out;
  *ascii_json = "\"";
  const int n = static_cast<int>(rng->Uniform(0, max_chars));
  for (int i = 0; i < n; ++i) {
    uint32_t cp = 0;
    switch (rng->Index(7)) {
      case 0: cp = static_cast<uint32_t>(rng->Uniform(0x00, 0x1F)); break;
      case 1: cp = rng->Chance(0.5) ? '"' : '\\'; break;
      case 2: cp = static_cast<uint32_t>(rng->Uniform(0x20, 0x7F)); break;
      case 3: cp = static_cast<uint32_t>(rng->Uniform(0x80, 0x7FF)); break;
      case 4:
        do {
          cp = static_cast<uint32_t>(rng->Uniform(0x800, 0xFFFF));
        } while (cp >= 0xD800 && cp <= 0xDFFF);
        break;
      default:
        cp = static_cast<uint32_t>(rng->Uniform(0x10000, 0x10FFFF));
    }
    auto escape = [&](uint32_t unit) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "\\u%04X", unit);
      *ascii_json += buf;
    };
    if (cp >= 0x20 && cp < 0x7F && cp != '"' && cp != '\\') {
      ascii_json->push_back(static_cast<char>(cp));
    } else if (cp < 0x10000) {
      escape(cp);
    } else {
      escape(0xD800 + ((cp - 0x10000) >> 10));
      escape(0xDC00 + ((cp - 0x10000) & 0x3FF));
    }
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
  ascii_json->push_back('"');
  return out;
}

// Whatever JsonQuote writes, ParseJson reads back byte for byte, and
// the writer's keys and strings agree with it. The same string sent
// with every non-ASCII character escaped (surrogate pairs above the
// BMP) parses to the same UTF-8.
TEST(FuzzTest, JsonQuoteRoundTrips) {
  Rng rng(2718);
  for (int i = 0; i < 3000; ++i) {
    std::string ascii_json;
    const std::string s = RandomUtf8WithControls(&rng, 24, &ascii_json);
    const std::string quoted = JsonQuote(s);
    Result<JsonValue> v = ParseJson(quoted);
    ASSERT_OK(v.status()) << quoted;
    ASSERT_TRUE(v->is_string()) << quoted;
    ASSERT_EQ(v->str_value(), s) << quoted;
    v = ParseJson(ascii_json);
    ASSERT_OK(v.status()) << ascii_json;
    ASSERT_EQ(v->str_value(), s) << ascii_json;
    JsonWriter w;
    w.BeginObject();
    w.Key(s);
    w.String(s);
    w.EndObject();
    ASSERT_EQ(std::move(w).Take(), "{" + quoted + ":" + quoted + "}");
  }
}

// Mutated request bodies: every input ends in a value or a ParseError,
// and every getter is safe on whatever parsed. Under UBSan this covers
// the double-to-int conversion of out-of-range numbers.
TEST(FuzzTest, JsonBodiesNeverCrash) {
  const std::vector<std::string> seeds = {
      R"({"sql":"SELECT * FROM t WHERE a = 1;"})",
      R"({"table":"t","max_rows":4294967297})",
      R"({"table":"t","constraints":"a ->w b; c<k>","threads":2})",
      R"({"a":[1,2.5,-3e10,true,false,null,{"b":"\u00e9\n"}],"n":1e300})",
  };
  const std::vector<std::string_view> fragments = {
      "1e300", "-1e300", "1e999", "9223372036854775808", "-", "0.", "1e",
      "\\u12", "\\", "\"", "{", "}", "[", "]", ",", ":", "null", "tru",
      "\x01", "\xff", "{\"max_rows\":", "[[[[[[[["};
  Rng rng(909);
  int parsed = 0, numbers = 0;
  for (int i = 0; i < 6000; ++i) {
    const std::string text =
        Mutate(&rng, seeds[rng.Index(seeds.size())], fragments);
    Result<JsonValue> v = ParseJson(text);
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kParseError) << text;
      continue;
    }
    ++parsed;
    Walk(*v, &numbers);
  }
  // The edits leave enough documents intact for the getters to run.
  EXPECT_GT(parsed, 500);
  EXPECT_GT(numbers, 500);
}

// What a reader made of a byte stream: the requests it framed, in
// order, and where it stopped.
struct Framing {
  std::vector<std::string> requests;  // method, target and body
  HttpRequestReader::State state = HttpRequestReader::State::kNeedMore;
  int error_status = 0;
  bool operator==(const Framing&) const = default;
};

void PrintTo(const Framing& f, std::ostream* os) {
  *os << f.requests.size() << " request(s), state "
      << static_cast<int>(f.state) << ", status " << f.error_status;
}

// Feeds `bytes` cut at `cuts` (ascending offsets), consuming every
// request as it becomes ready.
Framing Frame(std::string_view bytes, const std::vector<size_t>& cuts,
              HttpReaderLimits limits) {
  HttpRequestReader reader(limits);
  Framing out;
  auto drain = [&](HttpRequestReader::State state) {
    while (state == HttpRequestReader::State::kReady) {
      const HttpRequest& r = reader.request();
      out.requests.push_back(r.method + " " + r.target + " " + r.body);
      state = reader.ConsumeRequest();
    }
    return state;
  };
  size_t at = 0;
  for (size_t cut : cuts) {
    out.state = drain(reader.Feed(bytes.substr(at, cut - at)));
    at = cut;
    if (out.state == HttpRequestReader::State::kError) break;
  }
  if (out.state != HttpRequestReader::State::kError) {
    out.state = drain(reader.Feed(bytes.substr(at)));
  }
  if (out.state == HttpRequestReader::State::kError) {
    out.error_status = reader.error_status();
  }
  return out;
}

// Mutated request streams, fed whole and at random chunk splits: each
// ends in framed requests, a wait for more bytes, or one of the
// reader's documented rejects, and the split never changes the
// outcome — framing must not depend on how recv() cut the stream. A
// reader with tiny limits also reaches the 413/431/too-many-headers
// rejects, under the same split invariance.
TEST(FuzzTest, HttpFramingNeverCrashes) {
  const std::vector<std::string> seeds = {
      "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\n\r\n"
      "{\"sql\":\"x\"}",
      "GET /health HTTP/1.1\r\n\r\nGET /health HTTP/1.0\r\n"
      "Connection: close\r\n\r\n",
      "POST /validate?x=1 HTTP/1.1\nContent-Length: 3\n\nabcPOST / "
      "HTTP/1.1\nContent-Length: 0\n\n",
      "POST /discover HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n",
  };
  const std::vector<std::string_view> fragments = {
      "\r\n", "\n", "\r\n\r\n", "\n\n", " ", ":", "Content-Length: ",
      "Content-Length: 99999999999999", "Content-Length: -1",
      "Connection: close", "HTTP/1.1", "HTTP/2", "GET", std::string_view("\0", 1), "\x80"};
  HttpReaderLimits tiny;
  tiny.max_head_bytes = 48;
  tiny.max_body_bytes = 8;
  tiny.max_headers = 2;
  auto documented = [](const Framing& f) {
    return f.state != HttpRequestReader::State::kError ||
           f.error_status == 400 || f.error_status == 413 ||
           f.error_status == 431 || f.error_status == 501;
  };
  Rng rng(1010);
  int framed = 0, rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes =
        Mutate(&rng, seeds[rng.Index(seeds.size())], fragments);
    std::vector<size_t> cuts;
    for (size_t at = 0; at < bytes.size(); at += 1 + rng.Index(12)) {
      cuts.push_back(at);
    }
    const Framing whole = Frame(bytes, {}, HttpReaderLimits{});
    EXPECT_TRUE(documented(whole)) << whole.error_status;
    EXPECT_EQ(Frame(bytes, cuts, HttpReaderLimits{}), whole) << bytes;
    const Framing tiny_whole = Frame(bytes, {}, tiny);
    EXPECT_TRUE(documented(tiny_whole)) << tiny_whole.error_status;
    EXPECT_EQ(Frame(bytes, cuts, tiny), tiny_whole) << bytes;
    framed += static_cast<int>(whole.requests.size());
    rejected += whole.state == HttpRequestReader::State::kError;
  }
  EXPECT_GT(framed, 1000);
  EXPECT_GT(rejected, 500);
}

}  // namespace
}  // namespace sqlnf
