#include "sqlnf/util/json.h"

#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace sqlnf {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Int(int64_t i) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::Double(double d) {
  JsonValue v;
  v.kind_ = Kind::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::Str(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

int64_t JsonValue::int_value() const {
  if (kind_ != Kind::kDouble) return int_;
  // Converting a double outside int64's range is undefined behaviour,
  // so out-of-range values saturate (and NaN reads as 0).
  constexpr double kTwo63 = 9223372036854775808.0;
  if (std::isnan(double_)) return 0;
  if (double_ >= kTwo63) return std::numeric_limits<int64_t>::max();
  if (double_ < -kTwo63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(double_);
}

double JsonValue::double_value() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  return double_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

Result<std::string> JsonValue::GetString(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) {
    return Status::Invalid("missing required field '" + key + "'");
  }
  if (!v->is_string()) {
    return Status::Invalid("field '" + key + "' must be a string");
  }
  return v->str_value();
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return v->int_value();
}

namespace {

constexpr int kMaxDepth = 64;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SQLNF_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Err("trailing characters after JSON document");
    }
    return v;
  }

 private:
  Status Err(const std::string& msg) const {
    return Status::ParseError("JSON: " + msg + " at offset " +
                              std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      SQLNF_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::Str(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue::Bool(true);
    if (ConsumeWord("false")) return JsonValue::Bool(false);
    if (ConsumeWord("null")) return JsonValue::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Err(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipSpace();
    if (Consume('}')) return JsonValue::Object(std::move(members));
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key string");
      }
      SQLNF_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Err("expected ':' after object key");
      SQLNF_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      members.insert_or_assign(std::move(key), std::move(v));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::Object(std::move(members));
      return Err("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipSpace();
    if (Consume(']')) return JsonValue::Array(std::move(items));
    while (true) {
      SQLNF_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      items.push_back(std::move(v));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::Array(std::move(items));
      return Err("expected ',' or ']' in array");
    }
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// The four hex digits of a \u escape, `pos_` just past the 'u'.
  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
    uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') {
        cp |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        cp |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        cp |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Err("invalid hex digit in \\u escape");
      }
    }
    return cp;
  }

  /// The code point of a \u escape, `pos_` just past the 'u'. A high
  /// surrogate must be followed by a \u low surrogate, and the pair is
  /// one code point outside the BMP; a lone or reversed surrogate is
  /// an error.
  Result<uint32_t> ParseUnicodeEscape() {
    SQLNF_ASSIGN_OR_RETURN(const uint32_t hi, ParseHex4());
    if (hi >= 0xDC00 && hi <= 0xDFFF) return Err("lone low surrogate");
    if (hi < 0xD800 || hi > 0xDBFF) return hi;
    if (text_.substr(pos_, 2) != "\\u") return Err("lone high surrogate");
    pos_ += 2;
    SQLNF_ASSIGN_OR_RETURN(const uint32_t lo, ParseHex4());
    if (lo < 0xDC00 || lo > 0xDFFF) {
      return Err("high surrogate without a low surrogate");
    }
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Err("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          SQLNF_ASSIGN_OR_RETURN(const uint32_t cp, ParseUnicodeEscape());
          AppendUtf8(cp, &out);
          break;
        }
        default:
          return Err(std::string("invalid escape '\\") + e + "'");
      }
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      // Accept the full grammar loosely; strtod validates below.
      while (pos_ < text_.size() &&
             (text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E' || text_[pos_] == '+' ||
              text_[pos_] == '-' ||
              (text_[pos_] >= '0' && text_[pos_] <= '9'))) {
        ++pos_;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") return Err("malformed number");
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == 0 && end != nullptr && *end == '\0') {
        return JsonValue::Int(static_cast<int64_t>(v));
      }
      // Out-of-range integers fall through to double.
    }
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Err("malformed number");
    return JsonValue::Double(d);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

namespace {

// Per byte, what JSON writes for it inside a string: 0 for the byte
// itself, 'u' for the \u00XX form, else the letter after the
// backslash. Bytes from 0x7F up, UTF-8 included, are written as they
// are.
constexpr std::array<char, 256> kEscape = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\b'] = 'b';
  table['\f'] = 'f';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  return table;
}();

// Appends `s` as a JSON string literal: each run of bytes that needs no
// escape is appended whole.
void AppendQuoted(std::string_view s, std::string* out) {
  out->push_back('"');
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char b = static_cast<unsigned char>(s[i]);
    const char e = kEscape[b];
    if (e == 0) continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (e == 'u') {
      constexpr char kHex[] = "0123456789abcdef";
      const char escaped[6] = {'\\', 'u', '0', '0', kHex[b >> 4],
                               kHex[b & 0xF]};
      out->append(escaped, sizeof(escaped));
    } else {
      const char escaped[2] = {'\\', e};
      out->append(escaped, sizeof(escaped));
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

}  // namespace

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendQuoted(s, &out);
  return out;
}

void JsonWriter::Separate() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  if (!wrote_value_.empty()) {
    if (wrote_value_.back()) out_.push_back(',');
    wrote_value_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_.push_back('{');
  wrote_value_.push_back(false);
}

void JsonWriter::EndObject() {
  out_.push_back('}');
  wrote_value_.pop_back();
}

void JsonWriter::BeginArray() {
  Separate();
  out_.push_back('[');
  wrote_value_.push_back(false);
}

void JsonWriter::EndArray() {
  out_.push_back(']');
  wrote_value_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  AppendQuoted(key, &out_);
  out_.push_back(':');
  key_pending_ = true;
}

void JsonWriter::String(std::string_view s) {
  Separate();
  AppendQuoted(s, &out_);
}

void JsonWriter::Int(int64_t v) {
  Separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void JsonWriter::Double(double v) {
  Separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
}

void JsonWriter::Bool(bool b) {
  Separate();
  out_ += b ? "true" : "false";
}

void JsonWriter::Null() {
  Separate();
  out_ += "null";
}

void JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
}

}  // namespace sqlnf
