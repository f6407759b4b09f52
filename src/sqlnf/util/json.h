// Minimal JSON reading/writing for the service layer (net/) and the
// machine-readable bench outputs.
//
// The wire format of `sqlnf serve` is JSON on both sides: request
// bodies are parsed with ParseJson into a JsonValue tree, responses are
// composed with JsonWriter. The dialect is standard RFC 8259 minus two
// deliberate simplifications on the READ side: numbers are held as
// int64 when they parse exactly as integers (the engine's only numeric
// type) and as double otherwise, and \u escapes outside the BMP are
// not combined into surrogate pairs (each escape decodes to its own
// code point). The WRITE side emits only what the engine produces:
// null, int64, doubles (%.17g), and UTF-8 strings with the mandatory
// control/quote/backslash escapes.
//
// No third-party dependency, no iostreams, no locale sensitivity.

#ifndef SQLNF_UTIL_JSON_H_
#define SQLNF_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sqlnf/util/status.h"

namespace sqlnf {

/// One node of a parsed JSON document. Regular value type; objects and
/// arrays own their children.
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kInt, kDouble, kString,
                              kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Int(int64_t v);
  static JsonValue Double(double v);
  static JsonValue Str(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  int64_t int_value() const;     // kInt, or kDouble truncated and
                                 // saturated into int64's range
  double double_value() const;   // any numeric kind
  const std::string& str_value() const { return str_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::map<std::string, JsonValue>& members() const {
    return members_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Required string member of an object.
  Result<std::string> GetString(const std::string& key) const;

  /// Optional int member with a default (also accepts integral doubles).
  int64_t GetInt(const std::string& key, int64_t fallback) const;

 private:
  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing
/// garbage is a ParseError). Depth is bounded to keep hostile inputs
/// from overflowing the stack.
Result<JsonValue> ParseJson(std::string_view text);

/// `s` as a JSON string literal, quotes included.
std::string JsonQuote(std::string_view s);

/// Incremental JSON composer with automatic comma placement.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("ok"); w.Bool(true);
///   w.Key("rows"); w.BeginArray(); w.Int(1); w.Int(2); w.EndArray();
///   w.EndObject();
///   std::string body = std::move(w).Take();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(std::string_view key);
  void String(std::string_view s);
  void Int(int64_t v);
  void Double(double v);
  void Bool(bool b);
  void Null();
  /// Appends pre-rendered JSON verbatim (caller guarantees validity).
  void Raw(std::string_view json);

  const std::string& str() const& { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  void Separate();

  std::string out_;
  // One entry per open container: whether a value has been emitted at
  // this level (controls comma placement). `key_pending_` suppresses
  // the separator for the value following a Key().
  std::vector<bool> wrote_value_;
  bool key_pending_ = false;
};

}  // namespace sqlnf

#endif  // SQLNF_UTIL_JSON_H_
