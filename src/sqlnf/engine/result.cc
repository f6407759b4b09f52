#include "sqlnf/engine/result.h"

#include <cassert>
#include <utility>

#include "sqlnf/core/value.h"
#include "sqlnf/util/json.h"

namespace sqlnf {

ResultRows::ResultRows(TableSchema schema, EncodedTable columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  assert(columns_.num_columns() == schema_.num_attributes());
}

ResultRows::ResultRows(const Table& table)
    : schema_(table.schema()), columns_(table) {}

Tuple ResultRows::row(int i) const {
  std::vector<Value> values;
  values.reserve(num_columns());
  for (AttributeId c = 0; c < num_columns(); ++c) {
    values.push_back(cell(i, c));
  }
  return Tuple(std::move(values));
}

Table ResultRows::ToTable() const { return columns_.Decode(schema_); }

std::string ResultRows::ToString() const { return ToTable().ToString(); }

std::string QueryResult::ToString() const {
  std::string out = message;
  if (rows.has_value()) {
    if (!out.empty()) out += "\n";
    out += rows->ToString();
  }
  return out;
}

std::string ErrorDetail::ToString() const {
  std::string out = StatusCodeToString(code);
  out += ": ";
  out += message;
  std::string loc;
  if (statement_index >= 0) {
    loc += "statement " + std::to_string(statement_index + 1);
  }
  if (line > 0) {
    if (!loc.empty()) loc += ", ";
    loc += "line " + std::to_string(line) + ":" + std::to_string(column);
  }
  if (!loc.empty()) out += " (" + loc + ")";
  return out;
}

ErrorDetail MakeErrorDetail(const Status& status, std::string_view script,
                            int statement_index, int byte_offset) {
  ErrorDetail d;
  d.code = status.code();
  d.message = status.message();
  d.statement_index = statement_index;
  d.byte_offset = byte_offset;
  if (byte_offset >= 0 &&
      static_cast<size_t>(byte_offset) <= script.size()) {
    d.line = 1;
    d.column = 1;
    for (int i = 0; i < byte_offset; ++i) {
      if (script[i] == '\n') {
        ++d.line;
        d.column = 1;
      } else {
        ++d.column;
      }
    }
  }
  return d;
}

namespace {

void WriteCell(const Value& v, JsonWriter* w) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      w->Null();
      break;
    case Value::Kind::kInt:
      w->Int(v.int_value());
      break;
    case Value::Kind::kString:
      w->String(v.str_value());
      break;
  }
}

void WriteStatement(const QueryResult& r, JsonWriter* w) {
  w->BeginObject();
  w->Key("message");
  w->String(r.message);
  w->Key("affected");
  w->Int(r.affected);
  if (r.rows.has_value()) {
    const ResultRows& t = *r.rows;
    w->Key("rows");
    w->BeginObject();
    w->Key("columns");
    w->BeginArray();
    for (AttributeId c = 0; c < t.num_columns(); ++c) {
      w->String(t.schema().attribute_name(c));
    }
    w->EndArray();
    w->Key("data");
    w->BeginArray();
    for (int i = 0; i < t.num_rows(); ++i) {
      w->BeginArray();
      for (AttributeId c = 0; c < t.num_columns(); ++c) {
        WriteCell(t.cell(i, c), w);
      }
      w->EndArray();
    }
    w->EndArray();
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace

std::string RenderJson(const ResultSet& rs) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(rs.ok());
  if (!rs.ok()) {
    w.Key("error");
    w.BeginObject();
    w.Key("code");
    w.String(StatusCodeToString(rs.error.code));
    w.Key("message");
    w.String(rs.error.message);
    w.Key("statement_index");
    w.Int(rs.error.statement_index);
    w.Key("byte_offset");
    w.Int(rs.error.byte_offset);
    w.Key("line");
    w.Int(rs.error.line);
    w.Key("column");
    w.Int(rs.error.column);
    w.EndObject();
  }
  w.Key("statements");
  w.BeginArray();
  for (const QueryResult& r : rs.statements) WriteStatement(r, &w);
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace sqlnf
