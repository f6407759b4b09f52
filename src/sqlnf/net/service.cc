#include "sqlnf/net/service.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace sqlnf {
namespace {

HttpResponse JsonOk(std::string body) {
  HttpResponse r;
  r.body = std::move(body);
  return r;
}

HttpResponse JsonError(int http_status, const ErrorDetail& detail) {
  HttpResponse r;
  r.status = http_status;
  r.body = RenderErrorJson(detail);
  return r;
}

HttpResponse StatusError(const Status& status) {
  ErrorDetail detail;
  detail.code = status.code();
  detail.message = status.message();
  return JsonError(HttpStatusFor(status.code()), detail);
}

HttpResponse SimpleError(int http_status, StatusCode code,
                         std::string message) {
  ErrorDetail detail;
  detail.code = code;
  detail.message = std::move(message);
  return JsonError(http_status, detail);
}

}  // namespace

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kOutOfRange:
      return 422;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

std::string RenderErrorJson(const ErrorDetail& detail) {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(false);
  w.Key("error");
  w.BeginObject();
  w.Key("code");
  w.String(StatusCodeToString(detail.code));
  w.Key("message");
  w.String(detail.message);
  if (detail.statement_index >= 0) {
    w.Key("statement_index");
    w.Int(detail.statement_index);
  }
  if (detail.byte_offset >= 0) {
    w.Key("byte_offset");
    w.Int(detail.byte_offset);
  }
  if (detail.line > 0) {
    w.Key("line");
    w.Int(detail.line);
    w.Key("column");
    w.Int(detail.column);
  }
  w.EndObject();
  w.EndObject();
  return std::move(w).Take();
}

SqlnfService::SqlnfService(SessionRegistry* registry, Options options)
    : registry_(registry) {
  // A bound on the threads one request may start, whatever the
  // command line says.
  session_options_.threads = std::clamp(options.threads, 1, 16);
}

HttpResponse SqlnfService::Handle(const HttpRequest& request) {
  if (request.path == "/health") {
    if (request.method != "GET") {
      return SimpleError(405, StatusCode::kInvalidArgument,
                         "/health is GET only");
    }
    return Health();
  }

  const bool known_post =
      request.path == "/query" || request.path == "/validate" ||
      request.path == "/discover" || request.path == "/normalize";
  if (!known_post) {
    return SimpleError(404, StatusCode::kNotFound,
                       "no such endpoint: " + request.path);
  }
  if (request.method != "POST") {
    return SimpleError(405, StatusCode::kInvalidArgument,
                       request.path + " is POST only");
  }
  Result<JsonValue> body = ParseJson(request.body);
  if (!body.ok()) {
    return SimpleError(400, StatusCode::kParseError,
                       "request body is not valid JSON: " +
                           body.status().message());
  }
  if (!body->is_object()) {
    return SimpleError(400, StatusCode::kInvalidArgument,
                       "request body must be a JSON object");
  }
  if (request.path == "/query") return Query(*body);
  if (request.path == "/validate") return Validate(*body);
  if (request.path == "/discover") return Discover(*body);
  return Normalize(*body);
}

HttpResponse SqlnfService::Health() {
  JsonWriter w;
  w.BeginObject();
  w.Key("ok");
  w.Bool(true);
  w.Key("tables");
  // TableNames, not SnapshotAll: publishing epochs here would make the
  // next write to every table written since the last read clone the
  // columns it touches.
  w.Int(static_cast<int64_t>(registry_->db()->TableNames().size()));
  w.Key("cache_hits");
  w.Int(registry_->cache_hits());
  w.Key("cache_misses");
  w.Int(registry_->cache_misses());
  w.EndObject();
  return JsonOk(std::move(w).Take());
}

HttpResponse SqlnfService::Query(const JsonValue& body) {
  Result<std::string> sql = body.GetString("sql");
  if (!sql.ok()) return StatusError(sql.status());
  Session session(registry_, session_options_);
  const ResultSet rs = session.Execute(*sql);
  HttpResponse r;
  r.status = rs.ok() ? 200 : HttpStatusFor(rs.status.code());
  r.body = RenderJson(rs);
  return r;
}

HttpResponse SqlnfService::Validate(const JsonValue& body) {
  Result<std::string> table = body.GetString("table");
  if (!table.ok()) return StatusError(table.status());
  Result<std::string> constraints = body.GetString("constraints");
  if (!constraints.ok()) return StatusError(constraints.status());
  Session session(registry_, session_options_);
  Result<ValidationReport> report = session.Validate(*table, *constraints);
  if (!report.ok()) return StatusError(report.status());
  return JsonOk(report->RenderJson());
}

HttpResponse SqlnfService::Discover(const JsonValue& body) {
  Result<std::string> table = body.GetString("table");
  if (!table.ok()) return StatusError(table.status());
  // An absent or non-positive max_rows keeps the default cap; any other
  // value must fit the int the sweep takes, never be narrowed into it.
  int max_rows = 0;
  if (const JsonValue* v = body.Find("max_rows"); v != nullptr) {
    if (!v->is_int() || v->int_value() > std::numeric_limits<int>::max()) {
      return StatusError(Status::Invalid(
          "field 'max_rows' must be an integer no larger than 2147483647"));
    }
    max_rows = static_cast<int>(std::max<int64_t>(v->int_value(), 0));
  }
  Session session(registry_, session_options_);
  Result<DiscoveryReport> report = session.Discover(*table, max_rows);
  if (!report.ok()) return StatusError(report.status());
  return JsonOk(report->RenderJson());
}

HttpResponse SqlnfService::Normalize(const JsonValue& body) {
  Result<std::string> table = body.GetString("table");
  if (!table.ok()) return StatusError(table.status());
  Session session(registry_, session_options_);
  Result<NormalizationOutcome> outcome = session.Normalize(*table);
  if (!outcome.ok()) return StatusError(outcome.status());
  return JsonOk(outcome->RenderJson());
}

}  // namespace sqlnf
