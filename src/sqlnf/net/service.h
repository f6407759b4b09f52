// The sqlnf HTTP API: JSON endpoints over the session layer
// (engine/session.h). One SqlnfService fronts one SessionRegistry; the
// handler is thread-safe because each request gets its own Session and
// sessions synchronize through the registry by construction.
//
// Endpoints (all bodies JSON):
//
//   GET  /health
//     → {"ok":true,"tables":N,"cache_hits":N,"cache_misses":N}
//   POST /query      {"sql":"SELECT ..."}
//     → engine/result.h RenderJson: {"ok":..,["error":..,]"statements":[..]}
//   POST /validate   {"table":"t","constraints":"x ->w y; c<k>"}
//     → ValidationReport::RenderJson
//   POST /discover   {"table":"t"[,"max_rows":N]}
//     → DiscoveryReport::RenderJson
//   POST /normalize  {"table":"t"}
//     → NormalizationOutcome::RenderJson
//
// Discovery's pair sweep (/discover, /normalize) runs on the service's
// one thread count (`sqlnf serve --threads N`, clamped into [1, 16]),
// which /validate reports; a body field a handler does not read is
// ignored.
//
// Errors are machine-readable and uniform:
//   {"ok":false,"error":{"code":"NotFound","message":...,
//                        "statement_index":N,"byte_offset":N,
//                        "line":N,"column":N}}
// (position fields present only when known), with the HTTP status
// derived from the StatusCode — see HttpStatusFor.

#ifndef SQLNF_NET_SERVICE_H_
#define SQLNF_NET_SERVICE_H_

#include <string>

#include "sqlnf/engine/session.h"
#include "sqlnf/net/http.h"
#include "sqlnf/util/json.h"

namespace sqlnf {

/// HTTP status for an engine StatusCode (kParseError/kInvalidArgument
/// → 400, kNotFound → 404, kFailedPrecondition → 409, kOutOfRange →
/// 422, rest → 500).
int HttpStatusFor(StatusCode code);

/// `{"ok":false,"error":{...}}` for a failure, with whatever position
/// fields the detail carries.
std::string RenderErrorJson(const ErrorDetail& detail);

struct SqlnfServiceOptions {
  /// Threads for the discovery pair sweep; clamped into [1, 16].
  int threads = 1;
};

class SqlnfService {
 public:
  using Options = SqlnfServiceOptions;

  /// `registry` must outlive the service.
  explicit SqlnfService(SessionRegistry* registry, Options options = {});

  /// The HttpServer handler: safe to call from many threads at once.
  HttpResponse Handle(const HttpRequest& request);

 private:
  HttpResponse Health();
  HttpResponse Query(const JsonValue& body);
  HttpResponse Validate(const JsonValue& body);
  HttpResponse Discover(const JsonValue& body);
  HttpResponse Normalize(const JsonValue& body);

  SessionRegistry* registry_;
  // Every request's session runs with these options.
  SessionOptions session_options_;
};

}  // namespace sqlnf

#endif  // SQLNF_NET_SERVICE_H_
