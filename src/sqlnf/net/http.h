// HTTP/1.1 message framing for the service layer — parsing requests
// from a byte stream and serializing responses, with no sockets in
// sight (server.cc owns the I/O; this file is pure text processing and
// unit-testable without a network).
//
// The reader is incremental: feed it whatever recv() returned — one
// byte or a megabyte — and it reports kNeedMore until a full request
// (head + Content-Length body) has arrived. Hostile and malformed
// inputs turn into an HTTP status, never undefined behavior:
//
//   * request line not `METHOD SP target SP HTTP/1.x`      → 400
//   * header line without ':' / empty name / too many      → 400
//   * head larger than Limits::max_head_bytes              → 431
//   * body larger than Limits::max_body_bytes              → 413
//   * Content-Length not a plain decimal                   → 400
//   * Transfer-Encoding (chunked bodies are out of scope)  → 501
//
// Keep-alive: after ConsumeRequest() the reader retains any pipelined
// leftover bytes and is ready for the next request on the same
// connection.

#ifndef SQLNF_NET_HTTP_H_
#define SQLNF_NET_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

namespace sqlnf {

/// One parsed request. Header names are lower-cased; values have
/// surrounding whitespace stripped.
struct HttpRequest {
  std::string method;  // upper-case in practice, kept verbatim
  std::string target;  // as sent, e.g. "/query?x=1"
  std::string path;    // target up to the first '?'
  std::map<std::string, std::string> headers;
  std::string body;

  /// False when the client asked for `Connection: close`.
  bool keep_alive = true;
};

/// Status line + standard headers + body. `content_type` applies only
/// when `body` is non-empty.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  bool close = false;  // sets `Connection: close`
};

/// Reason phrase for the status codes this server emits ("OK",
/// "Bad Request", ...); "Unknown" for anything else.
std::string_view HttpReasonPhrase(int status);

/// Full wire form: status line, Content-Length, optional Content-Type
/// and Connection headers, CRLF CRLF, body.
std::string SerializeHttpResponse(const HttpResponse& response);

/// Parses a Content-Length value: 1 to 12 ASCII digits and nothing
/// else. False for any other text — the one check both the request
/// reader (400) and the client (IoError) apply.
bool ParseContentLength(std::string_view value, size_t* length);

/// Framing limits, enforced while parsing (before any handler runs).
struct HttpReaderLimits {
  size_t max_head_bytes = 16 * 1024;
  size_t max_body_bytes = 4 * 1024 * 1024;
  size_t max_headers = 64;
};

/// Incremental request parser over a byte stream.
class HttpRequestReader {
 public:
  using Limits = HttpReaderLimits;

  enum class State {
    kNeedMore,  // feed more bytes
    kReady,     // request() is complete; ConsumeRequest() to proceed
    kError,     // error_status()/error_message() describe the reject
  };

  explicit HttpRequestReader(Limits limits = {}) : limits_(limits) {}

  /// Appends bytes from the connection and advances the parse.
  /// Idempotent on kReady/kError (extra bytes are buffered untouched).
  State Feed(std::string_view bytes);

  State state() const { return state_; }

  /// Valid in kReady only.
  const HttpRequest& request() const { return request_; }

  /// Finishes the current request and re-arms for the next one on the
  /// same connection, reparsing any pipelined bytes already buffered.
  /// Valid in kReady only.
  State ConsumeRequest();

  /// Valid in kError only.
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

 private:
  State TryParse();
  State FailWith(int status, std::string message);

  Limits limits_;
  State state_ = State::kNeedMore;
  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ owned by the ready request
  HttpRequest request_;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace sqlnf

#endif  // SQLNF_NET_HTTP_H_
