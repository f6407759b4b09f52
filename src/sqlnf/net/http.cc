#include "sqlnf/net/http.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace sqlnf {
namespace {

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view StripSpaces(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// One header/request line: `text` up to (excluding) the line break,
/// tolerating both CRLF and bare LF. Returns false when no full line
/// is buffered yet.
bool NextLine(std::string_view head, size_t* pos, std::string_view* line) {
  const size_t nl = head.find('\n', *pos);
  if (nl == std::string_view::npos) return false;
  size_t end = nl;
  if (end > *pos && head[end - 1] == '\r') --end;
  *line = head.substr(*pos, end - *pos);
  *pos = nl + 1;
  return true;
}

}  // namespace

bool ParseContentLength(std::string_view value, size_t* length) {
  if (value.empty() || value.size() > 12 ||
      !std::all_of(value.begin(), value.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    return false;
  }
  *length = 0;
  for (const char c : value) *length = *length * 10 + (c - '0');
  return true;
}

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += HttpReasonPhrase(response.status);
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  if (!response.body.empty()) {
    out += "\r\nContent-Type: " + response.content_type;
  }
  if (response.close) out += "\r\nConnection: close";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

HttpRequestReader::State HttpRequestReader::FailWith(int status,
                                                     std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  return state_;
}

HttpRequestReader::State HttpRequestReader::Feed(std::string_view bytes) {
  if (state_ == State::kReady || state_ == State::kError) {
    buffer_.append(bytes);  // pipelined bytes wait for ConsumeRequest
    return state_;
  }
  buffer_.append(bytes);
  return TryParse();
}

HttpRequestReader::State HttpRequestReader::ConsumeRequest() {
  buffer_.erase(0, consumed_);
  consumed_ = 0;
  request_ = HttpRequest();
  state_ = State::kNeedMore;
  return TryParse();
}

HttpRequestReader::State HttpRequestReader::TryParse() {
  // Head = everything through the blank line. Tolerate LF-only framing
  // (telnet-style hand testing) alongside the canonical CRLF CRLF. The
  // head ends at whichever terminator is complete first, so where it
  // ends does not depend on how the bytes were split across feeds.
  // The LF LF search stops where the CRLF CRLF ends, so a large body
  // arriving in many feeds is not rescanned on each.
  size_t head_end = buffer_.find("\r\n\r\n");
  size_t body_start =
      head_end == std::string::npos ? std::string::npos : head_end + 4;
  const size_t lf_end =
      std::string_view(buffer_).substr(0, body_start).find("\n\n");
  if (lf_end != std::string_view::npos) {
    head_end = lf_end;
    body_start = lf_end + 2;
  }
  if (head_end == std::string::npos) {
    // A terminator still to come may start in the last 3 bytes, so only
    // a buffer longer than the limit plus 3 is known to be oversized.
    if (buffer_.size() > limits_.max_head_bytes + 3) {
      return FailWith(431, "request head exceeds " +
                               std::to_string(limits_.max_head_bytes) +
                               " bytes");
    }
    return state_;  // kNeedMore
  }
  if (head_end > limits_.max_head_bytes) {
    return FailWith(431, "request head exceeds " +
                             std::to_string(limits_.max_head_bytes) +
                             " bytes");
  }

  const std::string_view head(buffer_.data(), body_start);
  size_t pos = 0;
  std::string_view line;
  if (!NextLine(head, &pos, &line) || line.empty()) {
    return FailWith(400, "empty request line");
  }

  // METHOD SP target SP HTTP/1.x — exactly three space-separated parts.
  const size_t sp1 = line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp1 == 0 || sp2 == sp1 + 1 ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return FailWith(400, "malformed request line");
  }
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return FailWith(400, "unsupported protocol version");
  }
  HttpRequest req;
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  req.path = req.target.substr(0, req.target.find('?'));
  req.keep_alive = version == "HTTP/1.1";

  size_t header_count = 0;
  while (NextLine(head, &pos, &line)) {
    if (line.empty()) break;
    if (++header_count > limits_.max_headers) {
      return FailWith(400, "too many header fields");
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return FailWith(400, "malformed header line");
    }
    std::string name = AsciiLower(StripSpaces(line.substr(0, colon)));
    if (name.find(' ') != std::string::npos ||
        name.find('\t') != std::string::npos) {
      return FailWith(400, "whitespace in header name");
    }
    req.headers[std::move(name)] =
        std::string(StripSpaces(line.substr(colon + 1)));
  }

  if (req.headers.count("transfer-encoding") > 0) {
    return FailWith(501, "transfer-encoding is not supported");
  }

  size_t content_length = 0;
  if (auto it = req.headers.find("content-length");
      it != req.headers.end()) {
    if (!ParseContentLength(it->second, &content_length)) {
      return FailWith(400, "malformed content-length");
    }
    if (content_length > limits_.max_body_bytes) {
      return FailWith(413, "request body exceeds " +
                               std::to_string(limits_.max_body_bytes) +
                               " bytes");
    }
  }

  if (auto it = req.headers.find("connection"); it != req.headers.end()) {
    const std::string token = AsciiLower(it->second);
    if (token == "close") req.keep_alive = false;
    if (token == "keep-alive") req.keep_alive = true;
  }

  if (buffer_.size() - body_start < content_length) {
    return state_;  // kNeedMore: body still in flight
  }
  req.body = buffer_.substr(body_start, content_length);
  consumed_ = body_start + content_length;
  request_ = std::move(req);
  state_ = State::kReady;
  return state_;
}

}  // namespace sqlnf
