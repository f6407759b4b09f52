#include "sqlnf/net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <utility>

#include "sqlnf/net/http.h"

namespace sqlnf {
namespace {

bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string AsciiLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

}  // namespace

Result<HttpConnection> HttpConnection::Open(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("socket() failed, errno=" +
                           std::to_string(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int connect_errno = errno;
    ::close(fd);
    return Status::IoError("connect(port=" + std::to_string(port) +
                           ") failed, errno=" +
                           std::to_string(connect_errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return HttpConnection(fd);
}

HttpConnection& HttpConnection::operator=(HttpConnection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

Result<HttpClientResponse> HttpConnection::Get(const std::string& path) {
  return RoundTrip("GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

Result<HttpClientResponse> HttpConnection::Post(const std::string& path,
                                                const std::string& body) {
  return RoundTrip("POST " + path +
                   " HTTP/1.1\r\nHost: localhost\r\n"
                   "Content-Type: application/json\r\n"
                   "Content-Length: " +
                   std::to_string(body.size()) + "\r\n\r\n" + body);
}

Result<HttpClientResponse> HttpConnection::RoundTrip(
    const std::string& raw_request) {
  if (fd_ < 0) return Status::FailedPrecondition("connection is closed");
  if (!SendAll(fd_, raw_request)) {
    return Status::IoError("send() failed, errno=" +
                           std::to_string(errno));
  }
  return ReadResponse();
}

Result<HttpClientResponse> HttpConnection::ReadResponse() {
  std::string buffer;
  char chunk[8192];
  size_t head_end = std::string::npos;
  while (head_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IoError("connection closed before response head");
    }
    buffer.append(chunk, static_cast<size_t>(n));
    head_end = buffer.find("\r\n\r\n");
  }
  const size_t body_start = head_end + 4;

  HttpClientResponse response;
  const size_t line_end = buffer.find("\r\n");
  const std::string status_line = buffer.substr(0, line_end);
  // "HTTP/1.1 200 OK" — the status code is the second token.
  const size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos || sp1 + 4 > status_line.size()) {
    return Status::ParseError("malformed status line: " + status_line);
  }
  response.status = 0;
  for (size_t i = sp1 + 1;
       i < status_line.size() &&
       std::isdigit(static_cast<unsigned char>(status_line[i])) != 0;
       ++i) {
    response.status = response.status * 10 + (status_line[i] - '0');
  }
  if (response.status < 100 || response.status > 599) {
    return Status::ParseError("malformed status code in: " + status_line);
  }

  size_t pos = line_end + 2;
  while (pos < head_end) {
    const size_t eol = buffer.find("\r\n", pos);
    const std::string line = buffer.substr(pos, eol - pos);
    pos = eol + 2;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = AsciiLower(line.substr(0, colon));
    size_t vbegin = colon + 1;
    while (vbegin < line.size() && line[vbegin] == ' ') ++vbegin;
    response.headers[std::move(name)] = line.substr(vbegin);
  }

  size_t content_length = 0;
  if (auto it = response.headers.find("content-length");
      it != response.headers.end() &&
      !ParseContentLength(it->second, &content_length)) {
    return Status::IoError("malformed content-length: " + it->second);
  }
  while (buffer.size() - body_start < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IoError("connection closed mid-body");
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }
  response.body = buffer.substr(body_start, content_length);
  return response;
}

}  // namespace sqlnf
