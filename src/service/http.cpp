#include "service/http.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "core/fault/error.hpp"
#include "core/fault/fault_injection.hpp"

namespace knl::service {

namespace {

// MSG_NOSIGNAL spares us a process-wide SIGPIPE handler; not all platforms
// define it (macOS uses SO_NOSIGPIPE), so degrade to 0 there.
#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return status >= 500 ? "Internal Server Error" : "Error";
  }
}

/// Write the whole buffer, riding out short sends. False on peer reset.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, kSendFlags);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

struct ParsedRequest {
  std::string method;
  std::string target;
  std::string body;
  bool keep_alive = true;
  /// X-Deadline-Ms header, forwarded into the service's budget resolution;
  /// 0 = header absent.
  double deadline_ms = 0.0;
};

/// Outcome of reading one request off the wire.
enum class ReadStatus {
  Ok,
  Closed,           ///< orderly close or idle keep-alive timeout: just drop
  Timeout,          ///< request started but stalled past read_deadline_ms: 408
  TooLargeBody,     ///< body over max_body_bytes: 413
  TooLargeHeaders,  ///< head over max_header_bytes: 413
  Malformed         ///< unparseable request line/headers/framing: 400
};

/// One request's wire-reading state: a recv wrapper that distinguishes the
/// idle gap between keep-alive requests (a benign close) from a client that
/// started a request and then trickled or stalled it (the slow-loris case,
/// answered 408). The wall clock starts at the request's first byte, so
/// one-byte-per-second clients cannot ride the per-recv SO_RCVTIMEO forever.
struct RequestReader {
  int fd;
  std::string& buffer;  ///< carries bytes pipelined past the previous request
  double read_deadline_ms;
  bool started = false;
  std::chrono::steady_clock::time_point start{};

  /// Pull more bytes; Ok means "progress", anything else ends the request.
  ReadStatus fill() {
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n == 0) {
        // Orderly close: benign between requests, a torn frame mid-request.
        return started ? ReadStatus::Malformed : ReadStatus::Closed;
      }
      if (n < 0) {
        // EAGAIN/EWOULDBLOCK = SO_RCVTIMEO fired: an idle keep-alive
        // connection before the first byte, a stalled client after it.
        return started ? ReadStatus::Timeout : ReadStatus::Closed;
      }
      if (!started) {
        started = true;
        start = std::chrono::steady_clock::now();
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      if (read_deadline_ms > 0.0) {
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - start;
        if (elapsed.count() > read_deadline_ms) return ReadStatus::Timeout;
      }
      return ReadStatus::Ok;
    }
  }

  /// Block until `buffer` holds at least `want` bytes.
  ReadStatus fill_until(std::size_t want) {
    while (buffer.size() < want) {
      const ReadStatus status = fill();
      if (status != ReadStatus::Ok) return status;
    }
    return ReadStatus::Ok;
  }
};

/// Decode a chunked body starting at buffer[pos]. On Ok, `out` holds the
/// reassembled body and `pos` points one past the final CRLF.
ReadStatus decode_chunked(RequestReader& reader, std::string& buffer,
                          std::size_t& pos, std::size_t max_body,
                          std::string& out) {
  for (;;) {
    // Size line: hex digits, optionally ";ext", terminated by CRLF.
    std::size_t eol;
    while ((eol = buffer.find("\r\n", pos)) == std::string::npos) {
      if (buffer.size() - pos > 64) return ReadStatus::Malformed;
      const ReadStatus status = reader.fill();
      if (status != ReadStatus::Ok) {
        return status == ReadStatus::Closed ? ReadStatus::Malformed : status;
      }
    }
    std::string size_line = buffer.substr(pos, eol - pos);
    const std::size_t semi = size_line.find(';');
    if (semi != std::string::npos) size_line.erase(semi);
    if (size_line.empty() ||
        size_line.find_first_not_of("0123456789abcdefABCDEF") != std::string::npos) {
      return ReadStatus::Malformed;
    }
    const std::size_t chunk_size =
        static_cast<std::size_t>(std::strtoull(size_line.c_str(), nullptr, 16));
    if (chunk_size > max_body || out.size() + chunk_size > max_body) {
      return ReadStatus::TooLargeBody;
    }
    pos = eol + 2;

    if (chunk_size == 0) {
      // Trailer section: zero or more header lines, then an empty line.
      for (;;) {
        std::size_t teol;
        while ((teol = buffer.find("\r\n", pos)) == std::string::npos) {
          const ReadStatus status = reader.fill();
          if (status != ReadStatus::Ok) {
            return status == ReadStatus::Closed ? ReadStatus::Malformed : status;
          }
        }
        const bool empty_line = teol == pos;
        pos = teol + 2;
        if (empty_line) return ReadStatus::Ok;
      }
    }

    const ReadStatus status = reader.fill_until(pos + chunk_size + 2);
    if (status != ReadStatus::Ok) return status;
    if (buffer[pos + chunk_size] != '\r' || buffer[pos + chunk_size + 1] != '\n') {
      return ReadStatus::Malformed;  // chunk data must end in CRLF
    }
    out.append(buffer, pos, chunk_size);
    pos += chunk_size + 2;
  }
}

/// Blocking read of one HTTP/1.1 request. `buffer` carries bytes pipelined
/// past the previous request on this connection.
ReadStatus read_request(int fd, std::string& buffer, const HttpServerOptions& options,
                        ParsedRequest& out) {
  RequestReader reader{fd, buffer, static_cast<double>(options.read_deadline_ms)};
  reader.started = !buffer.empty();  // pipelined bytes already start the clock
  if (reader.started) reader.start = std::chrono::steady_clock::now();

  std::size_t header_end = std::string::npos;
  while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    // Only unfinished heads are bounded here; once the blank line is in,
    // body bytes in the same buffer are the body limit's problem.
    if (buffer.size() > options.max_header_bytes) return ReadStatus::TooLargeHeaders;
    const ReadStatus status = reader.fill();
    if (status != ReadStatus::Ok) return status;
  }
  if (header_end > options.max_header_bytes) return ReadStatus::TooLargeHeaders;

  const std::string head = buffer.substr(0, header_end);
  // Binary garbage (the NUL-byte fuzz arm) is never a legal HTTP head.
  if (head.find('\0') != std::string::npos) return ReadStatus::Malformed;
  const std::size_t line_end = head.find("\r\n");
  const std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);

  // "METHOD SP TARGET SP HTTP/x.y"
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return ReadStatus::Malformed;
  out.method = request_line.substr(0, sp1);
  out.target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (out.method.empty() || out.target.empty() || out.target[0] != '/') {
    return ReadStatus::Malformed;
  }

  // Headers we care about: Content-Length, Transfer-Encoding, Connection
  // and the deadline the client propagates.
  std::size_t content_length = 0;
  bool chunked = false;
  out.keep_alive = true;
  out.deadline_ms = 0.0;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    const std::string_view line(head.data() + pos, eol - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos) {
      std::string_view name = line.substr(0, colon);
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
        value.remove_prefix(1);
      }
      if (iequals(name, "content-length")) {
        content_length = 0;
        if (value.empty()) return ReadStatus::Malformed;
        for (const char c : value) {
          if (c < '0' || c > '9') return ReadStatus::Malformed;
          content_length = content_length * 10 + static_cast<std::size_t>(c - '0');
          if (content_length > options.max_body_bytes) return ReadStatus::TooLargeBody;
        }
      } else if (iequals(name, "transfer-encoding")) {
        if (!iequals(value, "chunked")) return ReadStatus::Malformed;
        chunked = true;
      } else if (iequals(name, "connection") && iequals(value, "close")) {
        out.keep_alive = false;
      } else if (iequals(name, "x-deadline-ms")) {
        const std::string text(value);
        char* end = nullptr;
        const double parsed = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !(parsed > 0.0)) {
          return ReadStatus::Malformed;
        }
        out.deadline_ms = parsed;
      }
    }
    pos = eol + 2;
  }

  std::size_t body_start = header_end + 4;
  if (chunked) {
    std::string body;
    const ReadStatus status =
        decode_chunked(reader, buffer, body_start, options.max_body_bytes, body);
    if (status != ReadStatus::Ok) return status;
    out.body = std::move(body);
    buffer.erase(0, body_start);  // keep pipelined bytes
    return ReadStatus::Ok;
  }

  {
    const ReadStatus status = reader.fill_until(body_start + content_length);
    if (status != ReadStatus::Ok) return status;
  }
  out.body = buffer.substr(body_start, content_length);
  buffer.erase(0, body_start + content_length);  // keep pipelined bytes
  return ReadStatus::Ok;
}

std::string render_response(int status, const std::string& body, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    reason_phrase(status) + "\r\n";
  out += "Content-Type: application/json\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

std::string error_body(int status, const std::string& category,
                       const std::string& code, const std::string& msg) {
  repro::json::Value detail = repro::json::Value::object();
  detail.set("status", status);
  detail.set("category", category);
  detail.set("code", code);
  detail.set("message", msg);
  repro::json::Value envelope = repro::json::Value::object();
  envelope.set("error", std::move(detail));
  return envelope.dump(0);
}

}  // namespace

HttpServer::HttpServer(PlacementService& service, HttpServerOptions options)
    : service_(service), options_(options) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error::resource("http/socket", std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error::resource("http/bind",
                          "cannot bind 127.0.0.1:" + std::to_string(options_.port) +
                              ": " + why);
  }
  if (::listen(listen_fd_, SOMAXCONN) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error::resource("http/listen", why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (running_.exchange(true)) return;
  const int threads = options_.threads < 1 ? 1 : options_.threads;
  workers_.reserve(static_cast<std::size_t>(threads));
  // Each loop gets its own copy of the fd: stop() must not race the loops
  // on listen_fd_.
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, listen_fd = listen_fd_] { accept_loop(listen_fd); });
  }
}

void HttpServer::stop() {
  if (running_.exchange(false)) {
    // Unblock every accept(): shutdown makes pending accepts fail and the
    // loops see running_ == false and exit. The fd stays open until they
    // have joined, so no loop can accept() on a recycled fd number.
    ::shutdown(listen_fd_, SHUT_RDWR);
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
    workers_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void HttpServer::accept_loop(int listen_fd) {
  while (running_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket shut down by stop()
    }
    serve_connection(fd, connections_.fetch_add(1, std::memory_order_relaxed));
    ::close(fd);
  }
}

void HttpServer::serve_connection(int fd, std::uint64_t conn_id) {
  // Server-side socket chaos, keyed on the connection ordinal so a plan
  // can target exactly connection N: http-read drops the connection before
  // a byte is read (a peer reset from the client's point of view).
  if (fault::fires(fault::kSiteHttpRead, conn_id)) return;

  // Keep-alive idle timeout: a silent connection past the deadline makes
  // recv fail with EAGAIN, which read_request reports as an orderly close.
  timeval tv{};
  tv.tv_sec = options_.idle_timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((options_.idle_timeout_ms % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::string buffer;
  while (running_.load(std::memory_order_relaxed)) {
    ParsedRequest request;
    const ReadStatus status = read_request(fd, buffer, options_, request);
    if (status == ReadStatus::Closed) return;
    if (status != ReadStatus::Ok) {
      // Every wire-level rejection is a well-formed taxonomy envelope, so
      // chaos clients never have to parse a bare reset.
      int code = 400;
      const char* category = "corrupt-input";
      const char* slug = "http/malformed";
      const char* message = "cannot parse the HTTP request";
      switch (status) {
        case ReadStatus::Timeout:
          code = 408;
          category = "resource";
          slug = "http/slow-client";
          message = "request not completed within the read deadline";
          break;
        case ReadStatus::TooLargeBody:
          code = 413;
          category = "corrupt-input";
          slug = "http/body-too-large";
          message = "request body exceeds the configured limit";
          break;
        case ReadStatus::TooLargeHeaders:
          code = 413;
          category = "corrupt-input";
          slug = "http/header-too-large";
          message = "request headers exceed the configured limit";
          break;
        default:
          break;
      }
      send_all(fd, render_response(code, error_body(code, category, slug, message),
                                   false));
      return;
    }

    const ServiceResponse response = service_.handle_text(
        request.method, request.target, request.body, request.deadline_ms);
    // Compact body: one line per response keeps the bench replay parseable.
    std::string rendered = render_response(response.status, response.body.dump(0),
                                           request.keep_alive);
    // http-write chaos: tear the response mid-frame — the client sees a
    // Content-Length promise the wire never honours.
    if (fault::fires(fault::kSiteHttpWrite, conn_id)) {
      send_all(fd, rendered.substr(0, rendered.size() / 2));
      return;
    }
    if (!send_all(fd, rendered)) return;
    if (!request.keep_alive) return;
  }
}

}  // namespace knl::service
