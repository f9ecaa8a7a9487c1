// Blocking-socket HTTP/1.1 front end for PlacementService — dependency-free
// (POSIX sockets only), deliberately minimal: enough protocol to serve the
// JSON endpoints to curl, the bench harness and the e2e tests.
//
// Concurrency model: a fixed pool of acceptor threads shares the listening
// socket; each thread accepts a connection and serves it to completion
// (keep-alive: many requests per connection, closed after `idle_timeout_ms`
// of silence or a `Connection: close`). Queries execute on these threads,
// but only while they hold one of PlacementService's `workers` query
// slots — so the socket pool size bounds concurrent *connections*, the
// slots bound concurrent *computations*.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace knl::service {

struct HttpServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 = ephemeral (read the choice back
  /// with port() — the tests and bench use this to avoid collisions).
  std::uint16_t port = 0;
  /// Acceptor threads sharing the listening socket.
  int threads = 8;
  /// Keep-alive idle timeout per connection, milliseconds.
  int idle_timeout_ms = 5000;
  /// Largest accepted request body; larger requests are rejected with 413
  /// (http/body-too-large) before any buffering past the bound.
  std::size_t max_body_bytes = 1u << 20;
  /// Largest accepted request head (request line + headers); past it the
  /// connection gets 413 (http/header-too-large) and is closed.
  std::size_t max_header_bytes = 8u << 10;
  /// Slow-loris guard: once a request's first byte arrives, the whole
  /// request must land within this budget or the client gets 408
  /// (http/slow-client) and the connection is closed. Distinct from
  /// idle_timeout_ms, which only times out the quiet gap *between*
  /// requests on a keep-alive connection.
  int read_deadline_ms = 10000;
};

class HttpServer {
 public:
  /// Binds and listens immediately (throws knl::Error Resource on failure);
  /// serving threads start on start().
  HttpServer(PlacementService& service, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Spawn the acceptor threads. Idempotent.
  void start();
  /// Stop accepting, join every acceptor, then close the listening socket.
  /// In-flight requests finish; idle keep-alive connections are dropped.
  void stop();

  /// The bound port (the ephemeral choice when options.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  void accept_loop(int listen_fd);
  void serve_connection(int fd, std::uint64_t conn_id);

  PlacementService& service_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  /// Monotonic connection ordinal — the key the http-read / http-write
  /// fault-injection sites select on, so a plan can target "connection 7"
  /// deterministically.
  std::atomic<std::uint64_t> connections_{0};
  std::vector<std::thread> workers_;
};

}  // namespace knl::service
