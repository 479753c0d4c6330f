// Open-loop HTTP load over loopback: one generator thread sends GET
// requests on a Poisson schedule, one connection per request (the server
// answers `Connection: close`), with at most `max_connections` open at
// once. A request whose due time passes while every connection is busy
// waits in the generator, and its latency is timed from when it was due,
// so a stall in the server shows up in every request it delays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Outcome of one request. Times are ns after the run's start.
struct HttpResult {
  enum class Fail : std::uint8_t { None, Refused, Timeout, Non200, Io };
  std::uint64_t due_ns = 0;
  std::uint64_t start_ns = 0;       ///< socket opened (>= due_ns)
  std::uint64_t connected_ns = 0;   ///< TCP handshake completed
  std::uint64_t first_byte_ns = 0;  ///< first response byte read
  std::uint64_t done_ns = 0;        ///< response complete (peer closed)
  int status = 0;
  Fail fail = Fail::None;
  std::string body;  ///< response body (after the header block)

  /// Open-loop latency: completion minus the due time.
  [[nodiscard]] std::uint64_t latency_ns() const { return done_ns - due_ns; }
  /// How late the generator opened the request.
  [[nodiscard]] std::uint64_t lag_ns() const { return start_ns - due_ns; }
};

struct OpenLoopConfig {
  std::uint16_t port = 0;
  double rate = 1000;  ///< offered requests per second
  std::size_t count = 1000;
  std::uint64_t seed = 1;
  unsigned max_connections = 2;
  double timeout_s = 2.0;  ///< per request, from the socket's opening
};

/// Runs the schedule to completion and returns one result per request, in
/// schedule order. `path(i)` is the request target of request i
/// ("/query?s=1&t=2"). `max_outstanding` receives the most connections
/// that were open at once.
std::vector<HttpResult> run_open_loop(
    const OpenLoopConfig& config,
    const std::function<std::string(std::size_t)>& path,
    unsigned* max_outstanding = nullptr);

/// One blocking GET on 127.0.0.1:port (probes and scrapes, never timed).
/// Returns the status (0 on a connection failure) and fills `body`.
int http_get(std::uint16_t port, const std::string& path, std::string* body,
             double timeout_s = 2.0);

}  // namespace perfbench
