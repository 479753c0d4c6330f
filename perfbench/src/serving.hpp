// Serving harness shared by the serving workloads and the traced sweep:
// the closed in-process loop over OracleServer::query and the loopback
// HTTP front end (StatsServer + /query routes) with its readiness probe.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "http_load.hpp"
#include "serve/oracle_server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Route class of a query pair, decided with EarApspEngine::route outside
/// any timed call.
enum class PairClass : std::uint8_t { SameBlock, CrossBlock, Other };

struct ClosedLoopResult {
  std::uint64_t queries = 0;
  double wall_s = 0;
  /// Latency (ns) of every 16th call, split by PairClass.
  std::vector<std::uint32_t> latency_ns[3];
  /// Every 4096th answer of every caller, for the Dijkstra check.
  std::vector<Answer> samples;
  std::uint64_t exceptions = 0;

  [[nodiscard]] double qps() const {
    return wall_s > 0 ? static_cast<double>(queries) / wall_s : 0;
  }
};

/// `callers` threads each call server.query on uniform random pairs for
/// `seconds`, timing every call and keeping every 16th latency. With
/// `traced`, each query runs under its own obs::QueryTrace (one id per
/// query) with a benchmark-side root span.
ClosedLoopResult closed_loop(const serve::OracleServer& server,
                             unsigned callers, std::uint64_t seed,
                             double seconds, bool traced);

/// An OracleServer answering GET /query on an ephemeral loopback port.
/// Construction returns only after a /query probe answered 200, so no
/// timing starts while the port accepts but cannot answer yet.
class HttpServing {
 public:
  HttpServing(graph::Graph g, const core::ApspOptions& build);
  ~HttpServing();
  HttpServing(const HttpServing&) = delete;
  HttpServing& operator=(const HttpServing&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const serve::OracleServer& server() const { return *server_; }

 private:
  std::unique_ptr<serve::OracleServer> server_;
  std::uint16_t port_ = 0;
};

/// One open-loop run of GET /query on uniform random pairs.
struct HttpRun {
  std::vector<HttpResult> results;
  unsigned max_outstanding = 0;
  std::uint64_t failed = 0;  ///< transport failures, non-200, wrong answers
  Summary latency_us;  ///< open-loop latency, timed from the due time
  double achieved_rate = 0;  ///< completed / (last completion - first due)
  bool backlog_growing = false;
};

/// `reference` holds Dijkstra rows of every source (the HTTP graph is
/// small); every answer is compared bitwise against it.
HttpRun http_run(std::uint16_t port, double rate, std::size_t count,
                 std::uint64_t seed, unsigned max_connections,
                 const std::vector<std::vector<graph::Weight>>& reference);

/// Dijkstra rows of every source of g.
[[nodiscard]] std::vector<std::vector<graph::Weight>> all_rows(
    const graph::Graph& g);

/// Connections the HTTP generator may hold open: threads plus connections
/// stay within nproc (one generator thread, one server thread).
[[nodiscard]] inline unsigned http_connections(unsigned nproc) {
  return nproc > 3 ? nproc - 2 : 1;
}

}  // namespace perfbench
