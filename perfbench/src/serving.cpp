#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "obs/query_trace.hpp"
#include "obs/stats_server.hpp"
#include "serve/http_routes.hpp"
#include "sssp/dijkstra.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Latency and class share one word: 30 bits of ns (~1.07 s, clamped) and
// the PairClass above them.
constexpr std::uint32_t kLatencyMask = (1u << 30) - 1;
// Every call is timed, every 16th latency kept: still millions of samples
// per run, and the buffers stay small, so the loop's peak RSS is the
// oracle's and does not grow with the throughput it measures.
constexpr std::size_t kLatencyStride = 16;

PairClass classify(const core::EarApspEngine& engine, graph::VertexId s,
                   graph::VertexId t) {
  switch (engine.route(s, t).kind) {
    case core::QueryRoute::Kind::SameBlock:
      return PairClass::SameBlock;
    case core::QueryRoute::Kind::CrossBlock:
      return PairClass::CrossBlock;
    default:
      return PairClass::Other;
  }
}

struct Caller {
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs;
  std::vector<PairClass> classes;
  std::vector<std::uint32_t> packed;  // latency | class << 30
  std::vector<Answer> samples;
  std::uint64_t queries = 0;
  std::uint64_t exceptions = 0;
  Clock::time_point end;
};

template <bool kTraced>
void caller_loop(const serve::OracleServer& server, Caller& c,
                 Clock::time_point deadline) {
  const std::size_t mask = c.pairs.size() - 1;  // size is a power of two
  for (std::size_t i = 0;; ++i) {
    const auto [s, t] = c.pairs[i & mask];
    graph::Weight d = 0;
    const auto a = Clock::now();
    try {
      if constexpr (kTraced) {
        obs::QueryTrace qt(obs::Tracer::now_ns());
        const obs::QueryTraceScope scope(&qt);
        const obs::QuerySpan root("perfbench.query");
        d = server.query(s, t);
      } else {
        d = server.query(s, t);
      }
    } catch (const std::exception&) {
      ++c.exceptions;
    }
    const auto b = Clock::now();
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
    if ((i & (kLatencyStride - 1)) == 0) {
      c.packed.push_back(
          static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, kLatencyMask)) |
          static_cast<std::uint32_t>(c.classes[i & mask]) << 30);
    }
    if ((i & 4095) == 0) c.samples.push_back({s, t, d});
    if (b >= deadline) {
      c.queries = i + 1;
      c.end = b;
      return;
    }
  }
}

}  // namespace

ClosedLoopResult closed_loop(const serve::OracleServer& server,
                             unsigned callers, std::uint64_t seed,
                             double seconds, bool traced) {
  constexpr std::size_t kPairs = std::size_t{1} << 18;
  std::vector<Caller> cs(callers);
  {
    const auto snap = server.snapshot();
    const graph::VertexId n = snap->graph().num_vertices();
    for (unsigned k = 0; k < callers; ++k) {
      Caller& c = cs[k];
      c.pairs = random_pairs(n, kPairs, seed * 1000003 + k);
      c.classes.reserve(kPairs);
      for (const auto& [s, t] : c.pairs) {
        c.classes.push_back(classify(snap->engine(), s, t));
      }
      // Room for ~3M calls/s so the timed loop never reallocates.
      c.packed.reserve(static_cast<std::size_t>(seconds * 3e6) / kLatencyStride +
                       1024);
    }
  }
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::jthread> threads;
  for (Caller& c : cs) {
    threads.emplace_back([&, traced] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (traced) {
        caller_loop<true>(server, c, deadline);
      } else {
        caller_loop<false>(server, c, deadline);
      }
    });
  }
  while (ready.load() < callers) std::this_thread::yield();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  threads.clear();  // joins

  ClosedLoopResult r;
  Clock::time_point end = start;
  for (Caller& c : cs) {
    r.queries += c.queries;
    r.exceptions += c.exceptions;
    end = std::max(end, c.end);
    for (const std::uint32_t p : c.packed) {
      r.latency_ns[p >> 30].push_back(p & kLatencyMask);
    }
    r.samples.insert(r.samples.end(), c.samples.begin(), c.samples.end());
  }
  r.wall_s = std::chrono::duration<double>(end - start).count();
  return r;
}

HttpServing::HttpServing(graph::Graph g, const core::ApspOptions& build)
    : server_(std::make_unique<serve::OracleServer>(
          std::move(g), serve::ServeOptions{.build = build})) {
  obs::StatsServer& stats = obs::StatsServer::instance();
  if (!stats.start(0)) throw std::runtime_error("HTTP server did not start");
  port_ = stats.port();
  serve::register_query_routes(*server_);
  // Readiness: the port accepting is not enough, /query must answer.
  const double deadline = now_s() + 10;
  std::string body;
  while (http_get(port_, "/query?s=0&t=0", &body) != 200) {
    if (now_s() > deadline) {
      serve::unregister_query_routes();
      stats.stop();
      throw std::runtime_error("/query never answered 200");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

HttpServing::~HttpServing() {
  serve::unregister_query_routes();
  obs::StatsServer::instance().stop();
}

HttpRun http_run(std::uint16_t port, double rate, std::size_t count,
                 std::uint64_t seed, unsigned max_connections,
                 const std::vector<std::vector<graph::Weight>>& reference) {
  const auto n = static_cast<graph::VertexId>(reference.size());
  const auto pairs = random_pairs(n, count, seed);
  HttpRun run;
  OpenLoopConfig cfg;
  cfg.port = port;
  cfg.rate = rate;
  cfg.count = count;
  cfg.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  cfg.max_connections = max_connections;
  run.results = run_open_loop(
      cfg,
      [&pairs](std::size_t i) {
        return "/query?s=" + std::to_string(pairs[i].first) +
               "&t=" + std::to_string(pairs[i].second);
      },
      &run.max_outstanding);
  // A failed request misses every latency limit: it enters the latency
  // set as +infinity.
  std::vector<double> latency_us;
  latency_us.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const HttpResult& r = run.results[i];
    graph::Weight d = 0;
    const bool ok = r.fail == HttpResult::Fail::None &&
                    parse_distance(r.body, &d) &&
                    same_bits(d, reference[pairs[i].first][pairs[i].second]);
    if (!ok) ++run.failed;
    latency_us.push_back(ok ? static_cast<double>(r.latency_ns()) * 1e-3
                            : graph::kInfWeight);
  }
  run.latency_us = summarize_windows(latency_us, kLatencyWindow);
  const HttpResult& last = run.results.back();
  std::uint64_t end_ns = 0;
  for (const HttpResult& r : run.results) end_ns = std::max(end_ns, r.done_ns);
  const double span_s =
      static_cast<double>(end_ns - run.results.front().due_ns) * 1e-9;
  run.achieved_rate = span_s > 0 ? static_cast<double>(count) / span_s : 0;
  run.backlog_growing = static_cast<double>(last.lag_ns()) > kSloUs * 1e3;
  return run;
}

std::vector<std::vector<graph::Weight>> all_rows(const graph::Graph& g) {
  std::vector<std::vector<graph::Weight>> rows(g.num_vertices());
  for (graph::VertexId s = 0; s < g.num_vertices(); ++s) {
    rows[s] = sssp::dijkstra(g, s).dist;
  }
  return rows;
}

}  // namespace perfbench
