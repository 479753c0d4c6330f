// The traced run: per-layer metrics, timed around calls into each
// module's public functions from here (no tracing is added inside src/).
//
// Every traced run reports every per-layer metric, whichever --workload it
// was given: each layer is measured on the input of the workload whose
// end-to-end numbers it moves (README.md has the map) —
//   graph, connectivity, reduce, core, hetero, sssp  on build_scale's graph
//   serve                                           on serve_inproc's
//   http                                            on a small graph
//   mcb                                             on mcb_scale's
// plus obs, the tracing overhead on build and on in-process serving.
// Tracing is on (the library's obs::Tracer, as EARDEC_TRACE turns it on,
// plus benchmark-side spans with one id per query); the spans stay in
// memory and are written as a Chrome trace when the run ends.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "connectivity/bcc.hpp"
#include "core/distance_oracle.hpp"
#include "graph/edg2.hpp"
#include "mcb/ear_mcb.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reduce/chains.hpp"
#include "serving.hpp"
#include "sssp/multi_source.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Seconds of each in-process serving loop (two untraced, two traced).
constexpr double kServeSeconds = 1.0;
/// Seconds of the HTTP run at the reference rate.
constexpr double kHttpSeconds = 2.0;
/// Sources of the Phase-II kernel measurement, in 16-lane batches (the
/// default sources_per_unit of a phase-II work unit).
constexpr graph::VertexId kSsspSources = 64;
constexpr std::uint32_t kSsspLanes = 16;

/// Runs `f` inside a benchmark-side span; returns its seconds.
template <typename F>
double span(const char* name, F&& f) {
  const std::uint64_t t0 = obs::Tracer::now_ns();
  f();
  const std::uint64_t dur = obs::Tracer::now_ns() - t0;
  obs::Tracer::instance().record_span(name, t0, dur);
  return static_cast<double>(dur) * 1e-9;
}

double ns_p(std::vector<std::uint32_t> v, bool tail) {
  const Summary s = summarize(v);
  return tail ? s.tail : s.p50;
}

/// Median over batches of 256 calls of the mean ns per call, with
/// `threads` threads calling `op(i)` for `seconds`.
template <typename Op>
double batched_ns(unsigned threads, double seconds, const Op& op) {
  constexpr int kBatch = 256;
  std::vector<std::vector<double>> means(threads);
  std::atomic<bool> go{false};
  const double end = now_s() + seconds;
  {
    std::vector<std::jthread> pool;
    for (unsigned k = 0; k < threads; ++k) {
      pool.emplace_back([&, k] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        std::size_t i = k * 7919;
        while (now_s() < end) {
          const std::uint64_t t0 = obs::Tracer::now_ns();
          for (int j = 0; j < kBatch; ++j) op(i++);
          means[k].push_back(
              static_cast<double>(obs::Tracer::now_ns() - t0) / kBatch);
        }
      });
    }
    go.store(true, std::memory_order_release);
  }
  std::vector<double> all;
  for (const auto& m : means) all.insert(all.end(), m.begin(), m.end());
  return median(std::move(all));
}

/// p50 of the server-side scalar query histogram, scraped from
/// /stats.json ("oracle.query.scalar.latency_ns": {"count": .., "sum":
/// .., "p50": X, ...}).
double scraped_query_p50(std::uint16_t port) {
  std::string body;
  if (http_get(port, "/stats.json", &body) != 200) return 0;
  const std::string key = "\"oracle.query.scalar.latency_ns\"";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  const std::size_t p50 = body.find("\"p50\": ", at);
  if (p50 == std::string::npos) return 0;
  return std::strtod(body.c_str() + p50 + 7, nullptr);
}

}  // namespace

Result run_layers(const Options& o) {
  Result r;
  auto add = [&r](const char* name, double value, const char* unit) {
    r.metrics.push_back({name, value, unit});
  };
  obs::Tracer& tracer = obs::Tracer::instance();
  hetero::ThreadPool pool(o.nproc);
  tracer.set_current_thread_name("perfbench-main");

  // ---- graph, connectivity, reduce: build_scale's input ------------------
  const auto file = o.work_dir / "layers_scale.edg2";
  {
    const graph::Graph g = scale_graph(kScaleN, o.seed, &pool);
    graph::io::write_edg2_file(file, g, &pool, "perfbench");
  }
  tracer.set_enabled(true);
  graph::Graph g;
  add("graph.edg2_load_s",
      span("perfbench.graph.read_edg2_file",
           [&] { g = graph::io::read_edg2_file(file); }),
      "s");
  add("graph.edg2_bytes", static_cast<double>(std::filesystem::file_size(file)),
      "bytes");
  connectivity::BiconnectedComponents bcc;
  add("connectivity.bcc_s",
      span("perfbench.connectivity.biconnected_components",
           [&] { bcc = connectivity::biconnected_components(g); }),
      "s");
  std::size_t largest_block = 0;
  for (std::uint32_t c = 0; c < bcc.num_components; ++c) {
    largest_block = std::max(largest_block, bcc.component_vertices(c).size());
  }
  add("connectivity.blocks", bcc.num_components, "count");
  add("connectivity.aps", static_cast<double>(bcc.num_articulation_points()),
      "count");
  add("connectivity.largest_block_n", static_cast<double>(largest_block),
      "count");
  reduce::ChainSet chains;
  add("reduce.chains_s",
      span("perfbench.reduce.find_chains",
           [&] { chains = reduce::find_chains(g); }),
      "s");

  // ---- core, hetero: the heterogeneous build, untraced then traced --------
  // Both go through OracleServer (a DistanceOracle plus its snapshot), so
  // the traced one can serve the serve-layer measurements below.
  const serve::ServeOptions build_opts{.build = hetero_build(o.nproc)};
  // Untraced and traced builds alternate (U T U T), so drift over the run
  // does not land on one side; the last traced build stays.
  std::vector<double> untraced_builds;
  std::vector<double> traced_builds;
  std::unique_ptr<serve::OracleServer> server;
  double load_s = 0;
  for (int k = 0; k < 2; ++k) {
    server.reset();
    tracer.set_enabled(false);
    {
      const double t0 = now_s();
      const serve::OracleServer plain(graph::io::read_edg2_file(file),
                                      build_opts);
      untraced_builds.push_back(now_s() - t0);
    }
    tracer.set_enabled(true);
    traced_builds.push_back(span("perfbench.build", [&] {
      graph::Graph lg;
      load_s = span("perfbench.graph.read_edg2_file",
                    [&] { lg = graph::io::read_edg2_file(file); });
      span("perfbench.core.build_oracle", [&] {
        server = std::make_unique<serve::OracleServer>(std::move(lg), build_opts);
      });
    }));
  }
  const double build_s = traced_builds.back();
  const auto snap = server->snapshot();
  const core::EarApspEngine& engine = snap->engine();
  const core::PhaseTimings& ph = engine.timings();
  add("reduce.removed_frac", [&] {
    double removed = 0;
    double total = 0;
    for (std::uint32_t c = 0; c < engine.num_components(); ++c) {
      removed += engine.reduced(c).num_removed();
      total += engine.component(c).graph.num_vertices();
    }
    return total > 0 ? removed / total : 0;
  }(), "ratio");
  add("core.decompose_s", ph.decompose, "s");
  add("core.reduce_s", ph.reduce, "s");
  add("core.process_s", ph.process, "s");
  add("core.ap_table_s", ph.ap_table, "s");
  add("core.unattributed_s", build_s - load_s - ph.total(), "s");
  add("core.oracle_mb", engine.memory().compact_mb(), "MB");
  add("core.ap_table_mb",
      static_cast<double>(engine.memory().ap_table_bytes) / kMiB, "MB");
  const hetero::SchedulerStats st = engine.scheduler_stats();
  double busy = st.device_worker.busy_seconds;
  for (const auto& w : st.cpu_workers) busy += w.busy_seconds;
  add("hetero.cpu_units", static_cast<double>(st.cpu_units), "count");
  add("hetero.device_units", static_cast<double>(st.device_units), "count");
  add("hetero.utilization", st.utilization(), "ratio");
  add("hetero.busy_s", busy, "s");
  add("hetero.drain_s", st.elapsed_seconds, "s");
  add("hetero.queue_contention", static_cast<double>(st.queue_contention),
      "count");

  // ---- sssp: the Phase-II CPU kernel on the largest reduced block --------
  {
    std::uint32_t big = 0;
    for (std::uint32_t c = 1; c < engine.num_components(); ++c) {
      if (engine.reduced(c).graph().num_vertices() >
          engine.reduced(big).graph().num_vertices()) {
        big = c;
      }
    }
    const graph::Graph& rg = engine.reduced(big).graph();
    const graph::VertexId nr = rg.num_vertices();
    const graph::VertexId sources = std::min(kSsspSources, nr);
    sssp::MultiSourceWorkspace ws(nr, kSsspLanes);
    sssp::DistanceMatrix out(nr);
    const double s = span("perfbench.sssp.multi_source", [&] {
      for (graph::VertexId b = 0; b < sources; b += kSsspLanes) {
        ws.distances(rg, b, std::min<graph::VertexId>(b + kSsspLanes, sources),
                     out);
      }
    });
    add("sssp.sources_per_s", sources / s, "1/s");
    add("sssp.mteps",
        static_cast<double>(sources) * 2.0 * rg.num_edges() / s * 1e-6,
        "Medges/s");
  }

  // ---- serve: serve_inproc's graph and callers ---------------------------
  // Untraced and traced loops alternate too, on the same pairs.
  ClosedLoopResult plain;
  double plain_qps = 0;
  double traced_qps = 0;
  for (int k = 0; k < 2; ++k) {
    tracer.set_enabled(false);
    ClosedLoopResult u = closed_loop(*server, kCallers, o.seed, kServeSeconds, false);
    tracer.set_enabled(true);
    ClosedLoopResult t = closed_loop(*server, kCallers, o.seed, kServeSeconds, true);
    plain_qps += u.qps();
    traced_qps += t.qps();
    r.attempted += u.queries + t.queries;
    r.failed += u.exceptions + t.exceptions +
                count_wrong(snap->graph(), u.samples, 16) +
                count_wrong(snap->graph(), t.samples, 16);
    if (k == 0) plain = std::move(u);
  }
  const std::size_t classified = plain.latency_ns[0].size() +
                                 plain.latency_ns[1].size() +
                                 plain.latency_ns[2].size();
  add("serve.same_block_p50_ns", ns_p(plain.latency_ns[0], false), "ns");
  add("serve.same_block_p99_ns", ns_p(plain.latency_ns[0], true), "ns");
  add("serve.cross_block_p50_ns", ns_p(plain.latency_ns[1], false), "ns");
  add("serve.cross_block_p99_ns", ns_p(plain.latency_ns[1], true), "ns");
  add("serve.cross_block_frac",
      static_cast<double>(plain.latency_ns[1].size()) /
          static_cast<double>(std::max<std::size_t>(classified, 1)),
      "ratio");
  tracer.set_enabled(false);
  add("serve.pin_ns", batched_ns(kCallers, 0.5, [&](std::size_t) {
        (void)server->snapshot();
      }), "ns");
  const auto pairs = random_pairs(kScaleN, 1u << 16, o.seed + 2);
  add("serve.raw_query_ns", batched_ns(kCallers, 0.5, [&](std::size_t i) {
        const auto& [s, t] = pairs[i & 0xffff];
        (void)snap->query(s, t);
      }), "ns");
  tracer.set_enabled(true);
  // Overhead as extra time per operation: for serving, 1/qps.
  add("obs.trace_overhead_frac.build",
      median(traced_builds) / median(untraced_builds) - 1, "ratio");
  add("obs.trace_overhead_frac.serve", plain_qps / traced_qps - 1, "ratio");

  // ---- http: the small graph, so the HTTP front end dominates -----------
  {
    const HttpServing http(scale_graph(kHttpN, o.seed, &pool),
                           multicore_build(o.nproc));
    const auto reference = all_rows(http.server().snapshot()->graph());
    obs::MetricsRegistry::instance().reset_values();
    const auto count = static_cast<std::size_t>(kReferenceRate * kHttpSeconds);
    const HttpRun run = http_run(http.port(), kReferenceRate, count, o.seed,
                                 http_connections(o.nproc), reference);
    r.attempted += count;
    r.failed += run.failed;
    // Capacity: the highest grid rate whose open-loop p99 meets the SLO
    // with no failures and no growing backlog.
    const std::vector<double> grid = geometric_grid(1000, kGridRatio, 64);
    std::vector<double> achieved(grid.size(), 0);
    const auto best = capacity_search(
        grid.size(), kGridStart, [&](std::size_t i) {
          const HttpRun p = http_run(http.port(), grid[i], kProbeRequests,
                                     o.seed + 1 + i, http_connections(o.nproc),
                                     reference);
          r.attempted += kProbeRequests;
          r.failed += p.failed;
          achieved[i] = p.achieved_rate;
          return p.failed == 0 && p.latency_us.tail <= kSloUs &&
                 !p.backlog_growing;
        });
    std::vector<double> connect;
    std::vector<double> ttfb;
    std::vector<double> rtt;
    std::vector<double> lag;
    double refused = 0;
    double timeouts = 0;
    double non200 = 0;
    for (const HttpResult& h : run.results) {
      lag.push_back(static_cast<double>(h.lag_ns()) * 1e-3);
      refused += h.fail == HttpResult::Fail::Refused;
      timeouts += h.fail == HttpResult::Fail::Timeout;
      non200 += h.fail == HttpResult::Fail::Non200;
      if (h.fail != HttpResult::Fail::None) continue;
      connect.push_back(static_cast<double>(h.connected_ns - h.start_ns) * 1e-3);
      ttfb.push_back(static_cast<double>(h.first_byte_ns - h.connected_ns) * 1e-3);
      rtt.push_back(static_cast<double>(h.done_ns - h.start_ns) * 1e-3);
    }
    const Summary rtt_s = summarize(rtt);
    add("http.capacity_qps", best ? achieved[*best] : 0, "1/s");
    add("http.p50_us", run.latency_us.p50, "us");
    add("http.p99_us", run.latency_us.tail, "us");
    add("http.connect_us_p50", summarize(connect).p50, "us");
    add("http.ttfb_us_p50", summarize(ttfb).p50, "us");
    add("http.rtt_us_p50", rtt_s.p50, "us");
    add("http.rtt_us_p99", rtt_s.tail, "us");
    add("http.server_query_ns_p50", scraped_query_p50(http.port()), "ns");
    add("http.generator_lag_us_p99", summarize(lag).tail, "us");
    add("http.max_outstanding", run.max_outstanding, "count");
    add("http.refused", refused, "count");
    add("http.timeouts", timeouts, "count");
    add("http.non200", non200, "count");
  }

  // ---- mcb: mcb_scale's graph, heterogeneous solve ----------------------
  {
    const graph::Graph mg = scale_graph(kMcbN, o.seed, &pool);
    mcb::McbOptions opts;
    opts.mode = core::ExecutionMode::Heterogeneous;
    opts.cpu_threads = hetero_build(o.nproc).cpu_threads;
    mcb::McbResult res;
    span("perfbench.mcb.minimum_cycle_basis",
         [&] { res = mcb::minimum_cycle_basis(mg, opts); });
    tracer.set_enabled(false);
    mcb::McbOptions plain_opts = opts;
    plain_opts.use_ear_decomposition = false;
    ++r.attempted;
    if (!mcb::validate_basis(mg, res) ||
        !same_bits(res.total_weight,
                   mcb::minimum_cycle_basis(mg, plain_opts).total_weight)) {
      ++r.failed;
    }
    const mcb::McbStats& ms = res.stats;
    add("mcb.reduce_s", ms.reduce_seconds, "s");
    add("mcb.preprocess_s", ms.preprocess_seconds, "s");
    add("mcb.labels_s", ms.labels_seconds, "s");
    add("mcb.search_s", ms.search_seconds, "s");
    add("mcb.update_s", ms.update_seconds, "s");
    add("mcb.dimension", static_cast<double>(ms.dimension), "count");
    add("mcb.candidates", static_cast<double>(ms.candidates), "count");
    add("mcb.fallback_searches", static_cast<double>(ms.fallback_searches),
        "count");
  }

  const auto trace_file = o.work_dir / ("perfbench-trace-" + o.workload +
                                        "-" + std::to_string(o.seed) + ".json");
  if (!tracer.write_chrome_trace_file(trace_file.string())) {
    throw std::runtime_error("cannot write " + trace_file.string());
  }
  std::fprintf(stderr, "perfbench: trace written to %s\n",
               trace_file.string().c_str());
  return r;
}

}  // namespace perfbench
