// The three end-to-end workloads. Each reports the same five metrics, each
// for its own operation (README.md has the table):
//   setup_s        median of several set-ups (generate the graph, then
//                  write it or build the oracle)
//   p50_us/p99_us  latency of one operation (see Summary for the tail)
//   capacity_per_s operations per second the workload sustains: the
//                  callers' queries/s for serving; one operation at a
//                  time at the median duration for builds and MCB solves
//   peak_rss_mb    VmHWM of the timed part, reset after set-up: through the
//                  first build or MCB solve (later repetitions reuse memory
//                  the allocator kept from earlier ones, so their peaks
//                  follow its state more than the operation), over the
//                  whole loop for serving
#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/distance_oracle.hpp"
#include "graph/edg2.hpp"
#include "graph/generators.hpp"
#include "mcb/ear_mcb.hpp"
#include "serving.hpp"
#include "sssp/dijkstra.hpp"
#include "stats.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  if (!out) throw std::runtime_error("cannot reset VmHWM via clear_refs");
}

graph::Graph scale_graph(graph::VertexId n, std::uint64_t seed,
                         hetero::ThreadPool* pool) {
  auto se = graph::generators::table1_scale_edges(n, kStructureSeed);
  std::vector<graph::VertexId> label(n);
  std::iota(label.begin(), label.end(), graph::VertexId{0});
  std::shuffle(label.begin(), label.end(), std::mt19937_64(seed));
  for (auto& [u, v] : se.edges) {
    u = label[u];
    v = label[v];
  }
  return graph::io::build_csr_parallel(se.num_vertices, std::move(se.edges),
                                       std::move(se.weights), pool);
}

core::ApspOptions hetero_build(unsigned nproc) {
  core::ApspOptions o;
  o.mode = core::ExecutionMode::Heterogeneous;
  const unsigned device = o.device.workers;
  o.cpu_threads = nproc > device ? nproc - device : 1;
  return o;
}

core::ApspOptions multicore_build(unsigned nproc) {
  core::ApspOptions o;
  o.mode = core::ExecutionMode::Multicore;
  o.cpu_threads = nproc;
  return o;
}

bool same_bits(graph::Weight a, graph::Weight b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::uint64_t count_wrong(const graph::Graph& g, std::vector<Answer> answers,
                          std::size_t max_sources) {
  std::map<graph::VertexId, std::vector<Answer>> by_source;
  for (const Answer& a : answers) {
    if (by_source.size() < max_sources || by_source.count(a.s) != 0) {
      by_source[a.s].push_back(a);
    }
  }
  std::uint64_t wrong = 0;
  for (const auto& [s, list] : by_source) {
    const auto row = sssp::dijkstra(g, s).dist;
    for (const Answer& a : list) wrong += same_bits(row[a.t], a.d) ? 0u : 1u;
  }
  return wrong;
}

std::vector<std::pair<graph::VertexId, graph::VertexId>> random_pairs(
    graph::VertexId n, std::size_t count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<graph::VertexId> pick(0, n - 1);
  std::vector<std::pair<graph::VertexId, graph::VertexId>> pairs(count);
  for (auto& [s, t] : pairs) {
    s = pick(rng);
    t = pick(rng);
  }
  return pairs;
}

bool parse_distance(const std::string& body, graph::Weight* d) {
  constexpr std::string_view key = "\"distance\": \"";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return false;
  const char* begin = body.c_str() + at + key.size();
  char* end = nullptr;
  *d = std::strtod(begin, &end);
  return end != begin && *end == '"';
}

namespace {

/// Sampled answers per build checked against Dijkstra.
constexpr std::size_t kBuildChecks = 1024;
constexpr std::size_t kCheckSources = 16;

void add_e2e(Result& r, double setup_s, const Summary& s,
             double capacity_per_s, double rss_mb) {
  r.metrics.push_back({"setup_s", setup_s, "s"});
  r.metrics.push_back({"p50_us", s.p50, "us"});
  r.metrics.push_back({"p99_us", s.tail, "us"});
  r.metrics.push_back({"capacity_per_s", capacity_per_s, "1/s"});
  r.metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  std::fprintf(stderr, "perfbench: %zu operations, tail percentile p%.4g\n",
               s.count, s.tail_q * 100);
}

/// Runs `op` until `seconds` have passed (at least once). `op` returns
/// the duration of its own timed part, so its checks stay outside it;
/// the result lists those durations in microseconds.
template <typename Op>
std::vector<double> repeat_for(double seconds, const Op& op) {
  std::vector<double> us;
  const double end = now_s() + seconds;
  do {
    us.push_back(op() * 1e6);
  } while (now_s() < end);
  return us;
}

/// Times `setup` `count` times and returns the median: several set-ups per
/// run, more of them where each is short (so noisier).
template <typename Setup>
double median_setup(int count, const Setup& setup) {
  std::vector<double> s;
  for (int i = 0; i < count; ++i) {
    const double t0 = now_s();
    setup();
    s.push_back(now_s() - t0);
  }
  return median(std::move(s));
}

// build_scale: EDG2 file on disk -> heterogeneous DistanceOracle answering.
Result build_scale(const Options& o) {
  Result r;
  hetero::ThreadPool pool(o.nproc);
  const auto file = o.work_dir / "build_scale.edg2";
  const double setup_s = median_setup(11, [&] {
    const graph::Graph g = scale_graph(kScaleN, o.seed, &pool);
    graph::io::write_edg2_file(file, g, &pool, "perfbench");
  });
  const auto pairs = random_pairs(kScaleN, kBuildChecks, o.seed + 1);
  const core::ApspOptions opts = hetero_build(o.nproc);
  double rss = 0;
  reset_peak_rss();
  std::vector<double> us = repeat_for(o.seconds, [&] {
    ++r.attempted;
    const double t0 = now_s();
    try {
      const graph::Graph g = graph::io::read_edg2_file(file);
      const core::DistanceOracle oracle(g, opts);
      const double dt = now_s() - t0;
      if (rss == 0) rss = peak_rss_mb();
      std::vector<Answer> answers;
      for (const auto& [s, t] : pairs) {
        answers.push_back({s, t, oracle.distance(s, t)});
      }
      if (count_wrong(g, std::move(answers), kCheckSources) != 0) ++r.failed;
      return dt;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: build failed: %s\n", e.what());
      ++r.failed;
      return now_s() - t0;
    }
  });
  const Summary sum = summarize(us);
  add_e2e(r, setup_s, sum, 1e6 / sum.p50, rss);
  return r;
}

// serve_inproc: 3 closed-loop callers of OracleServer::query on the scale
// graph; the Multicore build is set-up.
Result serve_inproc(const Options& o) {
  Result r;
  hetero::ThreadPool pool(o.nproc);
  std::unique_ptr<serve::OracleServer> server;
  const double setup_s = median_setup(3, [&] {
    server.reset();
    server = std::make_unique<serve::OracleServer>(
        scale_graph(kScaleN, o.seed, &pool),
        serve::ServeOptions{.build = multicore_build(o.nproc)});
  });
  reset_peak_rss();
  ClosedLoopResult loop = closed_loop(*server, kCallers, o.seed, o.seconds,
                                      /*traced=*/false);
  const double rss = peak_rss_mb();
  std::vector<std::uint32_t> ns;
  for (auto& v : loop.latency_ns) ns.insert(ns.end(), v.begin(), v.end());
  Summary s = summarize(ns);
  s.p50 *= 1e-3;
  s.tail *= 1e-3;
  r.attempted = loop.queries;
  r.failed = loop.exceptions +
             count_wrong(server->snapshot()->graph(), std::move(loop.samples),
                         kCheckSources * 2);
  add_e2e(r, setup_s, s, loop.qps(), rss);
  return r;
}

// mcb_scale: sequential minimum_cycle_basis on a scale graph.
Result mcb_scale(const Options& o) {
  Result r;
  graph::Graph g;
  // Serial: at this size a pool's wake-ups would be most of the time.
  const double setup_s =
      median_setup(51, [&] { g = scale_graph(kMcbN, o.seed, nullptr); });
  // Sequential: the heterogeneous solve synchronizes its threads once per
  // basis cycle (hundreds of times a solve), so every host stall of a vCPU
  // holds all of them; its median solve time moved 40% between runs a few
  // minutes apart. The traced run measures the heterogeneous solve.
  mcb::McbOptions opts;
  opts.mode = core::ExecutionMode::Sequential;
  opts.cpu_threads = 1;
  // Lemma 3.1: contracting chains does not change the basis weight.
  mcb::McbOptions plain = opts;
  plain.use_ear_decomposition = false;
  const graph::Weight want = mcb::minimum_cycle_basis(g, plain).total_weight;
  double rss = 0;
  reset_peak_rss();
  std::vector<double> us = repeat_for(o.seconds, [&] {
    ++r.attempted;
    const double t0 = now_s();
    try {
      const mcb::McbResult res = mcb::minimum_cycle_basis(g, opts);
      const double dt = now_s() - t0;
      if (rss == 0) rss = peak_rss_mb();
      if (!mcb::validate_basis(g, res) || !same_bits(res.total_weight, want)) {
        ++r.failed;
      }
      return dt;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: mcb failed: %s\n", e.what());
      ++r.failed;
      return now_s() - t0;
    }
  });
  const Summary sum = summarize(us);
  add_e2e(r, setup_s, sum, 1e6 / sum.p50, rss);
  return r;
}

}  // namespace

Result run_workload(const Options& o) {
  if (o.workload == "build_scale") return build_scale(o);
  if (o.workload == "serve_inproc") return serve_inproc(o);
  if (o.workload == "mcb_scale") return mcb_scale(o);
  throw std::invalid_argument("unknown workload " + o.workload);
}

}  // namespace perfbench
