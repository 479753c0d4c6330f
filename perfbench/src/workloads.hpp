// The benchmark's workloads (workloads.cpp) and the traced per-layer sweep
// (layers.cpp), plus what both share: input generation, build options,
// the RSS probe and the correctness references.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/graph.hpp"
#include "hetero/thread_pool.hpp"

namespace eardec::mcb {}
namespace eardec::obs {}
namespace eardec::serve {}

namespace perfbench {

namespace connectivity = eardec::connectivity;
namespace core = eardec::core;
namespace graph = eardec::graph;
namespace hetero = eardec::hetero;
namespace mcb = eardec::mcb;
namespace obs = eardec::obs;
namespace reduce = eardec::reduce;
namespace serve = eardec::serve;
namespace sssp = eardec::sssp;

/// Graph sizes (vertices of graph::generators::table1_scale_edges).
/// build_scale and serve_inproc share one graph: one build takes a few
/// seconds and the compact oracle (~600 MB) is twice the last-level cache.
inline constexpr graph::VertexId kScaleN = 30000;
/// The HTTP layer's graph: small enough that the oracle sits in L2, so the
/// front end dominates each request.
inline constexpr graph::VertexId kHttpN = 2000;
/// mcb_scale: a sequential solve takes ~0.4 s, so a run holds enough
/// solves (~70) for a tail percentile with ten samples beyond it.
inline constexpr graph::VertexId kMcbN = 3000;

/// Closed-loop callers of serve_inproc.
inline constexpr unsigned kCallers = 3;
/// HTTP reference rate for p50/p99 (well below capacity) and the
/// SLO the capacity search holds p99 to.
inline constexpr double kReferenceRate = 5000;
inline constexpr double kSloUs = 1000;
/// The capacity grid: 1000 req/s times kGridRatio^k, k = 0..63 (to ~21k),
/// searched from step kGridStart (~5000 req/s, the reference rate) with
/// kProbeRequests requests per step.
inline constexpr double kGridRatio = 1.05;
inline constexpr std::size_t kGridStart = 33;
inline constexpr std::size_t kProbeRequests = 5000;
/// HTTP latency tails are medians of per-window p99s (summarize_windows).
inline constexpr std::size_t kLatencyWindow = 1000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch files (EDG2, trace)
  unsigned nproc = 4;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One untraced run of `o.workload`: every end-to-end metric.
Result run_workload(const Options& o);

/// The traced run: every per-layer metric (see layers.cpp).
Result run_layers(const Options& o);

// ---- shared by workloads.cpp and layers.cpp --------------------------------

[[nodiscard]] double now_s();

/// VmHWM of this process in MiB, and its reset (writes "5" to
/// /proc/self/clear_refs, which restarts the high-water mark at the
/// current RSS). reset_peak_rss() first returns freed heap to the kernel
/// so an earlier phase's allocations do not carry over.
[[nodiscard]] double peak_rss_mb();
void reset_peak_rss();

/// The Table-1-calibrated scale graph of n vertices, CSR built on `pool`
/// (serially when null).
/// Its structure is fixed (generator seed kStructureSeed, as `eardec_cli
/// gen scale:N` uses); `seed` permutes the vertex ids. Different seeds
/// thus give different inputs of one cost: the structure generator's own
/// seed moves the size of the dominant block, and with it the cost of
/// APSP and MCB, by up to 3x at these sizes.
inline constexpr std::uint64_t kStructureSeed = 42;
[[nodiscard]] graph::Graph scale_graph(graph::VertexId n, std::uint64_t seed,
                                       hetero::ThreadPool* pool);

/// Build options: the paper's heterogeneous mode (CPU threads = nproc
/// minus the software device's workers) and the serving default
/// (Multicore on every hardware thread).
[[nodiscard]] core::ApspOptions hetero_build(unsigned nproc);
[[nodiscard]] core::ApspOptions multicore_build(unsigned nproc);

/// Bitwise comparison of two distances (both exact: the generator's
/// weights are integers, so every path sum is exact).
[[nodiscard]] bool same_bits(graph::Weight a, graph::Weight b);

/// Checks sampled (s, t, d) answers against Dijkstra, one run per distinct
/// source (at most `max_sources` of them). Returns the mismatch count.
struct Answer {
  graph::VertexId s = 0;
  graph::VertexId t = 0;
  graph::Weight d = 0;
};
[[nodiscard]] std::uint64_t count_wrong(const graph::Graph& g,
                                        std::vector<Answer> answers,
                                        std::size_t max_sources);

/// Uniform random (s, t) pairs over n vertices.
[[nodiscard]] std::vector<std::pair<graph::VertexId, graph::VertexId>>
random_pairs(graph::VertexId n, std::size_t count, std::uint64_t seed);

/// Parses the %.17g "distance" string out of a GET /query response body;
/// false if absent.
[[nodiscard]] bool parse_distance(const std::string& body, graph::Weight* d);

}  // namespace perfbench
