// Multi-source batched SSSP — the Phase-II CPU bulk kernel.
//
// The paper runs one binary-heap Dijkstra per reduced source because the
// instances are independent (Section 2.1.2); independence also means
// sources can share a single adjacency traversal. This kernel runs a fixed
// block of kMaxSourceLanes sources ("lanes") at once over one
// cache-resident workspace: distances are stored lane-strided
// (dist[v * kMaxSourceLanes + lane], a structure-of-arrays block like the
// bit-sliced GF(2) witness matrix of the MCB overhaul), and every CSR edge
// scan relaxes all lanes in one branch-free pass, so the graph is streamed
// once per frontier round instead of once per source. The width is a
// compile-time constant, so the relaxation unrolls and vectorizes at -O3
// without -march=native; a batch narrower than that pads its unused lanes
// with +infinity, which no relaxation ever lowers (MS-BFS, Then et al.,
// VLDB 2015, shares one traversal between a fixed block of lanes the same
// way).
//
// Algorithmically this is label-correcting (Bellman–Ford with a frontier)
// rather than label-setting: more raw relaxations than Dijkstra, but each
// one is a vectorizable fused add+min over the lane block, and the
// frontier keeps rounds sparse. For non-negative weights every
// label-correcting fixpoint equals the Dijkstra labels bit for bit
// (rounded addition is monotone, min is exact), which the differential
// suite asserts across every property family.
//
// A pass may also start from rows of the table that are already finished
// (d(s, t) = d(t, s) in an undirected graph) and solve only the vertices
// those rows do not cover; see distances() and docs/sssp_perf.md,
// "Mirror-seeded waves".
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/floyd_warshall.hpp"  // DistanceMatrix

namespace eardec::sssp {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

/// Sources per batch: the lane width of the relaxation.
inline constexpr std::uint32_t kMaxSourceLanes = 16;

/// Reusable lane-strided workspace for APSP-style loops: runs batches of
/// sources repeatedly without reallocating the distance block or the
/// frontier queues. One workspace may serve graphs of different sizes
/// (size it once to the largest via ensure()); the Phase-II scheduler
/// pools one per worker thread so the drain performs no per-unit
/// allocation.
class MultiSourceWorkspace {
 public:
  MultiSourceWorkspace() = default;
  MultiSourceWorkspace(VertexId num_vertices, std::uint32_t lanes) {
    ensure(num_vertices, lanes);
  }

  /// Grows the distance block to cover graphs of up to `num_vertices`
  /// vertices and admits batches of up to `lanes` sources (at most
  /// kMaxSourceLanes); never shrinks.
  void ensure(VertexId num_vertices, std::uint32_t lanes);

  /// Computes distances from every source in [src_begin, src_end) and
  /// writes them into the matching rows of `out` (row s = distances from
  /// s). The batch width src_end - src_begin must be <= the ensured lane
  /// count. Results are bit-identical to running sssp::dijkstra per
  /// source.
  ///
  /// With known_end > 0, rows [0, known_end) of `out` must already hold
  /// finished distances, at least in columns [src_begin, src_end): vertex
  /// t < known_end takes out(t, s) as d(s, t) and is never relaxed. The
  /// rest of each row is then the shortest extension of those mirrored
  /// entries, bit-identical to Dijkstra whenever the mirrored entries are
  /// (integer weights). known_end must not exceed src_begin
  /// (std::invalid_argument).
  void distances(const Graph& g, VertexId src_begin, VertexId src_end,
                 DistanceMatrix& out, VertexId known_end = 0);

  /// Frontier rounds used by the last run (diagnostics / bench axes).
  [[nodiscard]] std::uint32_t last_rounds() const noexcept { return rounds_; }
  /// Frontier vertices scanned by the last run, summed over its rounds.
  [[nodiscard]] std::uint64_t last_visits() const noexcept { return visits_; }

 private:
  std::uint32_t lane_capacity_ = 0;
  std::uint32_t rounds_ = 0;
  std::uint64_t visits_ = 0;
  std::vector<Weight> dist_;         ///< n * kMaxSourceLanes, lane-strided
  std::vector<std::uint8_t> queued_;  ///< vertex is on the next frontier
  std::vector<VertexId> frontier_;
  std::vector<VertexId> next_;
};

}  // namespace eardec::sssp
