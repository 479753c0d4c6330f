#include "baselines/djidjev_apsp.hpp"

#include <limits>
#include <optional>

#include "graph/builder.hpp"
#include "hetero/scheduler.hpp"
#include "hetero/work_queue.hpp"
#include "obs/trace.hpp"
#include "sssp/dijkstra.hpp"

namespace eardec::baselines {
namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

DjidjevApsp::DjidjevApsp(const graph::Graph& g, std::uint32_t num_parts,
                         const core::ApspOptions& options, std::uint64_t seed)
    : g_(g), partition_(partition::bfs_grow(g, num_parts, seed)) {
  const graph::VertexId n = g.num_vertices();
  EARDEC_TRACE_SCOPE("baseline.djidjev_build", "n", n);
  const auto nb = static_cast<std::uint32_t>(partition_.boundary.size());
  local_id_.assign(n, graph::kNullVertex);
  boundary_idx_.assign(n, kNone);
  for (std::uint32_t b = 0; b < nb; ++b) {
    boundary_idx_[partition_.boundary[b]] = b;
  }

  // Induced subgraph per part.
  parts_.resize(partition_.num_parts);
  for (graph::VertexId v = 0; v < n; ++v) {
    auto& part = parts_[partition_.part[v]];
    local_id_[v] = static_cast<graph::VertexId>(part.vertices.size());
    part.vertices.push_back(v);
  }
  std::vector<graph::Builder> builders;
  builders.reserve(parts_.size());
  for (const auto& part : parts_) {
    builders.emplace_back(static_cast<graph::VertexId>(part.vertices.size()));
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (partition_.part[u] == partition_.part[v]) {
      builders[partition_.part[u]].add_edge(local_id_[u], local_id_[v],
                                            g.weight(e));
    }
  }

  // Phase 2: within-part APSP, parallel over parts.
  std::vector<graph::Graph> part_graphs;
  part_graphs.reserve(parts_.size());
  for (auto& b : builders) part_graphs.push_back(std::move(b).build());
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    parts_[p].dist = sssp::DistanceMatrix(
        static_cast<graph::VertexId>(parts_[p].vertices.size()));
    for (const graph::VertexId bv : partition_.boundary) {
      if (partition_.part[bv] == p) {
        parts_[p].boundary_local.push_back(local_id_[bv]);
      }
    }
  }
  {
    graph::VertexId max_part = 0;
    for (const auto& pg : part_graphs) {
      max_part = std::max(max_part, pg.num_vertices());
    }
    const unsigned cpu_workers =
        options.mode == core::ExecutionMode::Sequential
            ? 1
            : std::max(1u, options.cpu_threads);
    std::vector<sssp::DijkstraWorkspace> cpu_ws(cpu_workers);
    for (auto& ws : cpu_ws) ws.ensure(max_part);
    const auto part_apsp = [&](std::uint32_t p, unsigned worker) {
      const graph::Graph& pg = part_graphs[p];
      sssp::DijkstraWorkspace& ws = cpu_ws[worker];
      for (graph::VertexId s = 0; s < pg.num_vertices(); ++s) {
        ws.distances(pg, s, parts_[p].dist.row(s));
      }
    };
    std::vector<hetero::WorkUnit> units;
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      units.push_back({p, parts_[p].vertices.size()});
    }
    hetero::WorkQueue queue(std::move(units));
    const auto fn = [&](const hetero::WorkUnit& wu, unsigned worker) {
      part_apsp(wu.id, worker);
    };
    if (options.mode == core::ExecutionMode::Sequential) {
      hetero::run_on_caller(queue, hetero::Side::Cpu, 1, fn);
    } else {
      hetero::run_cpu_only(queue, options.cpu_threads, fn);
    }
  }

  // Phase 3: the boundary graph. Vertices = boundary vertices; edges =
  // original cross edges plus within-part shortcut edges.
  graph::Builder bb(nb);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    if (partition_.part[u] != partition_.part[v]) {
      bb.add_edge(boundary_idx_[u], boundary_idx_[v], g.weight(e));
    }
  }
  for (std::uint32_t p = 0; p < parts_.size(); ++p) {
    const auto& bl = parts_[p].boundary_local;
    for (std::size_t i = 0; i < bl.size(); ++i) {
      for (std::size_t j = i + 1; j < bl.size(); ++j) {
        const graph::Weight w = parts_[p].dist.at(bl[i], bl[j]);
        if (w != graph::kInfWeight) {
          bb.add_edge(boundary_idx_[parts_[p].vertices[bl[i]]],
                      boundary_idx_[parts_[p].vertices[bl[j]]], w);
        }
      }
    }
  }
  const graph::Graph boundary_graph =
      std::move(bb).build(graph::ParallelEdgePolicy::KeepMinWeight);

  // Phase 4: APSP on the boundary graph.
  boundary_dist_ = sssp::DistanceMatrix(nb);
  {
    sssp::DijkstraWorkspace ws(nb);
    for (std::uint32_t b = 0; b < nb; ++b) {
      ws.distances(boundary_graph, b, boundary_dist_.row(b));
    }
  }

  // Phase 5: exit tables — global distance from every vertex to every
  // boundary vertex via its own part's boundary.
  exit_.assign(static_cast<std::size_t>(n) * nb, graph::kInfWeight);
  for (graph::VertexId u = 0; u < n; ++u) {
    const auto& part = parts_[partition_.part[u]];
    const graph::VertexId lu = local_id_[u];
    for (std::uint32_t b = 0; b < nb; ++b) {
      graph::Weight best = graph::kInfWeight;
      for (const graph::VertexId bl : part.boundary_local) {
        const graph::Weight d1 = part.dist.at(lu, bl);
        if (d1 == graph::kInfWeight) continue;
        const std::uint32_t b1 = boundary_idx_[part.vertices[bl]];
        const graph::Weight d2 = boundary_dist_.at(b1, b);
        if (d2 == graph::kInfWeight) continue;
        best = std::min(best, d1 + d2);
      }
      exit_[static_cast<std::size_t>(u) * nb + b] = best;
    }
  }
}

sssp::DistanceMatrix DjidjevApsp::materialize() const {
  const graph::VertexId n = g_.num_vertices();
  sssp::DistanceMatrix d(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    auto row = d.row(u);
    row[u] = 0;
    // Per part: seed each target with the boundary route, then overlay the
    // same-part direct distances.
    for (std::uint32_t p = 0; p < parts_.size(); ++p) {
      const Part& part = parts_[p];
      for (const graph::VertexId bl : part.boundary_local) {
        const std::uint32_t b = boundary_idx_[part.vertices[bl]];
        const graph::Weight d1 = exit_at(u, b);
        if (d1 == graph::kInfWeight) continue;
        const auto brow = part.dist.row(bl);
        for (graph::VertexId lv = 0; lv < part.vertices.size(); ++lv) {
          const graph::Weight cand = d1 + brow[lv];
          graph::Weight& cell = row[part.vertices[lv]];
          if (cand < cell) cell = cand;
        }
      }
    }
    const Part& pu = parts_[partition_.part[u]];
    const auto urow = pu.dist.row(local_id_[u]);
    for (graph::VertexId lv = 0; lv < pu.vertices.size(); ++lv) {
      graph::Weight& cell = row[pu.vertices[lv]];
      if (urow[lv] < cell) cell = urow[lv];
    }
    row[u] = 0;
  }
  return d;
}

graph::Weight DjidjevApsp::distance(graph::VertexId u,
                                    graph::VertexId v) const {
  if (u == v) return 0;
  const std::uint32_t pu = partition_.part[u];
  const std::uint32_t pv = partition_.part[v];
  graph::Weight best = graph::kInfWeight;
  if (pu == pv) {
    best = parts_[pu].dist.at(local_id_[u], local_id_[v]);
  }
  // Through the boundary: exit table of u + within-part approach to v.
  const auto& part_v = parts_[pv];
  for (const graph::VertexId bl : part_v.boundary_local) {
    const std::uint32_t b = boundary_idx_[part_v.vertices[bl]];
    const graph::Weight d1 = exit_at(u, b);
    if (d1 == graph::kInfWeight) continue;
    const graph::Weight d2 = part_v.dist.at(bl, local_id_[v]);
    if (d2 == graph::kInfWeight) continue;
    best = std::min(best, d1 + d2);
  }
  return best;
}

}  // namespace eardec::baselines
