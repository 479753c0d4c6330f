#include "mcb/ear_mcb.hpp"

#include <cmath>
#include <mutex>
#include <optional>

#include "connectivity/bcc.hpp"
#include "hetero/scheduler.hpp"
#include "hetero/work_queue.hpp"
#include "obs/phase.hpp"
#include "reduce/reduced_graph.hpp"

namespace eardec::mcb {
namespace {

/// Solves one biconnected component end to end (contract, solve, expand),
/// returning cycles already remapped to the parent graph's edge ids.
McbResult solve_component(const Graph& g,
                          const connectivity::SubgraphView& view,
                          const McbOptions& options, hetero::ThreadPool* pool,
                          hetero::Device* device) {
  EARDEC_TRACE_SCOPE("mcb.component", "edges", view.graph.num_edges());
  double reduce_s = 0;
  std::optional<reduce::ReducedGraph> reduced;
  const Graph* solve_graph = &view.graph;
  {
    obs::ScopedPhase phase(reduce_s, "mcb.reduce", "mcb.phase.reduce_s");
    if (options.use_ear_decomposition) {
      reduced.emplace(view.graph, reduce::ReduceMode::ForMcb);
      solve_graph = &reduced->graph();
    }
  }

  McbResult comp = mm_mcb(*solve_graph, options, pool, device);
  comp.stats.reduce_seconds = reduce_s;

  // Expand every contracted edge back into its chain (Lemma 3.1's
  // post-processing) and remap component-local edges to ids in g.
  comp.total_weight = 0;
  for (Cycle& cycle : comp.basis) {
    std::vector<EdgeId> expanded;
    for (const EdgeId e : cycle.edges) {
      if (reduced) {
        for (const EdgeId ve : reduced->expand_edge(e)) {
          expanded.push_back(view.edge_to_parent[ve]);
        }
      } else {
        expanded.push_back(view.edge_to_parent[e]);
      }
    }
    cycle.edges = std::move(expanded);
    cycle.weight = cycle_weight(g, cycle.edges);
    comp.total_weight += cycle.weight;
  }
  return comp;
}

}  // namespace

McbResult minimum_cycle_basis(const Graph& g, const McbOptions& options_in) {
  McbResult result;

  // The heterogeneous schedule is dynamic: whichever side is faster takes
  // the work. On a host with a single hardware thread the software device
  // only time-slices against the CPU, so the optimal dynamic schedule IS
  // the sequential one — degrade instead of oversubscribing.
  McbOptions options = options_in;
  if (options.mode == ExecutionMode::Heterogeneous &&
      !hetero::host_has_parallelism()) {
    options.mode = ExecutionMode::Sequential;
  }

  std::optional<hetero::ThreadPool> pool;
  std::optional<hetero::Device> device;
  if (options.mode == ExecutionMode::Multicore ||
      options.mode == ExecutionMode::Heterogeneous) {
    pool.emplace(options.cpu_threads);
  }
  if (options.mode == ExecutionMode::DeviceOnly ||
      options.mode == ExecutionMode::Heterogeneous) {
    device.emplace(options.device);
  }

  // Pre-processing: per-component split (no MCB cycle spans two biconnected
  // components). Bridges contribute nothing to the cycle space; self-loop
  // components contribute themselves.
  const auto bcc = connectivity::biconnected_components(g);
  std::vector<std::uint32_t> cyclic;  // components with at least one cycle
  std::vector<connectivity::SubgraphView> views;
  for (std::uint32_t c = 0; c < bcc.num_components; ++c) {
    auto view = connectivity::extract_component(g, bcc, c);
    if (view.graph.num_edges() + 1 <= view.graph.num_vertices()) continue;
    cyclic.push_back(c);
    views.push_back(std::move(view));
  }

  std::vector<McbResult> per_component(views.size());
  if (views.size() <= 1 || options.mode == ExecutionMode::Sequential) {
    // Single (or no) cyclic component: all parallelism lives inside the
    // solver's phases.
    for (std::size_t i = 0; i < views.size(); ++i) {
      per_component[i] = solve_component(g, views[i], options,
                                         pool ? &*pool : nullptr,
                                         device ? &*device : nullptr);
    }
  } else {
    // Many components: the paper's outer work units — one per biconnected
    // component, sorted by size, CPU threads and the device draining the
    // queue from opposite ends (Section 2.3 applied to MCB). Inner solver
    // runs stay single-resource to avoid nested pools.
    std::vector<hetero::WorkUnit> units;
    units.reserve(views.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      units.push_back({static_cast<std::uint32_t>(i),
                       views[i].graph.num_edges()});
    }
    McbOptions cpu_opts = options;
    cpu_opts.mode = ExecutionMode::Sequential;
    McbOptions dev_opts = options;
    dev_opts.mode = ExecutionMode::DeviceOnly;
    const auto cpu_fn = [&](const hetero::WorkUnit& wu, unsigned) {
      per_component[wu.id] =
          solve_component(g, views[wu.id], cpu_opts, nullptr, nullptr);
    };
    const auto device_fn = [&](const hetero::WorkUnit& wu, unsigned) {
      per_component[wu.id] =
          solve_component(g, views[wu.id], dev_opts, nullptr, &*device);
    };
    hetero::WorkQueue queue(std::move(units));
    switch (options.mode) {
      case ExecutionMode::Multicore:
        hetero::run_cpu_only(queue, options.cpu_threads, cpu_fn);
        break;
      case ExecutionMode::DeviceOnly:
        hetero::run_on_caller(queue, hetero::Side::Device, 1, device_fn);
        break;
      case ExecutionMode::Heterogeneous:
        hetero::run_heterogeneous(queue,
                                  {.cpu_threads = options.cpu_threads,
                                   .cpu_batch = 1,
                                   .device_batch = 1},
                                  cpu_fn, device_fn);
        break;
      case ExecutionMode::Sequential:
        break;  // handled above
    }
  }

  // Deterministic merge in component order, regardless of scheduling.
  for (McbResult& comp : per_component) {
    result.total_weight += comp.total_weight;
    result.stats.accumulate(comp.stats);
    for (Cycle& cycle : comp.basis) {
      result.basis.push_back(std::move(cycle));
    }
  }
  return result;
}

bool validate_basis(const Graph& g, const McbResult& result) {
  // Dimension must equal m - n + #components.
  const auto cc = connectivity::connected_components(g);
  const auto expected = static_cast<std::int64_t>(g.num_edges()) -
                        g.num_vertices() + cc.count;
  if (static_cast<std::int64_t>(result.basis.size()) != expected) return false;

  const SpanningTree tree = build_spanning_tree(g);
  std::vector<BitVector> vectors;
  vectors.reserve(result.basis.size());
  Weight total = 0;
  for (const Cycle& c : result.basis) {
    if (!is_cycle_space_element(g, c.edges)) return false;
    if (std::abs(cycle_weight(g, c.edges) - c.weight) > 1e-6) return false;
    total += c.weight;
    vectors.push_back(restricted_vector(c, tree));
  }
  if (std::abs(total - result.total_weight) > 1e-6) return false;
  return gf2_independent(vectors);
}

}  // namespace eardec::mcb
