#include "baselines/plain_apsp.hpp"

#include <optional>

#include "hetero/scheduler.hpp"
#include "hetero/work_queue.hpp"
#include "obs/trace.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/frontier_sssp.hpp"

namespace eardec::baselines {

DistanceMatrix plain_apsp(const Graph& g, const ApspOptions& options) {
  const graph::VertexId n = g.num_vertices();
  EARDEC_TRACE_SCOPE("baseline.plain_apsp", "n", n);
  DistanceMatrix dist(n);
  if (n == 0) return dist;

  std::optional<hetero::Device> device;
  if (options.mode == core::ExecutionMode::DeviceOnly ||
      options.mode == core::ExecutionMode::Heterogeneous) {
    device.emplace(options.device);
  }

  std::vector<hetero::WorkUnit> units;
  const graph::VertexId step = std::max<graph::VertexId>(1, options.sources_per_unit);
  for (graph::VertexId s = 0; s < n; s += step) {
    units.push_back({static_cast<std::uint32_t>(s / step), step});
  }
  const auto sources_of = [&](const hetero::WorkUnit& wu) {
    const graph::VertexId begin = wu.id * step;
    return std::pair{begin, std::min<graph::VertexId>(begin + step, n)};
  };

  // Pooled per-worker workspaces: one Dijkstra heap per CPU worker and one
  // frontier buffer for the single device driver, allocated once up front.
  const unsigned cpu_workers =
      options.mode == core::ExecutionMode::Sequential
          ? 1
          : std::max(1u, options.cpu_threads);
  std::vector<sssp::DijkstraWorkspace> cpu_ws(cpu_workers);
  for (auto& ws : cpu_ws) ws.ensure(n);
  sssp::FrontierWorkspace device_ws;
  if (device) device_ws.ensure(n);

  const auto cpu_fn = [&](const hetero::WorkUnit& wu, unsigned worker) {
    const auto [begin, end] = sources_of(wu);
    sssp::DijkstraWorkspace& ws = cpu_ws[worker];
    for (graph::VertexId s = begin; s < end; ++s) {
      ws.distances(g, s, dist.row(s));
    }
  };
  const auto device_fn = [&](const hetero::WorkUnit& wu, unsigned) {
    const auto [begin, end] = sources_of(wu);
    for (graph::VertexId s = begin; s < end; ++s) {
      device_ws.distances(g, s, *device, dist.row(s));
    }
  };

  hetero::WorkQueue queue(std::move(units));
  switch (options.mode) {
    case core::ExecutionMode::Sequential:
      hetero::run_on_caller(queue, hetero::Side::Cpu, options.cpu_batch,
                            cpu_fn);
      break;
    case core::ExecutionMode::Multicore:
      hetero::run_cpu_only(queue, options.cpu_threads, cpu_fn,
                           options.cpu_batch);
      break;
    case core::ExecutionMode::DeviceOnly:
      hetero::run_on_caller(queue, hetero::Side::Device,
                            options.device_batch, device_fn);
      break;
    case core::ExecutionMode::Heterogeneous:
      hetero::run_heterogeneous(queue,
                                {.cpu_threads = options.cpu_threads,
                                 .cpu_batch = options.cpu_batch,
                                 .device_batch = options.device_batch},
                                cpu_fn, device_fn);
      break;
  }
  return dist;
}

}  // namespace eardec::baselines
