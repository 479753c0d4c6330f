// Scheduler-path tests for the batched phase-II kernels (labelled hetero:
// CI re-runs this suite under ThreadSanitizer). The k-lane multi-source
// kernel — on CPU workers and split into device blocks — must produce the
// same matrix as the Sequential/Dijkstra pipeline when driven through the
// work queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/generators.hpp"
#include "hetero/thread_pool.hpp"

namespace eardec::core {
namespace {

namespace gen = graph::generators;
using graph::Graph;
using graph::VertexId;

Graph blocky_graph(std::uint64_t seed, VertexId largest_block = 48) {
  // Biconnected blocks of very different sizes glued in a tree: the work
  // queue sees both wide units (batched kernel) and tiny components
  // (Dijkstra fallback under Auto).
  gen::BlockTreeParams params;
  params.num_blocks = 6;
  params.largest_block = largest_block;
  params.small_block_min = 3;
  params.small_block_max = 10;
  params.pendants = 4;
  return gen::block_tree(params, seed);
}

sssp::DistanceMatrix matrix_for(const Graph& g, ExecutionMode mode,
                                CpuSsspKernel cpu,
                                std::uint32_t sources_per_unit,
                                unsigned device_workers = 2) {
  ApspOptions opts;
  opts.mode = mode;
  opts.cpu_threads = 3;
  opts.device = {.workers = device_workers, .warp_size = 4};
  opts.cpu_kernel = cpu;
  opts.sources_per_unit = sources_per_unit;
  return ear_apsp_matrix(g, opts);
}

void expect_bitwise_equal(const sssp::DistanceMatrix& got,
                          const sssp::DistanceMatrix& ref,
                          const std::string& label) {
  ASSERT_EQ(got.size(), ref.size()) << label;
  for (VertexId u = 0; u < ref.size(); ++u) {
    for (VertexId v = 0; v < ref.size(); ++v) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(u, v)),
                std::bit_cast<std::uint64_t>(ref.at(u, v)))
          << label << " pair " << u << "," << v;
    }
  }
}

class MultiSourceSchedulerTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultiSourceSchedulerTest, ForcedMultiSourceMatchesSequentialDijkstra) {
  const Graph g = blocky_graph(GetParam());
  const auto ref = matrix_for(g, ExecutionMode::Sequential,
                              CpuSsspKernel::Dijkstra, 16);
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    expect_bitwise_equal(matrix_for(g, ExecutionMode::Multicore,
                                    CpuSsspKernel::MultiSource, k),
                         ref, "k=" + std::to_string(k));
  }
}

TEST_P(MultiSourceSchedulerTest, HeterogeneousAutoMatchesSequential) {
  const Graph g = blocky_graph(GetParam() + 100);
  const auto ref = matrix_for(g, ExecutionMode::Sequential,
                              CpuSsspKernel::Dijkstra, 16);
  // Paper mode with both batched paths live: CPU workers run the Auto
  // selector (batched on wide units, Dijkstra on narrow ones), the device
  // splits its units into multi-source blocks.
  expect_bitwise_equal(matrix_for(g, ExecutionMode::Heterogeneous,
                                  CpuSsspKernel::Auto, 8),
                       ref, "hetero");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSourceSchedulerTest,
                         ::testing::Range<std::uint64_t>(1, 5));

// Device split: a unit's sources go out as min(device workers, passes)
// contiguous slices cut on 16-lane boundaries, where passes is the number
// of lane blocks the unit spans. Covers single-pass units narrower than
// the lane block (1 and 5 sources) and exactly one block (16), and
// multi-pass units split across workers with a ragged last pass (17 and
// 33 sources) or none (48). The largest block reduces to well over 48
// vertices, so no unit is clipped below its nominal width.
class DeviceSplitTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint32_t>> {};

TEST_P(DeviceSplitTest, DeviceModesMatchSequentialBitwise) {
  const auto [workers, sources_per_unit] = GetParam();
  const Graph g = blocky_graph(7, 120);
  const auto ref = matrix_for(g, ExecutionMode::Sequential,
                              CpuSsspKernel::Dijkstra, 16);
  for (const ExecutionMode mode :
       {ExecutionMode::DeviceOnly, ExecutionMode::Heterogeneous}) {
    expect_bitwise_equal(
        matrix_for(g, mode, CpuSsspKernel::Auto, sources_per_unit, workers),
        ref,
        mode == ExecutionMode::DeviceOnly ? "DeviceOnly" : "Heterogeneous");
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersBySourcesPerUnit, DeviceSplitTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(1u, 5u, 16u, 17u, 33u, 48u)),
    [](const auto& case_info) {
      return "workers" + std::to_string(std::get<0>(case_info.param)) +
             "_spu" + std::to_string(std::get<1>(case_info.param));
    });

TEST(ParallelForSlots, SlotsAreRaceFreePartition) {
  hetero::ThreadPool pool(3);
  const std::size_t n = 10000;
  // One counter vector per slot: no synchronization inside the body, so
  // TSan proves two slots never alias.
  std::vector<std::vector<std::size_t>> per_slot(pool.max_slots());
  pool.parallel_for_slots(
      0, n,
      [&](std::size_t i, unsigned slot) {
        ASSERT_LT(slot, pool.max_slots());
        per_slot[slot].push_back(i);
      },
      8);
  std::vector<std::size_t> seen;
  for (const auto& bucket : per_slot) {
    seen.insert(seen.end(), bucket.begin(), bucket.end());
  }
  ASSERT_EQ(seen.size(), n);
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(seen[i], i);
}

}  // namespace
}  // namespace eardec::core
