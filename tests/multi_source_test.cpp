// Scheduler-path tests for the batched phase-II kernels (labelled hetero:
// CI re-runs this suite under ThreadSanitizer). The 16-lane multi-source
// kernel — on CPU workers and split into device blocks, unseeded in a
// component's first wave and seeded from the rows of earlier waves after
// it — must give Dijkstra's distances when driven through the work queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <random>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "hetero/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sssp/dijkstra.hpp"
#include "testing/oracles.hpp"

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

// A largest block that reduces to about 1,000 vertices (well over 512): its
// waves are then at least 48 sources long (see wave_length), so units of up
// to 48 sources run whole, several lane blocks at a time, in every wave.
constexpr VertexId kWideBlock = 1600;

// Phase II cuts a component's reduced sources into waves of
// round_up(ceil(n_r / 16), 16) and seeds every pass from the rows of
// earlier waves; a unit never straddles a wave end.
VertexId wave_length(VertexId nr) {
  const VertexId per_wave = (nr + 15) / 16;
  return std::max<VertexId>(16, (per_wave + 15) / 16 * 16);
}

VertexId largest_reduced(const EarApspEngine& engine) {
  VertexId largest = 0;
  for (std::uint32_t c = 0; c < engine.num_components(); ++c) {
    largest = std::max(largest, engine.reduced(c).graph().num_vertices());
  }
  return largest;
}

// The premise of the wave tests: the dominant reduced block spans at least
// three waves, each at least as long as the widest unit tested, so no unit
// is clipped below its nominal width.
void assert_wide_waves(VertexId largest, VertexId widest_unit) {
  const VertexId len = wave_length(largest);
  ASSERT_GE(len, widest_unit)
      << "largest reduced block " << largest << " clips units to " << len;
  ASSERT_GT(largest, 2 * len)
      << "largest reduced block " << largest << " spans under three waves";
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

// Row u is sssp::dijkstra(g, u) on the original graph. blocky_graph's
// weights are integers, so every path sum is exact and the pipeline must
// reproduce these bits in whatever order it adds a path's pieces.
sssp::DistanceMatrix dijkstra_matrix(const Graph& g) {
  sssp::DistanceMatrix d(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const std::vector<graph::Weight> dist = sssp::dijkstra(g, u).dist;
    std::ranges::copy(dist, d.row(u).begin());
  }
  return d;
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
  const auto ref = dijkstra_matrix(g);
  for (const std::uint32_t k : {1u, 4u, 16u}) {
    expect_bitwise_equal(matrix_for(g, ExecutionMode::Multicore,
                                    CpuSsspKernel::MultiSource, k),
                         ref, "k=" + std::to_string(k));
  }
}

TEST_P(MultiSourceSchedulerTest, HeterogeneousAutoMatchesSequential) {
  const Graph g = blocky_graph(GetParam() + 100);
  // Paper mode with both batched paths live: CPU workers run the Auto
  // selector (batched on wide units, Dijkstra on narrow first-wave ones),
  // the device splits its units into multi-source blocks. The reference is
  // per-source sequential Dijkstra.
  expect_bitwise_equal(matrix_for(g, ExecutionMode::Heterogeneous,
                                  CpuSsspKernel::Auto, 8),
                       dijkstra_matrix(g), "hetero");
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiSourceSchedulerTest,
                         ::testing::Range<std::uint64_t>(1, 5));

// Device split: a unit's sources go out as min(device workers, passes)
// contiguous slices cut on 16-lane boundaries, where passes is the number
// of lane blocks the unit spans. Covers single-pass units narrower than
// the lane block (1 and 5 sources) and exactly one block (16), and
// multi-pass units split across workers with a ragged last pass (17 and
// 33 sources) or none (48). The largest block reduces to a component whose
// waves are at least 48 sources long, so no unit is clipped below its
// nominal width, and every wave after the first runs seeded.
constexpr std::array<std::uint32_t, 6> kDeviceSplitWidths{1, 5, 16,
                                                          17, 33, 48};

struct DeviceSplitCase {
  Graph graph;
  sssp::DistanceMatrix reference;
  VertexId largest_nr = 0;
};

const DeviceSplitCase& device_split_case() {
  static const DeviceSplitCase c = [] {
    Graph g = blocky_graph(7, kWideBlock);
    sssp::DistanceMatrix reference = dijkstra_matrix(g);
    const VertexId largest = largest_reduced(EarApspEngine(
        g, ApspOptions{.mode = ExecutionMode::Sequential}));
    return DeviceSplitCase{std::move(g), std::move(reference), largest};
  }();
  return c;
}

class DeviceSplitTest
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint32_t>> {};

TEST_P(DeviceSplitTest, DeviceModesMatchSequentialBitwise) {
  const auto [workers, sources_per_unit] = GetParam();
  const DeviceSplitCase& c = device_split_case();
  ASSERT_NO_FATAL_FAILURE(assert_wide_waves(
      c.largest_nr, *std::ranges::max_element(kDeviceSplitWidths)));
  for (const ExecutionMode mode :
       {ExecutionMode::DeviceOnly, ExecutionMode::Heterogeneous}) {
    expect_bitwise_equal(
        matrix_for(c.graph, mode, CpuSsspKernel::Auto, sources_per_unit,
                   workers),
        c.reference,
        mode == ExecutionMode::DeviceOnly ? "DeviceOnly" : "Heterogeneous");
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkersBySourcesPerUnit, DeviceSplitTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::ValuesIn(kDeviceSplitWidths)),
    [](const auto& case_info) {
      return "workers" + std::to_string(std::get<0>(case_info.param)) +
             "_spu" + std::to_string(std::get<1>(case_info.param));
    });

// Mirror-seeded waves. The known set depends only on the source and n_r,
// so every mode and unit width must give the same tables bit for bit;
// across waves an entry is its mirror's bits; and on integer weights the
// tables are Dijkstra's.
VertexId wave_of(VertexId s, VertexId nr) { return s / wave_length(nr); }

Graph reweighted(const Graph& g, std::span<const graph::Weight> palette,
                 std::uint64_t seed) {
  gen::Rng rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, palette.size() - 1);
  graph::Builder b(g.num_vertices());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    b.add_edge(u, v, palette[pick(rng)]);
  }
  return std::move(b).build();
}

class SeededWaveTest : public ::testing::TestWithParam<bool> {
 protected:
  [[nodiscard]] bool integer_weights() const { return GetParam(); }
  [[nodiscard]] Graph make_graph() const {
    static constexpr std::array<graph::Weight, 4> kDegenerate{0, 1e-9, 7.5,
                                                              1e12};
    static constexpr std::array<graph::Weight, 5> kInteger{1, 2, 3, 5, 8};
    const Graph g = blocky_graph(11, kWideBlock);
    return integer_weights() ? reweighted(g, kInteger, 5)
                             : reweighted(g, kDegenerate, 5);
  }
};

EarApspEngine engine_for(const Graph& g, ExecutionMode mode,
                         std::uint32_t sources_per_unit) {
  ApspOptions opts;
  opts.mode = mode;
  opts.cpu_threads = 3;
  opts.device = {.workers = 2, .warp_size = 4};
  opts.sources_per_unit = sources_per_unit;
  return EarApspEngine(g, opts);
}

TEST_P(SeededWaveTest, TablesMatchDijkstraAndTheirMirrors) {
  const Graph g = make_graph();
  const EarApspEngine ref = engine_for(g, ExecutionMode::Sequential, 32);
  ASSERT_NO_FATAL_FAILURE(assert_wide_waves(largest_reduced(ref), 32));
  for (std::uint32_t c = 0; c < ref.num_components(); ++c) {
    const Graph& rg = ref.reduced(c).graph();
    const VertexId nr = rg.num_vertices();
    const sssp::DistanceMatrix& table = ref.reduced_table(c);
    const graph::Weight tol = eardec::testing::distance_tolerance(rg);
    for (VertexId s = 0; s < nr; ++s) {
      const auto dist = sssp::dijkstra(rg, s).dist;
      for (VertexId t = 0; t < nr; ++t) {
        if (integer_weights()) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(table.at(s, t)),
                    std::bit_cast<std::uint64_t>(dist[t]))
              << "comp " << c << " pair " << s << "," << t;
        } else {
          ASSERT_TRUE(eardec::testing::weights_close(table.at(s, t), dist[t], tol))
              << "comp " << c << " pair " << s << "," << t << ": "
              << table.at(s, t) << " vs " << dist[t];
        }
        if (wave_of(s, nr) != wave_of(t, nr)) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(table.at(s, t)),
                    std::bit_cast<std::uint64_t>(table.at(t, s)))
              << "comp " << c << " pair " << s << "," << t;
        }
      }
    }
  }
}

TEST_P(SeededWaveTest, EveryModeAndUnitWidthGivesTheSameTables) {
  const Graph g = make_graph();
  const EarApspEngine ref = engine_for(g, ExecutionMode::Sequential, 32);
  ASSERT_NO_FATAL_FAILURE(assert_wide_waves(largest_reduced(ref), 32));
  for (const ExecutionMode mode :
       {ExecutionMode::Sequential, ExecutionMode::Multicore,
        ExecutionMode::DeviceOnly, ExecutionMode::Heterogeneous}) {
    for (const std::uint32_t spu : {1u, 4u, 16u, 32u}) {
      const EarApspEngine got = engine_for(g, mode, spu);
      ASSERT_EQ(got.num_components(), ref.num_components());
      for (std::uint32_t c = 0; c < ref.num_components(); ++c) {
        expect_bitwise_equal(got.reduced_table(c), ref.reduced_table(c),
                             "mode " + std::to_string(static_cast<int>(mode)) +
                                 " spu " + std::to_string(spu) + " comp " +
                                 std::to_string(c));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, SeededWaveTest, ::testing::Bool(),
                         [](const auto& weights_info) {
                           return weights_info.param ? "Integer"
                                                     : "Degenerate";
                         });

// Phase II drains once per wave; the scheduler gauges must still describe
// the whole phase (the summed drains of scheduler_stats()), not its last
// wave.
TEST(SeededWaveGauges, SchedulerGaugesCoverEveryWave) {
  constexpr std::uint32_t kWidth = 32;
  const Graph g = blocky_graph(11, kWideBlock);
  const EarApspEngine engine = engine_for(g, ExecutionMode::Multicore, kWidth);
  ASSERT_NO_FATAL_FAILURE(assert_wide_waves(largest_reduced(engine), kWidth));
  std::uint64_t units = 0;
  for (std::uint32_t c = 0; c < engine.num_components(); ++c) {
    const VertexId nr = engine.reduced(c).graph().num_vertices();
    const VertexId len = wave_length(nr);
    for (VertexId w = 0; w < nr; w += len) {
      units += (std::min(w + len, nr) - w + kWidth - 1) / kWidth;
    }
  }
  const hetero::SchedulerStats stats = engine.scheduler_stats();
  EXPECT_EQ(stats.cpu_units, units);
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.gauge("hetero.scheduler.elapsed_s").value(),
            stats.elapsed_seconds);
  EXPECT_EQ(reg.gauge("hetero.scheduler.utilization").value(),
            stats.utilization());
}

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
