// Phase III stage 2 regression (labelled hetero: CI re-runs this suite
// under ThreadSanitizer, where stages A and B of the AP table run on the
// pool or the device). Every ap_distance must equal, bit for bit, the
// per-source block-cut-tree walk that evaluates block_distance on every
// tree edge.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/ear_apsp.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "testing/families.hpp"

namespace eardec::core {
namespace {

namespace gen = graph::generators;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

/// The reference table, a x a by cut index: from each source AP, a DFS
/// over the block-cut tree carrying the distance at the entry cut. Every
/// other cut c of a block entered through cut e is at
/// dist + block_distance(block, e, c).
std::vector<Weight> reference_ap_table(const EarApspEngine& engine) {
  const connectivity::BlockCutTree& bct = engine.block_cut_tree();
  const std::vector<VertexId>& cuts = bct.cut_vertices();
  const std::size_t a = cuts.size();
  const std::uint32_t blocks = bct.num_blocks();
  std::vector<Weight> table(a * a, graph::kInfWeight);
  struct Frame {
    std::uint32_t node;
    std::uint32_t from;
    Weight dist;  // distance from the source AP to this node's entry cut
  };
  constexpr std::uint32_t kNone = UINT32_MAX;
  for (std::uint32_t ai = 0; ai < a; ++ai) {
    Weight* row = table.data() + std::size_t{ai} * a;
    row[ai] = 0;
    std::vector<Frame> stack{{bct.cut_node(ai), kNone, 0.0}};
    while (!stack.empty()) {
      const Frame f = stack.back();
      stack.pop_back();
      if (f.node < blocks) {
        const VertexId entry =
            engine.component_local(f.node, cuts[f.from - blocks]);
        for (const std::uint32_t nb : bct.neighbors(f.node)) {
          if (nb == f.from) continue;
          const std::uint32_t ci = nb - blocks;
          const Weight d =
              f.dist + engine.block_distance(
                           f.node, entry,
                           engine.component_local(f.node, cuts[ci]));
          if (d < row[ci]) row[ci] = d;
          stack.push_back({nb, f.node, d});
        }
      } else {
        for (const std::uint32_t nb : bct.neighbors(f.node)) {
          if (nb == f.from) continue;
          stack.push_back({nb, f.node, f.dist});
        }
      }
    }
  }
  return table;
}

/// Builds the engine in every execution mode and compares its whole AP
/// table with the reference, bit for bit. Sets `asymmetric` to the number
/// of ordered AP pairs whose two directions differ in their bits.
void expect_ap_table_matches_reference(const Graph& g,
                                       const std::string& label,
                                       std::size_t& asymmetric) {
  for (const ExecutionMode mode :
       {ExecutionMode::Sequential, ExecutionMode::Multicore,
        ExecutionMode::DeviceOnly, ExecutionMode::Heterogeneous}) {
    const EarApspEngine engine(
        g, {.mode = mode,
            .cpu_threads = 3,
            .device = {.workers = 2, .warp_size = 4}});
    const std::vector<Weight> ref = reference_ap_table(engine);
    const std::vector<VertexId>& cuts =
        engine.block_cut_tree().cut_vertices();
    const std::size_t a = cuts.size();
    asymmetric = 0;
    for (std::size_t i = 0; i < a; ++i) {
      for (std::size_t j = 0; j < a; ++j) {
        const Weight got = engine.ap_distance(cuts[i], cuts[j]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(ref[i * a + j]))
            << label << " mode " << static_cast<int>(mode) << " AP pair "
            << cuts[i] << "," << cuts[j];
        asymmetric += std::bit_cast<std::uint64_t>(got) !=
                      std::bit_cast<std::uint64_t>(ref[j * a + i]);
      }
    }
  }
}

/// `g` with every weight replaced by a real value from [0.1, 10): sums of
/// such weights round, so d(e, c) and d(c, e) can differ in their last bit.
Graph with_real_weights(const Graph& g, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Weight> weight(0.1, 10.0);
  graph::Builder b(g.num_vertices());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    b.add_edge(u, v, weight(rng));
  }
  return std::move(b).build();
}

// The family name is a std::string, not a const char*: gtest prints a
// char-pointer parameter with its address, which would put a different
// test name in every discovery run.
class ApTableFamilyTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ApTableFamilyTest, MatchesPerEdgeWalkBitwise) {
  const auto [name, seed] = GetParam();
  const Graph g = eardec::testing::family(name).make(seed, 60);
  std::size_t asymmetric = 0;
  expect_ap_table_matches_reference(g, name, asymmetric);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ApTableFamilyTest,
    ::testing::Combine(::testing::Values("block_cut", "bridge_tree",
                                         "sparse_connected",
                                         "degenerate_weights",
                                         "parallel_multi", "disconnected"),
                       ::testing::Values<std::uint64_t>(1, 2)),
    [](const auto& case_info) {
      return std::get<0>(case_info.param) + "_seed" +
             std::to_string(std::get<1>(case_info.param));
    });

TEST(ApTable, RealWeightsMatchPerEdgeWalkBitwise) {
  // Large blocks with many cut vertices each, so stage A has rows with
  // many entries and the asymmetric rounding shows up.
  const Graph g = with_real_weights(
      gen::block_tree({.num_blocks = 12,
                       .largest_block = 60,
                       .small_block_min = 6,
                       .small_block_max = 20,
                       .pendants = 30},
                      5),
      11);
  std::size_t asymmetric = 0;
  expect_ap_table_matches_reference(g, "real weights", asymmetric);
  EXPECT_GT(asymmetric, 0u)
      << "no AP pair rounds differently in its two directions; the "
         "instance does not exercise the association";
}

TEST(ApTable, Table1ScaleMatchesPerEdgeWalkBitwise) {
  // A Table-1-calibrated graph: one dominant block holding most of the
  // articulation points, the shape of the perfbench build_scale graph.
  std::size_t asymmetric = 0;
  expect_ap_table_matches_reference(gen::table1_scale(1500, 42),
                                    "table1_scale(1500)", asymmetric);
}

}  // namespace
}  // namespace eardec::core
