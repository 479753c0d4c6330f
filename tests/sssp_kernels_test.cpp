// Tests for the alternative SSSP/APSP kernels: the batched multi-source
// kernel and the device blocked Floyd–Warshall. Multi-source must agree
// exactly — bit for bit — with Dijkstra, also when seeded from finished
// rows on integer weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/device_floyd_warshall.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/multi_source.hpp"
#include "testing/families.hpp"
#include "testing/oracles.hpp"

namespace eardec::sssp {
namespace {

namespace gen = graph::generators;
using graph::Builder;
using graph::Graph;

// ---------------------------------------------------------------------------
// Differential suites: every property family (including multigraph,
// disconnected and degenerate-weight ones) must yield bit-identical
// distances from every alternative kernel. EXPECT_EQ, not EXPECT_NEAR —
// the fixpoint argument (docs/sssp_perf.md) promises exact agreement.

class KernelFamilyTest
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::uint64_t>> {
 protected:
  [[nodiscard]] Graph make_graph() const {
    const auto& fam = eardec::testing::families()[std::get<0>(GetParam())];
    return fam.make(std::get<1>(GetParam()), 48);
  }
  [[nodiscard]] std::string family_name() const {
    return eardec::testing::families()[std::get<0>(GetParam())].name;
  }
};

TEST_P(KernelFamilyTest, MultiSourceBitMatchesDijkstra) {
  const Graph g = make_graph();
  const graph::VertexId n = g.num_vertices();
  if (n == 0) GTEST_SKIP() << "empty instance";
  // One workspace reused across batch widths: also exercises ensure()
  // growth and proves stale lane data never leaks between runs.
  MultiSourceWorkspace ws;
  for (const std::uint32_t k : {1u, 3u, 8u, kMaxSourceLanes}) {
    DistanceMatrix out(n);
    ws.ensure(n, k);
    for (graph::VertexId s = 0; s < n; s += k) {
      ws.distances(g, s, std::min<graph::VertexId>(s + k, n), out);
    }
    for (graph::VertexId s = 0; s < n; ++s) {
      const auto ref = dijkstra(g, s);
      for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(out.at(s, v), ref.dist[v])
            << family_name() << " k=" << k << " source " << s << " vertex "
            << v;
      }
    }
  }
}

TEST_P(KernelFamilyTest, PaddedBatchesBitMatchDijkstra) {
  const Graph g = make_graph();
  const graph::VertexId n = g.num_vertices();
  if (n == 0) GTEST_SKIP() << "empty instance";
  // Every batch narrower than the lane block runs with its unused lanes
  // padded with +inf; the live lanes must still match Dijkstra bit for bit.
  MultiSourceWorkspace ws(n, kMaxSourceLanes);
  for (const std::uint32_t k : {1u, 3u, 15u, 16u}) {
    DistanceMatrix out(n);
    for (graph::VertexId s = 0; s < n; s += k) {
      ws.distances(g, s, std::min<graph::VertexId>(s + k, n), out);
    }
    for (graph::VertexId s = 0; s < n; ++s) {
      const auto ref = dijkstra(g, s);
      for (graph::VertexId v = 0; v < n; ++v) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out.at(s, v)),
                  std::bit_cast<std::uint64_t>(ref.dist[v]))
            << family_name() << " k=" << k << " source " << s << " vertex "
            << v;
      }
    }
  }
}

bool integer_weights(const Graph& g) {
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.weight(e) != std::floor(g.weight(e))) return false;
  }
  return true;
}

TEST_P(KernelFamilyTest, SeededPassesMatchDijkstra) {
  const Graph g = make_graph();
  const graph::VertexId n = g.num_vertices();
  if (n == 0) GTEST_SKIP() << "empty instance";
  // Mirrored entries are exact for integer weights; otherwise an entry
  // seeded across known_end is a sum taken in the other direction.
  const bool exact = integer_weights(g);
  const graph::Weight tol = eardec::testing::distance_tolerance(g);
  DistanceMatrix ref(n);
  for (graph::VertexId s = 0; s < n; ++s) {
    std::ranges::copy(dijkstra(g, s).dist, ref.row(s).begin());
  }
  // Rows below the first solved source come from the Dijkstra table; the
  // rest are poisoned, then solved in passes of k seeded from everything
  // below known_end: nothing (0), the first 16 rows, or every earlier row
  // (src_begin, so each pass also reads the rows the kernel wrote).
  enum class Known { Zero, Sixteen, SrcBegin };
  MultiSourceWorkspace ws(n, kMaxSourceLanes);
  for (const std::uint32_t k : {1u, 7u, 16u}) {
    for (const Known known : {Known::Zero, Known::Sixteen, Known::SrcBegin}) {
      const graph::VertexId first =
          known == Known::Sixteen ? std::min<graph::VertexId>(16, n) : 0;
      DistanceMatrix out(n);
      for (graph::VertexId s = 0; s < n; ++s) {
        if (s < first) {
          std::ranges::copy(ref.row(s), out.row(s).begin());
        } else {
          std::ranges::fill(out.row(s),
                            std::numeric_limits<graph::Weight>::quiet_NaN());
        }
      }
      for (graph::VertexId s = first; s < n; s += k) {
        const graph::VertexId known_end =
            known == Known::Zero ? 0 : known == Known::Sixteen ? first : s;
        ws.distances(g, s, std::min<graph::VertexId>(s + k, n), out,
                     known_end);
      }
      for (graph::VertexId s = 0; s < n; ++s) {
        for (graph::VertexId v = 0; v < n; ++v) {
          const auto where = [&] {
            return family_name() + " k=" + std::to_string(k) + " known " +
                   std::to_string(static_cast<int>(known)) + " source " +
                   std::to_string(s) + " vertex " + std::to_string(v);
          };
          if (exact) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(out.at(s, v)),
                      std::bit_cast<std::uint64_t>(ref.at(s, v)))
                << where();
          } else {
            ASSERT_TRUE(
                eardec::testing::weights_close(out.at(s, v), ref.at(s, v), tol))
                << where() << ": " << out.at(s, v) << " vs " << ref.at(s, v);
          }
        }
      }
    }
  }
}

std::string kernel_family_test_name(
    const ::testing::TestParamInfo<KernelFamilyTest::ParamType>& info) {
  std::string name = eardec::testing::families()[std::get<0>(info.param)].name;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Families, KernelFamilyTest,
    ::testing::Combine(
        ::testing::Range<std::size_t>(0, eardec::testing::families().size()),
        ::testing::Values<std::uint64_t>(1, 2)),
    kernel_family_test_name);

TEST(MultiSource, RejectsBadBatches) {
  const Graph g = gen::cycle(6);
  MultiSourceWorkspace ws(g.num_vertices(), 4);
  DistanceMatrix out(g.num_vertices());
  EXPECT_THROW(ws.distances(g, 2, 1, out), std::out_of_range);  // empty
  EXPECT_THROW(ws.distances(g, 0, 5, out), std::invalid_argument);  // > lanes
  EXPECT_THROW(ws.distances(g, 4, 8, out), std::out_of_range);
  // Known vertices must all lie below the first source.
  EXPECT_THROW(ws.distances(g, 2, 4, out, 3), std::invalid_argument);
  EXPECT_NO_THROW(ws.distances(g, 2, 4, out, 2));
}

TEST(MultiSource, EnsureRejectsMoreLanesThanTheBlock) {
  MultiSourceWorkspace ws;
  EXPECT_NO_THROW(ws.ensure(8, kMaxSourceLanes));
  EXPECT_THROW(ws.ensure(8, kMaxSourceLanes + 1), std::invalid_argument);
  EXPECT_THROW(MultiSourceWorkspace(8, 17), std::invalid_argument);
}

TEST(MultiSource, ReportsFrontierRounds) {
  // A path graph forces one frontier round per hop.
  Builder b(5);
  for (graph::VertexId v = 0; v + 1 < 5; ++v) b.add_edge(v, v + 1, 1.0);
  const Graph g = std::move(b).build();
  MultiSourceWorkspace ws(g.num_vertices(), 1);
  DistanceMatrix out(g.num_vertices());
  ws.distances(g, 0, 1, out);
  EXPECT_GE(ws.last_rounds(), 4u);
  EXPECT_DOUBLE_EQ(out.at(0, 4), 4.0);
}

class DeviceFwTest : public ::testing::TestWithParam<graph::VertexId> {};

TEST_P(DeviceFwTest, MatchesHostFloydWarshallAtEveryBlockSize) {
  const graph::VertexId block = GetParam();
  const Graph g = gen::random_connected(60, 140, 9);
  hetero::Device dev({.workers = 2, .warp_size = 4});
  const DistanceMatrix got = device_floyd_warshall(g, dev, block);
  const DistanceMatrix ref = floyd_warshall(g);
  for (graph::VertexId i = 0; i < g.num_vertices(); ++i) {
    for (graph::VertexId j = 0; j < g.num_vertices(); ++j) {
      ASSERT_NEAR(got.at(i, j), ref.at(i, j), 1e-9)
          << "block " << block << " pair " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, DeviceFwTest,
                         ::testing::Values(1u, 7u, 16u, 64u, 128u));

TEST(DeviceFw, EmptyGraphAndKernelCount) {
  hetero::Device dev({.workers = 1});
  const DistanceMatrix d = device_floyd_warshall(Graph{}, dev);
  EXPECT_EQ(d.size(), 0u);
  // A graph with one tile launches exactly three kernels.
  const Graph g = gen::cycle(8);
  hetero::Device dev2({.workers = 1});
  (void)device_floyd_warshall(g, dev2, 8);
  EXPECT_EQ(dev2.kernels_launched(), 3u);
}

}  // namespace
}  // namespace eardec::sssp
