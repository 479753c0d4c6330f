// Maximal degree-two chains: the sequences of connected degree-two vertices
// the paper's preprocessing removes (Section 2.1.1).
//
// Inside one ear of an ear decomposition, each maximal run of degree-two
// vertices forms such a chain, and its two flanking vertices of degree >= 3
// are the paper's left(x)/right(x). We compute the chains by walking the
// graph directly (each chain is traversed once, O(n + m) total); the
// ear-based and walk-based definitions coincide, which the test suite
// verifies against ear_decomposition().
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace eardec::reduce {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;
using graph::Weight;

inline constexpr std::uint32_t kNoChain =
    std::numeric_limits<std::uint32_t>::max();

/// A maximal chain of degree-two vertices between two anchor vertices.
/// Anchors have degree != 2 — except for the *pure cycle* degenerate case
/// (every vertex of a cycle component has degree two), where one designated
/// anchor is picked on the cycle and left == right.
struct Chain {
  VertexId left = graph::kNullVertex;   ///< anchor at the start
  VertexId right = graph::kNullVertex;  ///< anchor at the end (may == left)
  std::vector<VertexId> interior;       ///< degree-2 vertices, left-to-right
  std::vector<EdgeId> edges;            ///< interior.size() + 1 edges in order
  /// prefix[i] = distance from `left` to interior[i] along the chain.
  std::vector<Weight> prefix;
  /// Total chain weight == distance from left to right along the chain.
  Weight total = 0;

  [[nodiscard]] bool is_cycle() const { return left == right; }
};

/// All maximal degree-two chains plus per-vertex membership.
struct ChainSet {
  std::vector<Chain> chains;
  /// Per vertex: index of the chain whose interior contains it, or kNoChain.
  std::vector<std::uint32_t> chain_of;
  /// Per interior vertex: its index within chain.interior (undefined
  /// for vertices with chain_of == kNoChain).
  std::vector<std::uint32_t> position;
  /// Per edge: index of the chain containing it, or kNoChain for edges
  /// between two anchors.
  std::vector<std::uint32_t> edge_chain;

  /// left(x)/right(x) and the chain distances to them, as in the paper.
  [[nodiscard]] VertexId left(VertexId x) const {
    return chains[chain_of[x]].left;
  }
  [[nodiscard]] VertexId right(VertexId x) const {
    return chains[chain_of[x]].right;
  }
  [[nodiscard]] Weight dist_left(VertexId x) const {
    const Chain& c = chains[chain_of[x]];
    return c.prefix[position[x]];
  }
  [[nodiscard]] Weight dist_right(VertexId x) const {
    const Chain& c = chains[chain_of[x]];
    return c.total - c.prefix[position[x]];
  }
};

/// Finds all maximal degree-two chains of g. Vertices incident to a
/// self-loop are treated as anchors (never removed). O(n + m).
///
/// `force_keep` (optional, size n) marks extra anchors: vertices that must
/// never be contracted even at degree two. The APSP pipeline passes an
/// all-true mask only when ear reduction is off (the BCC-only Banerjee
/// baseline and the w/o-ear ablation). With reduction on it passes none:
/// articulation points of in-block degree two are contracted like any
/// other degree-two vertex and reached through their chain's anchors.
[[nodiscard]] ChainSet find_chains(const Graph& g,
                                   const std::vector<bool>* force_keep = nullptr);

}  // namespace eardec::reduce
