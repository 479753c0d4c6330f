// Floyd–Warshall APSP, plain and cache-blocked. Included as the classical
// dense baseline the APSP literature (Buluc, Matsumoto, Katz — see the
// paper's related work) builds on; practical here for the small reduced
// graphs the ear decomposition produces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "graph/graph.hpp"
#include "hetero/thread_pool.hpp"

namespace eardec::sssp {

using graph::Graph;
using graph::VertexId;
using graph::Weight;

/// Dense n x n distance matrix with flat row-major storage. Move-only: the
/// tables are hundreds of megabytes, so a copy is never what the caller
/// wants.
class DistanceMatrix {
 public:
  DistanceMatrix() = default;
  /// Every entry +infinity.
  explicit DistanceMatrix(VertexId n) : DistanceMatrix(for_overwrite(n)) {
    std::fill_n(data_.get(), cells(), graph::kInfWeight);
  }
  /// Entries left unwritten, for a producer that overwrites every row
  /// before anything reads it (Phase II): the +inf fill of a large table
  /// is a serial pass over all of its pages.
  [[nodiscard]] static DistanceMatrix for_overwrite(VertexId n) {
    DistanceMatrix m;
    m.n_ = n;
    m.data_ = std::make_unique_for_overwrite<Weight[]>(m.cells());
    return m;
  }

  [[nodiscard]] VertexId size() const noexcept { return n_; }
  [[nodiscard]] Weight& at(VertexId i, VertexId j) {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }
  [[nodiscard]] Weight at(VertexId i, VertexId j) const {
    return data_[static_cast<std::size_t>(i) * n_ + j];
  }
  /// Row i as a contiguous span.
  [[nodiscard]] std::span<Weight> row(VertexId i) {
    return {data_.get() + static_cast<std::size_t>(i) * n_, n_};
  }
  [[nodiscard]] std::span<const Weight> row(VertexId i) const {
    return {data_.get() + static_cast<std::size_t>(i) * n_, n_};
  }
  [[nodiscard]] std::size_t bytes() const noexcept {
    return cells() * sizeof(Weight);
  }

 private:
  [[nodiscard]] std::size_t cells() const noexcept {
    return static_cast<std::size_t>(n_) * n_;
  }

  VertexId n_ = 0;
  std::unique_ptr<Weight[]> data_;
};

/// Adjacency-seeded matrix: 0 diagonal, min parallel-edge weight elsewhere.
[[nodiscard]] DistanceMatrix adjacency_matrix(const Graph& g);

/// Textbook O(n^3) Floyd–Warshall.
[[nodiscard]] DistanceMatrix floyd_warshall(const Graph& g);

/// Cache-blocked Floyd–Warshall with block size `block`; rounds process the
/// pivot tile, then its row/column tiles, then the remainder (optionally in
/// parallel over tiles).
[[nodiscard]] DistanceMatrix blocked_floyd_warshall(
    const Graph& g, VertexId block = 64, hetero::ThreadPool* pool = nullptr);

}  // namespace eardec::sssp
