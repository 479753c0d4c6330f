#include "sssp/multi_source.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace eardec::sssp {
namespace {

constexpr std::uint32_t kLanes = kMaxSourceLanes;

/// dt[lane] = min(dt[lane], dv[lane] + w) for every lane; true when some
/// lane improved. The min keeps the old value unless the new one is
/// strictly smaller, so a lane changed exactly when its bit pattern did:
/// XOR-ing old and new patterns into one word is the compare, and keeps
/// the whole loop in vector registers.
bool relax_lanes(const Weight* dv, Weight* dt, Weight w) {
  std::uint64_t changed = 0;
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    const Weight old = dt[lane];
    const Weight nd = std::min(old, dv[lane] + w);
    dt[lane] = nd;
    changed |= std::bit_cast<std::uint64_t>(nd) ^
               std::bit_cast<std::uint64_t>(old);
  }
  return changed != 0;
}

}  // namespace

void MultiSourceWorkspace::ensure(VertexId num_vertices, std::uint32_t lanes) {
  if (lanes > kMaxSourceLanes) {
    throw std::invalid_argument("MultiSourceWorkspace: lanes > 16");
  }
  lane_capacity_ = std::max(lane_capacity_, lanes);
  const std::size_t want = static_cast<std::size_t>(num_vertices) * kLanes;
  if (dist_.size() < want) dist_.resize(want);
  if (queued_.size() < num_vertices) queued_.resize(num_vertices);
  frontier_.reserve(num_vertices);
  next_.reserve(num_vertices);
}

void MultiSourceWorkspace::distances(const Graph& g, VertexId src_begin,
                                     VertexId src_end, DistanceMatrix& out,
                                     VertexId known_end) {
  const VertexId n = g.num_vertices();
  if (src_begin >= src_end || src_end > n) {
    throw std::out_of_range("MultiSourceWorkspace: bad source range");
  }
  if (known_end > src_begin) {
    throw std::invalid_argument(
        "MultiSourceWorkspace: known vertices overlap the sources");
  }
  const std::uint32_t k = src_end - src_begin;
  if (k > lane_capacity_ ||
      dist_.size() < static_cast<std::size_t>(n) * kLanes) {
    throw std::invalid_argument(
        "MultiSourceWorkspace: ensure() capacity too small for this batch");
  }
  if (out.size() != n) {
    throw std::invalid_argument("MultiSourceWorkspace: bad output matrix");
  }

  // Lane L holds source src_begin + L; lanes k.. stay +inf throughout.
  // A known vertex t takes d(s, t) = d(t, s) from its finished row, and
  // starts on the frontier only if it borders an unknown vertex.
  frontier_.clear();
  next_.clear();
  for (VertexId t = 0; t < known_end; ++t) {
    Weight* dt = dist_.data() + static_cast<std::size_t>(t) * kLanes;
    std::copy_n(out.row(t).data() + src_begin, k, dt);
    std::fill(dt + k, dt + kLanes, graph::kInfWeight);
    if (std::ranges::any_of(g.neighbors(t), [&](const graph::HalfEdge& he) {
          return he.to >= known_end;
        })) {
      frontier_.push_back(t);
    }
  }
  std::fill(dist_.begin() + static_cast<std::size_t>(known_end) * kLanes,
            dist_.begin() + static_cast<std::size_t>(n) * kLanes,
            graph::kInfWeight);
  std::fill(queued_.begin(), queued_.begin() + n, 0);
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const VertexId s = src_begin + lane;
    dist_[static_cast<std::size_t>(s) * kLanes + lane] = 0;
    frontier_.push_back(s);
  }

  rounds_ = 0;
  visits_ = 0;
  while (!frontier_.empty()) {
    ++rounds_;
    visits_ += frontier_.size();
    for (const VertexId v : frontier_) {
      queued_[v] = 0;
      const Weight* dv = dist_.data() + static_cast<std::size_t>(v) * kLanes;
      for (const graph::HalfEdge& he : g.neighbors(v)) {
        if (he.to < known_end) continue;
        Weight* dt = dist_.data() + static_cast<std::size_t>(he.to) * kLanes;
        if (relax_lanes(dv, dt, he.weight) && queued_[he.to] == 0) {
          queued_[he.to] = 1;
          next_.push_back(he.to);
        }
      }
    }
    frontier_.swap(next_);
    next_.clear();
  }

  // Transpose the k live lanes into the row-major output: lane-major so
  // the writes stream sequentially through each row.
  for (std::uint32_t lane = 0; lane < k; ++lane) {
    const std::span<Weight> row = out.row(src_begin + lane);
    const Weight* col = dist_.data() + lane;
    for (VertexId v = 0; v < n; ++v) {
      row[v] = col[static_cast<std::size_t>(v) * kLanes];
    }
  }
}

}  // namespace eardec::sssp
