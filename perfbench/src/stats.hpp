// Statistics and load-shape helpers of the benchmark: the percentile rule,
// the Poisson arrival schedule, the geometric rate grid and the capacity
// search over it. Header-only and free of eardec dependencies so the
// tests in tests/perfbench_test.cpp can drive them on known inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it before the benchmark reports
/// it (choosing-metrics rule: "the highest percentile that has at least
/// ten samples beyond it").
inline constexpr std::size_t kTailSupport = 10;

/// A timing reported as its median plus the highest percentile (at most
/// p99) with kTailSupport samples beyond it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double tail = 0;
  /// The percentile `tail` stands for, as a fraction: 0.99 from 1000
  /// samples on, 1 - 10/n between 21 and 999 samples, and 1.0 (the
  /// largest sample) below that, where no percentile above the median
  /// leaves ten samples beyond it.
  double tail_q = 0;
};

/// Nearest-rank index of the median of n sorted samples.
inline std::size_t median_index(std::size_t n) { return (n + 1) / 2 - 1; }

/// Nearest-rank index of the reported tail percentile of n samples.
inline std::size_t tail_index(std::size_t n) {
  if (n >= 1000) return (99 * n + 99) / 100 - 1;  // ceil(0.99 n) - 1
  if (n >= 2 * kTailSupport + 1) return n - kTailSupport - 1;
  return n - 1;
}

/// Summarizes `v` (reordered in place; nth_element keeps large sample sets
/// linear). An empty set summarizes to all zeros.
template <typename T>
Summary summarize(std::vector<T>& v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  const std::size_t ti = tail_index(v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(ti),
                   v.end());
  s.tail = static_cast<double>(v[ti]);
  const std::size_t mi = median_index(v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mi),
                   v.begin() + static_cast<std::ptrdiff_t>(ti));
  s.p50 = static_cast<double>(v[mi]);
  s.tail_q = v.size() >= 1000 ? 0.99
                              : static_cast<double>(ti + 1) /
                                    static_cast<double>(v.size());
  return s;
}

/// Summary of a long run in consecutive windows of `window` samples
/// (>= 1000, so each window has a p99 with ten samples beyond it): p50
/// over all samples, tail = the median of the windows' p99s. A burst that
/// stalls the host for a few milliseconds lands in one window and moves
/// that window's p99 only, where it would move a single p99 over the whole
/// run by however many bursts the run happened to catch.
template <typename T>
Summary summarize_windows(const std::vector<T>& v, std::size_t window) {
  if (v.size() < 2 * window) {
    std::vector<T> copy = v;
    return summarize(copy);
  }
  std::vector<double> tails;
  for (std::size_t w = 0; w + window <= v.size(); w += window) {
    std::vector<T> part(v.begin() + static_cast<std::ptrdiff_t>(w),
                        v.begin() + static_cast<std::ptrdiff_t>(w + window));
    tails.push_back(summarize(part).tail);
  }
  std::vector<T> copy = v;
  Summary s = summarize(copy);
  s.tail = summarize(tails).p50;
  s.tail_q = 0.99;
  return s;
}

/// Median of a small sample set (copied).
inline double median(std::vector<double> v) { return summarize(v).p50; }

/// Due times (seconds after the start) of `count` Poisson arrivals at
/// `rate` per second: cumulative exponential gaps drawn from `seed`.
inline std::vector<double> poisson_schedule(double rate, std::size_t count,
                                            std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> due(count);
  double t = 0;
  for (double& d : due) {
    t += gap(rng);
    d = t;
  }
  return due;
}

/// `steps` rates lo, lo*ratio, lo*ratio^2, ... — the fixed grid the
/// capacity search walks, so two runs can only land on the same values.
inline std::vector<double> geometric_grid(double lo, double ratio,
                                          std::size_t steps) {
  std::vector<double> g(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    g[i] = lo * std::pow(ratio, static_cast<double>(i));
  }
  return g;
}

/// Highest grid index at which `passes(index)` holds, assuming passing is
/// monotone (every rate below a passing one passes). Starts at `start`,
/// gallops away from it until the verdict flips, then bisects, so it
/// costs O(log steps) probes. nullopt when even index 0 fails.
template <typename Probe>
std::optional<std::size_t> capacity_search(std::size_t steps,
                                           std::size_t start, Probe passes) {
  // Invariant: every index <= lo passes (lo = -1: none known), every
  // index >= hi fails (hi = steps: none known).
  std::ptrdiff_t lo = -1;
  auto hi = static_cast<std::ptrdiff_t>(steps);
  auto probe = [&](std::ptrdiff_t i) {
    if (passes(static_cast<std::size_t>(i))) {
      lo = i;
    } else {
      hi = i;
    }
  };
  probe(static_cast<std::ptrdiff_t>(std::min(start, steps - 1)));
  for (std::ptrdiff_t step = 1; hi - lo > 1; step *= 2) {
    const bool up = lo >= 0 && hi == static_cast<std::ptrdiff_t>(steps);
    const bool down = lo < 0;
    if (!up && !down) break;
    probe(up ? std::min(lo + step, hi - 1) : std::max(hi - step, lo + 1));
  }
  while (hi - lo > 1) probe(lo + (hi - lo) / 2);
  if (lo < 0) return std::nullopt;
  return static_cast<std::size_t>(lo);
}

}  // namespace perfbench
