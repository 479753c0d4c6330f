// Heterogeneous scheduler: drains a WorkQueue concurrently from both ends —
// CPU threads claim small units from the light end, a device driver thread
// claims large units in device-sized batches from the heavy end. This is
// the paper's execution model for both APSP (one unit per biconnected
// component or per source vertex) and MCB (units per shortest-path tree /
// witness).
//
// Claim sizes adapt to queue depth (guided self-scheduling): while the
// queue is long, each side grows its batch so claims — and with them
// CAS contention on the queue word — stay rare; as the queue drains,
// batches shrink back to the configured minimum so the tail stays balanced
// between CPU and device, preserving the paper's dynamic proportions.
//
// Callbacks receive a stable worker index (0..cpu_threads-1 for CPU
// workers, 0 for the single device driver) so callers can thread pooled
// per-worker workspaces (SSSP heaps, frontier buffers) through the drain
// without any per-unit allocation.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "hetero/device.hpp"
#include "hetero/thread_pool.hpp"
#include "hetero/work_queue.hpp"

namespace eardec::hetero {

/// True when the host exposes more than one hardware thread. Heterogeneous
/// drivers consult this before fanning out: on a single core the software
/// device and the CPU threads time-slice the same execution unit, so every
/// "overlap" is pure scheduling overhead and the dynamic both-ends-compete
/// discipline degenerates to its all-CPU limit. (hardware_concurrency may
/// report 0 when unknown; treat that as no parallelism.)
[[nodiscard]] inline bool host_has_parallelism() noexcept {
  return std::thread::hardware_concurrency() > 1;
}

/// How a hetero computation is split.
struct SchedulerConfig {
  /// CPU worker threads.
  unsigned cpu_threads = 4;
  /// Minimum units per CPU claim. The paper removes units "in proportion to
  /// the number of threads supported"; small minimums keep balance tight
  /// while guided growth keeps contention low on long queues.
  std::size_t cpu_batch = 1;
  /// Minimum units per device claim.
  std::size_t device_batch = 4;
  /// Upper bound on a grown claim (guided self-scheduling cap).
  std::size_t max_batch = 64;
};

/// Per-worker execution counters (index 0..cpu_threads-1, or the device
/// driver), for utilization reporting in the ablation benches.
struct WorkerStats {
  std::uint64_t units = 0;   ///< work units executed by this worker
  std::uint64_t claims = 0;  ///< successful (non-empty) queue claims
  double busy_seconds = 0;   ///< wall clock spent inside unit callbacks
};

/// How two merged drains relate in time — decides what happens to their
/// wall clocks in SchedulerStats::accumulate.
enum class RunOverlap {
  Sequential,  ///< back-to-back runs (bench repetitions): wall clocks add
  Concurrent,  ///< overlapping drains: the merged wall clock is the max —
               ///< summing would double-count the shared interval and
               ///< deflate utilization (busy / (elapsed * workers))
};

/// Execution counters of one drain, for tests and the ablation benches.
struct SchedulerStats {
  std::uint64_t cpu_units = 0;
  std::uint64_t device_units = 0;
  std::uint64_t cpu_claims = 0;
  std::uint64_t device_claims = 0;
  /// CAS retries observed by the queue during the drain (claim contention).
  std::uint64_t queue_contention = 0;
  /// Wall clock of the whole drain.
  double elapsed_seconds = 0;
  std::vector<WorkerStats> cpu_workers;  ///< one entry per CPU worker
  WorkerStats device_worker;

  /// Busy fraction across all participating workers: 1.0 means no worker
  /// ever waited on the queue or starved.
  [[nodiscard]] double utilization() const;

  /// Merges the counters of another drain. Counters always add; the wall
  /// clock adds for Sequential repetitions but takes the max for
  /// Concurrent (overlapping) drains, so merged utilization denominators
  /// reflect real elapsed time instead of double-counting the overlap.
  void accumulate(const SchedulerStats& other,
                  RunOverlap overlap = RunOverlap::Sequential);
};

/// Sets the hetero.scheduler.elapsed_s and .utilization gauges from
/// `stats`. Every drain publishes its own; a caller that runs one logical
/// drain as several back-to-back ones republishes their accumulated stats,
/// so the gauges describe the whole run rather than its last piece.
void publish_gauges(const SchedulerStats& stats);

/// A unit callback: `unit` to execute, `worker` the stable index of the
/// executing worker within its side (CPU workers 0..cpu_threads-1; the
/// device driver always passes 0).
using UnitFn = std::function<void(const WorkUnit& unit, unsigned worker)>;

/// Runs until the queue is empty. `cpu_fn` is invoked on CPU worker
/// threads; `device_fn` on the device driver thread (which typically
/// issues Device::launch internally). Pass the same function twice for a
/// homogeneous run.
SchedulerStats run_heterogeneous(WorkQueue& queue,
                                 const SchedulerConfig& config,
                                 const UnitFn& cpu_fn,
                                 const UnitFn& device_fn);

/// The worker a single-worker drain acts as: a CPU worker claims light
/// units (guided growth from `batch`), the device driver exactly `batch`
/// heavy ones.
enum class Side { Cpu, Device };

/// Drains the queue on the calling thread as one worker of `side` — the
/// Sequential and DeviceOnly modes — with the same stats as the threaded
/// drains.
SchedulerStats run_on_caller(WorkQueue& queue, Side side, std::size_t batch,
                             const UnitFn& fn);

/// Convenience: CPU-only drain of the queue with `threads` workers, each
/// claiming at least `cpu_batch` units per grab (grown adaptively while the
/// queue is long).
SchedulerStats run_cpu_only(WorkQueue& queue, unsigned threads,
                            const UnitFn& fn, std::size_t cpu_batch = 1);

}  // namespace eardec::hetero
