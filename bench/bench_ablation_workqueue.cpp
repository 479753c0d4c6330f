// Ablation A (DESIGN.md §4): the dynamic double-ended work queue vs a
// static split of the same work units between CPU threads and the device.
// Work units are deliberately skewed (one dominant biconnected component
// plus a long tail of small ones, as in the real datasets) — the regime
// where a static split strands one side idle and the paper's queue wins.
// Also sweeps the device batch size.
//
// Besides the google-benchmark timings, the binary always emits a
// machine-readable snapshot into bench_results/phase2_workqueue.json:
// Phase-II wall clock and units/sec per execution mode on a skewed
// block-tree APSP workload, plus the CPU/device unit split, claim counts
// and utilization from SchedulerStats. Successive PRs diff these files to
// track the Phase-II throughput trajectory (the seed's numbers live in
// bench_results/phase2_workqueue_seed.json, the pre-kernel-overhaul ones
// in bench_results/phase2_workqueue_main.json).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/ear_apsp.hpp"
#include "graph/generators.hpp"
#include "hetero/scheduler.hpp"
#include "hetero/work_queue.hpp"

namespace {

using namespace eardec::hetero;

/// Skewed synthetic units: sizes follow the BCC-size distribution of a
/// block-tree graph (one heavy unit, geometric tail). spin(size) emulates
/// size-proportional work.
std::vector<WorkUnit> skewed_units(std::uint32_t count) {
  std::vector<WorkUnit> units;
  units.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t size = i == 0 ? 4000 : 1 + 400 / (i + 1);
    units.push_back({i, size});
  }
  return units;
}

void spin_for(std::uint64_t size) {
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < size * 50; ++i) acc += i;
  benchmark::DoNotOptimize(acc);
}

void BM_DynamicQueue(benchmark::State& state) {
  for (auto _ : state) {
    WorkQueue q(skewed_units(64));
    run_heterogeneous(
        q,
        {.cpu_threads = 2,
         .cpu_batch = 1,
         .device_batch = static_cast<std::size_t>(state.range(0))},
        [](const WorkUnit& u, unsigned) { spin_for(u.size); },
        [](const WorkUnit& u, unsigned) { spin_for(u.size / 4); });
    // device 4x faster
  }
}

void BM_StaticSplit(benchmark::State& state) {
  for (auto _ : state) {
    // Same units, pre-assigned: first half (by heavy order) to the device,
    // second half to the CPU threads — no stealing across the boundary.
    auto units = skewed_units(64);
    WorkQueue order(units);
    const auto device_share = order.take_heavy(32);
    const auto cpu_share = order.take_light(32);
    std::thread device([&] {
      for (const auto& u : device_share) spin_for(u.size / 4);
    });
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> cpus;
    for (int t = 0; t < 2; ++t) {
      cpus.emplace_back([&] {
        while (true) {
          const std::size_t i = next.fetch_add(1);
          if (i >= cpu_share.size()) return;
          spin_for(cpu_share[i].size);
        }
      });
    }
    device.join();
    for (auto& t : cpus) t.join();
  }
}

BENCHMARK(BM_DynamicQueue)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StaticSplit)->Arg(0)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// JSON snapshot: Phase-II throughput per execution mode.

namespace core = eardec::core;
namespace gen = eardec::graph::generators;
using Clock = std::chrono::steady_clock;

struct ModeSnapshot {
  const char* name;
  core::ExecutionMode mode;
  double total_s = 0;
  core::PhaseTimings timings;
  SchedulerStats stats;
};

void emit_json() {
  gen::BlockTreeParams params;
  params.num_blocks = 96;
  params.largest_block = 1400;
  params.small_block_min = 6;
  params.small_block_max = 40;
  params.intra_degree = 3.0;
  params.pendants = 64;
  const eardec::graph::Graph base = gen::block_tree(params, 7);
  const eardec::graph::Graph g = gen::subdivide(base, 6000, 11);

  ModeSnapshot snapshots[] = {
      {"sequential", core::ExecutionMode::Sequential, 0, {}, {}},
      {"multicore", core::ExecutionMode::Multicore, 0, {}, {}},
      {"device", core::ExecutionMode::DeviceOnly, 0, {}, {}},
      {"heterogeneous", core::ExecutionMode::Heterogeneous, 0, {}, {}},
  };
  for (ModeSnapshot& snap : snapshots) {
    core::ApspOptions opts;
    opts.mode = snap.mode;
    opts.cpu_threads = 4;
    opts.device = {.workers = 2, .warp_size = 32};
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      const core::EarApsp apsp(g, opts);
      const double total =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (total < best) {
        best = total;
        snap.total_s = total;
        snap.timings = apsp.timings();
        snap.stats = apsp.engine().scheduler_stats();
      }
    }
  }

  std::filesystem::create_directories("bench_results");
  std::FILE* out = std::fopen("bench_results/phase2_workqueue.json", "w");
  if (out == nullptr) return;
  std::fprintf(out, "{\n");
  eardec::bench::json_stamp(out);
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"graph\": {\"n\": %u, \"m\": %u},\n  \"modes\": {\n",
               g.num_vertices(), g.num_edges());
  bool first = true;
  for (const ModeSnapshot& snap : snapshots) {
    const std::uint64_t units =
        snap.stats.cpu_units + snap.stats.device_units;
    const double process = snap.timings.process;
    std::fprintf(
        out,
        "%s    \"%s\": {\"total_s\": %.6f, \"decompose_s\": %.6f, "
        "\"reduce_s\": %.6f, \"process_s\": %.6f, \"postprocess_s\": %.6f, "
        "\"ap_table_s\": %.6f, \"units\": %llu, \"units_per_s\": %.1f, "
        "\"cpu_units\": %llu, \"device_units\": %llu, "
        "\"cpu_claims\": %llu, \"device_claims\": %llu, "
        "\"queue_contention\": %llu, \"utilization\": %.4f}",
        first ? "" : ",\n", snap.name, snap.total_s, snap.timings.decompose,
        snap.timings.reduce, process, snap.timings.postprocess,
        snap.timings.ap_table, static_cast<unsigned long long>(units),
        process > 0 ? static_cast<double>(units) / process : 0.0,
        static_cast<unsigned long long>(snap.stats.cpu_units),
        static_cast<unsigned long long>(snap.stats.device_units),
        static_cast<unsigned long long>(snap.stats.cpu_claims),
        static_cast<unsigned long long>(snap.stats.device_claims),
        static_cast<unsigned long long>(snap.stats.queue_contention),
        snap.stats.utilization());
    first = false;
  }
  std::fprintf(out, "\n  }\n}\n");
  std::fclose(out);
  std::printf("wrote bench_results/phase2_workqueue.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const eardec::bench::ObservabilitySession obs;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_json();
  return 0;
}
