// perfbench — the repository's end-to-end benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>]
//
// Prints a provenance line, then as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced run (--trace 1). Exits 1 when any answer was wrong or any
// operation failed, 2 on a usage error or an aborted run (no result).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload build_scale|serve_inproc|"
               "mcb_scale --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR] [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  o.work_dir = ".";
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--work-dir") {
      o.work_dir = val;
    } else if (key == "--git-sha") {
      git_sha = val;
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0 || o.seconds <= 0) return usage();
  o.nproc = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "{\"stamp\": {\"git_sha\": \"%s\", \"hardware_concurrency\": %u, "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}}\n",
      git_sha.c_str(), o.nproc, o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  perfbench::Result r;
  try {
    r = o.trace ? perfbench::run_layers(o) : perfbench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: aborted: %s\n", e.what());
    return 2;
  }
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    // Every digit as measured; a non-finite value (a failed run's tail)
    // is written as null so the line stays JSON.
    char value[64] = "null";
    if (std::isfinite(r.metrics[i].value)) {
      std::snprintf(value, sizeof value, "%.17g", r.metrics[i].value);
    }
    json += (i == 0 ? "\"" : ", \"") + r.metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            r.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
