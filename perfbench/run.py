#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload build_scale --seed 1 --seconds 10 --trace 0

Run from the repository root. Configures and builds perfbench (Release)
under .bench_build/perfbench ($CARGO_TARGET_DIR/perfbench when that is
set), then runs one workload in one process. Build output goes to stderr;
stdout carries the benchmark's provenance line and, last, its JSON result.
The exit code is the benchmark's: 0 when every answer was correct.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build_scale", "serve_inproc", "mcb_scale")


def log(cmd, **kw):
    """Runs cmd with its stdout sent to stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, **kw).returncode


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        rc = log(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
        if rc != 0:
            return rc
    rc = log(["cmake", "--build", build, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench"])
    if rc != 0:
        return rc
    work = os.path.join(build, "work")
    os.makedirs(work, exist_ok=True)
    return subprocess.run(
        [os.path.join(build, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--work-dir", work, "--git-sha", git_sha()],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
