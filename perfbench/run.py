#!/usr/bin/env python3
"""Build and run the wscache end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (a CMake package that compiles the repository's src/)
in Release mode under .bench_build/; later runs only rebuild what changed.
Each run passes the checkout's `git describe --always --dirty` (or
"unknown" outside a git work tree) to the binary, which stamps it into the
record.  The benchmark binary's standard output is passed through
unchanged; its last line is the JSON result.  Build output goes to
standard error.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("hot_portal", "cold_portal", "stub_hits")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    if not (bench_dir.parent / "src" / "CMakeLists.txt").is_file():
        fail(f"no wscache sources next to {bench_dir} (expected ../src)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def git_describe(root):
    # Look no higher than the checkout: outside a work tree, say so.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              env=env, capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = Path.cwd()
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build(bench_dir, build_dir)

    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    env = dict(os.environ, PERFBENCH_GIT_DESCRIBE=git_describe(root))
    try:
        done = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
