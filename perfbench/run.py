#!/usr/bin/env python3
"""Builds and runs the end-to-end shuffle benchmark.

    python3 perfbench/run.py --workload bulk_1sup --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles src/) into the build directory, by
default .bench_build/ (or $CARGO_TARGET_DIR when set); later runs only
check that the build is up to date. Build output goes to standard error.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The exit code is 0 only
when every merged stream passed the oracle and every conservation check
held. perfbench/README.md defines the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("bulk_1sup", "small_4sup", "zipf_compress")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no source tree (src/CMakeLists.txt) under {root}")
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(root, os.path.join(build_root, "perfbench"))

    run_dir = os.path.join(build_root, "perfbench-run", str(os.getpid()))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-dir", os.path.join(run_dir, "data")]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_root, f"perfbench-trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(0 if code == 0 else max(code, 1))


if __name__ == "__main__":
    main()
