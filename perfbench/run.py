#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload inproc_1q --seed 1 --seconds 5 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench-<hash of this directory>
(default .bench_build/...) and is reused by later runs of the same checkout.
--trace 0 runs the `perfbench` driver on the program's own allocator;
--trace 1 runs `perfbench_traced`, which links the counting allocator.
Build output goes to stderr; the benchmark's stdout is passed through
unchanged, so its last line is the result JSON.
Traces from --trace 1 are written to <build dir>/traces.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


# Both drivers are built on every call, so the first run of a checkout builds
# everything and later runs of either mode only check that nothing changed.
TARGETS = ("perfbench", "perfbench_traced")


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", *TARGETS, "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:8]
    build_dir = os.path.abspath(os.path.join(root, "perfbench-" + tag))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # Only the traced driver links the counting allocator.
    binary = os.path.join(build_dir, TARGETS[args.trace])
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
