#!/usr/bin/env python3
"""Builds and runs the orchestrator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The qon library and the benchmark client are built from source with CMake
into the directory named by $CARGO_TARGET_DIR (default: .bench_build). The
first call builds; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is always the benchmark's JSON result.
Exits non-zero, without a result, when the sources are missing, the build
fails or the benchmark fails.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time, even if several runs start together.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "qon_perfbench", "-j", jobs],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "qon_perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1
    try:
        result = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
