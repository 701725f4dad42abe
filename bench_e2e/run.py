#!/usr/bin/env python3
"""Builds bench_e2e from this checkout and runs one workload.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ at the root of the checkout (configured on
first use, then rebuilt incrementally). The benchmark's output is passed
through; its last line is the JSON result. With --trace 1 the Chrome trace
of the run is written to .bench_build/trace_<workload>.json. Exits non-zero,
without a result, when the library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench_e2e")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("static_plan", "dynamic_flat", "dynamic_hier", "adapt_trace",
             "serve_mix")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the bench_e2e target; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under %s/src" % ROOT)
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "bench_e2e", "-j", jobs],
        stdout=sys.stderr)
    return result.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 1 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 1 and --seconds in (0, 600]")

    if not build():
        log("build failed")
        return 1

    command = [os.path.join(BUILD_DIR, "bench_e2e"),
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds]
    if args.trace:
        command.append("--trace-out=" + os.path.join(
            BUILD_DIR, "trace_%s.json" % args.workload))
    try:
        # run() kills the child and waits for it when the timeout expires.
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
