#!/usr/bin/env python3
"""Build and run the SAGE simulator benchmark.

    python3 perfbench/run.py --workload <bulk_stage|geo_stream|sharded_plane>
                             --seed <n> --seconds <s> --trace <0|1>

Builds the SAGE library from ../src and the sage_perfbench program from this
directory (CMake, Release) into .bench_build/perfbench at the root of the
checkout, then runs one workload. Traced runs write their spans to
.bench_build/traces/. The last line of stdout is the result as JSON; build
output goes to stderr. Exits non-zero, printing no result, when the sources
are missing, the build fails or the run does not finish in time.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "sage_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def configured_for_this_checkout():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip() == HERE
    return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no SAGE sources (src/) in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not configured_for_this_checkout():
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "sage_perfbench"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
