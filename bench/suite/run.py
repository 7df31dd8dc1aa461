#!/usr/bin/env python3
"""Build and run one measurement of the lwfs_suite benchmark (README.md).

    python3 bench/suite/run.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--out DIR]

Builds bench/suite with CMake into .bench_build/suite under the repository
root (incremental after the first run), then runs lwfs_suite once.  Build
output goes to stderr; the last line of stdout is the run's JSON result.
Each run also leaves a result file (and, traced, a Chrome trace) in --out,
by default .bench_build/results, for compare.py.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE = os.path.join(ROOT, "bench", "suite")
BUILD = os.path.join(ROOT, ".bench_build", "suite")
BINARY = os.path.join(BUILD, "lwfs_suite")
WORKLOADS = ("ckpt_dump", "small_io", "meta_churn", "replicated_io")
BUILD_TIMEOUT_S = 840
# Set-up, the probes of a traced run and teardown come on top of --seconds;
# a run must end well within 180 s.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; stop it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")
    if rc != 0:
        fail(f"failed ({rc}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources are missing; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", SUITE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", BUILD, "--target", "lwfs_suite",
                 "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build", "results"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", args.out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{args.workload} seed {args.seed} did not finish in {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
