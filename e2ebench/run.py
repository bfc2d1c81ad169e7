#!/usr/bin/env python3
"""End-to-end benchmark of the trial library.

Builds the e2e_bench binary from the checkout's sources (Release, under
.bench_build/), prepares the workload's seeded inputs in a process of its
own (cached per seed, so generation stays out of every timing and of the
measured process's peak RSS), runs one workload and prints its result as
the last line of standard output:

    python3 e2ebench/run.py --workload bgp_mix --seed 1 --seconds 15 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the span trace to .bench_build/traces/.  --tiny uses small
inputs (the benchmark's own tests); --corrupt perturbs some observed
answers to show that the checker catches them.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
BINARY = os.path.join(BUILD_DIR, "e2e_bench")
WORKLOADS = ("bgp_mix", "transport_paths", "update_mix")
# A run must end within 180 s of its start, builds aside.
RUN_BUDGET_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are not beside "
             "e2ebench/; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "e2e_bench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def data_dir(workload, size, seed):
    """The input cache of one (workload, size, seed); inputs of other
    seeds of the same workload are dropped to bound disk use."""
    data_root = os.path.join(BUILD_ROOT, "data")
    name = "%s-%s-%d" % (workload, size, seed)
    if os.path.isdir(data_root):
        for other in os.listdir(data_root):
            if other.startswith(workload + "-" + size + "-") and other != name:
                shutil.rmtree(os.path.join(data_root, other),
                              ignore_errors=True)
    return os.path.join(data_root, name)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    start = time.monotonic()
    size = "tiny" if args.tiny else "full"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data-dir", data_dir(args.workload, size, args.seed)]
    if args.tiny:
        common.append("--tiny")
    try:
        prep = subprocess.run([BINARY, "prepare"] + common, stdout=sys.stderr,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail("input preparation timed out")
    if prep.returncode != 0:
        fail("input preparation failed")

    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [BINARY, "run"] + common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--trace-out", os.path.join(
            trace_dir, "%s-%s-%d.json" % (args.workload, size, args.seed))]
    if args.corrupt:
        cmd.append("--corrupt")
    budget = RUN_BUDGET_S - (time.monotonic() - start)
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        fail("run exceeded its time budget")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail("run failed (exit code %d)" % run.returncode)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
