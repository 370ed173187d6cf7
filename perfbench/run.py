#!/usr/bin/env python3
"""Builds the host LBM benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload bulk3d --seed 1 --seconds 10 --trace 0

The library (src/) and the benchmark program (perfbench/src/) are compiled
with CMake into .bench_build/perfbench/ under the checkout root on the first
call and rebuilt incrementally afterwards. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. With --trace 1 the
span file is written to .bench_build/spans/<workload>-seed<seed>.json.
The exit code is the benchmark's: nonzero when the build fails or an output
check fails.
"""
import argparse
import os
import signal
import subprocess
import sys

# OpenMP runtime settings of every run, recorded in the fingerprint. Idle
# team threads spin instead of sleeping, and each stays on its own core: on a
# virtual machine a sleeping thread's core halts, and waking it again costs a
# variable delay per parallel region (the 3D workloads issue hundreds per
# step). With the default policy, a repeated slabs3d run varied ~2x as much.
OMP_ENV = {"OMP_WAIT_POLICY": "active", "OMP_PROC_BIND": "close",
           "OMP_PLACES": "cores"}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found at %s"
                 % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk3d", "slabs3d", "porous2d"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and two fixed rounds (benchmark tests)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(
            SPANS_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    # A SIGTERM to this script must not leave the benchmark running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, env=dict(os.environ, **OMP_ENV))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
