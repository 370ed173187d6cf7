#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny sizes of all three workloads.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, in both modes, it checks that the run
exits 0, passes every output check (correct, no failed engine run), and
prints exactly the metrics BENCHMARK.json names for that mode, each with its
unit and a finite value. It also checks that the same seed reproduces the
final field hashes and that another seed changes them. Exits nonzero on the
first kind of failure it finds, after listing all of them.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    hashes = re.findall(r"field hash ([0-9a-f]{16})", out.stdout)
    return out.returncode, result, hashes, out.stdout + out.stderr


def check_result(where, rc, result, expected, errors):
    if rc != 0 or result is None:
        errors.append("%s: exit code %d" % (where, rc))
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (where, sorted(result)))
        return
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        errors.append("%s: correct=%s failed=%s attempted=%s" % (
            where, result["correct"], result["failed"], result["attempted"]))
    metrics = result["metrics"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("%s: metric %s missing" % (where, m["name"]))
        elif got.get("unit") != m["unit"]:
            errors.append("%s: metric %s unit %r, expected %r" % (
                where, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            errors.append("%s: metric %s value %r" % (
                where, m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        errors.append("%s: unexpected metrics %s" % (where, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for w in spec["workloads"]:
        name = w["name"]
        hashes = {}
        for seed, trace in ((7, 0), (7, 1), (7, 0), (8, 0)):
            rc, result, h, log = run(name, seed, trace)
            where = "%s seed %d trace %d" % (name, seed, trace)
            before = len(errors)
            check_result(where, rc, result,
                         spec["per_layer" if trace else "end_to_end"], errors)
            if len(errors) > before:
                sys.stderr.write(log)
            if trace == 0:
                hashes.setdefault(seed, []).append(h)
        first, again = hashes[7]
        if not first or first != again:
            errors.append("%s: seed 7 did not reproduce its field hashes"
                          % name)
        if first == hashes[8][0]:
            errors.append("%s: seed 8 gave the same field hashes as seed 7"
                          % name)
        print("%s: %s" % (name, "ok" if not errors else "checked"))
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
