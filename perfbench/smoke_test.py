#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes (about a minute after
the first build):

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json with --trace 0 and --trace 1 and
checks the result line's shape (exactly the four keys, every declared
metric present with its declared unit), that every check passed, and on
traced runs that the re-driven solve matched the untraced one
(trace.ios_match = trace.labels_match = 1). It also cross-checks the
benchmark's own SCC oracle against the library's Tarjan.
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def check(result, declared, trace):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("outputs failed their checks")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        errors.append("metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')}")
        if not isinstance(got.get("value"), (int, float)):
            errors.append(f"{m['name']}: value {got.get('value')!r}")
    if trace:
        for name in ("trace.ios_match", "trace.labels_match"):
            if metrics.get(name, {}).get("value") != 1:
                errors.append(f"{name} != 1")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            result, error = run(w["name"], trace)
            errors = [error] if error else check(result, declared, trace)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{w['name']} --trace {trace}: {status}", flush=True)
            failures += bool(errors)

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = os.path.join(ROOT, build, "perfbench")
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_run")) as d:
        proc = subprocess.run(
            [binary, "prepare", "--nodes=30000", "--seed=3",
             f"--out={os.path.join(d, 'edges.txt')}", "--check-oracle"],
            cwd=d, env=dict(os.environ, TMPDIR=d), stdout=subprocess.DEVNULL,
            timeout=300)
    print(f"oracle cross-check: {'ok' if proc.returncode == 0 else 'FAIL'}")
    failures += proc.returncode != 0
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
