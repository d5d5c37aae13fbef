#!/usr/bin/env python3
"""Benchmark self-test.

Runs the short mode of every workload in BENCHMARK.json, untraced and
traced, and checks that the last line of output is the result object,
that every named metric is printed with its unit as a finite number
(end-to-end metrics nonzero), and that the output oracle passed.

Run from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import subprocess
import sys

SECONDS = "3"


def check(spec, workload, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "11", "--seconds", SECONDS,
        "--trace", str(trace), "--short",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        violations = [l for l in lines if l.startswith("# VIOLATION")]
        problems.append(f"oracle failed: {violations[:5]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(
            f"metric names differ: missing {sorted({m['name'] for m in wanted} - set(metrics))}, "
            f"extra {sorted(set(metrics) - {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{m['name']}: end-to-end value {value} is not positive")
        if not any(l.startswith(m["name"] + " ") and m["unit"] in l for l in lines[:-1]):
            problems.append(f"{m['name']}: not in the human-readable report with its unit")
    return problems


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check(spec, w["name"], trace)
            status = "ok" if not problems else "FAIL"
            print(f"{w['name']:<24} trace={trace} {status}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
