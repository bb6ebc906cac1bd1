#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks, at a tiny run length:

* every workload, untraced and traced, prints exactly the metrics that
  BENCHMARK.json names, each with its unit and a numeric value, and counts
  no failure;
* a reference digest altered on purpose makes items count as failed;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with a non-zero code and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_dense", "bench_solve", "cli_pipeline")


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, stdin=subprocess.DEVNULL,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def shape_errors(label, result, spec) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted is {result.get('attempted')!r}")
    expected = {entry["name"]: entry["unit"] for entry in spec}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(
            f"{label}: missing {sorted(set(expected) - set(metrics))}, "
            f"unexpected {sorted(set(metrics) - set(expected))}"
        )
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            errors.append(f"{label}: {name} has unit {entry.get('unit')!r}, expected {unit!r}")
        if not isinstance(entry.get("value"), (int, float)):
            errors.append(f"{label}: {name} has value {entry.get('value')!r}")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    errors = []
    tiny = ["--seconds", "1", "--tiny"]

    for workload in WORKLOADS:
        for trace, spec in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} trace={trace}"
            proc, result = run(["--workload", workload, "--trace", trace, *tiny])
            if result is None:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            errors += shape_errors(label, result, spec)
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: failures at the default seed: {proc.stderr[-500:]}")
            print(f"ok {label}: attempted={result['attempted']} failed={result['failed']}")

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in WORKLOADS:
        digests = reference["workloads"][workload]
        digests[0] = "0" * 64 if digests[0] != "0" * 64 else "1" * 64
    scratch = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=ROOT)
    try:
        altered = os.path.join(scratch, "reference.json")
        with open(altered, "w", encoding="utf-8") as fh:
            json.dump(reference, fh)
        for workload in WORKLOADS:
            label = f"{workload} altered reference"
            proc, result = run(["--workload", workload, "--reference", altered, *tiny])
            if result is None:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            elif result["correct"] or result["failed"] < 1:
                errors.append(f"{label}: the mismatch was not counted as a failure")
            else:
                print(f"ok {label}: failed={result['failed']} of {result['attempted']}")

        bare = os.path.join(scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc, _ = run(["--workload", "sweep_dense", *tiny], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print(f"ok bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
