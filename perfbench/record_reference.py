#!/usr/bin/env python3
"""Record the reference digests the benchmark compares against at its
default seed.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each workload, the digest of items
0..N-1 (cli_pipeline: of each file of its pool).  Run it only when the
program's outputs are meant to change, and say so with the change; an
item whose checks fail is not recorded.
"""

from __future__ import annotations

import json
import os
import sys

import run

COUNTS = {"sweep_dense": 64, "bench_solve": 160, "cli_pipeline": 16}
SEED = 0


def main() -> int:
    run.import_package()
    import workloads

    digests = {}
    for name in workloads.NAMES:
        workload = workloads.make(name, SEED, run.ROOT)
        workload.prepare()
        try:
            digests[name] = []
            for i in range(COUNTS[name]):
                _, outcome, errors = run.run_item(workload, i, run.NullTracer())
                if outcome is None:
                    sys.exit(f"{name} item {i}: {errors}")
                digest, errors = run.checked(workload, None, i, outcome)
                if errors:
                    sys.exit(f"{name} item {i}: {errors}")
                digests[name].append(digest)
        finally:
            workload.close()
        print(f"{name}: {len(digests[name])} digests")
    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": SEED, "workloads": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
