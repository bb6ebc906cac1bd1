"""The benchmark in ``perfbench/`` against the package, in process.

The benchmark imports names from the package that no other test reaches
through its own code.  Each workload runs its first item at seed 0 here, is
checked as the benchmark checks it, and must match the recorded digest in
``perfbench/reference.json``, so that a rename or a changed output the
benchmark depends on fails this suite, not only a benchmark run.  Nothing
under ``perfbench/`` is written.
"""

import json
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_and_matches_its_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ there
    import run
    import workloads
    from tracing import NullTracer

    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    assert reference["seed"] == 0
    cwd = os.getcwd()
    for name in workloads.NAMES:
        workload = workloads.make(name, 0, str(tmp_path))
        assert workload.reference_key(0) < len(reference["workloads"][name])
        try:
            workload.prepare()
            outcome = workload.run_item(0, NullTracer())
            digest = workload.digest(outcome)
            errors = workload.check(0, outcome)
            errors += run.reference_errors(workload, reference["workloads"], 0, digest)
        finally:
            workload.close()
            os.chdir(cwd)
        assert errors == [], name
