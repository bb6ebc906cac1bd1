#!/usr/bin/env python3
"""satbec benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``./src``.
Workloads: sweep_dense, bench_solve, cli_pipeline (see perfbench/README.md).

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
runs every item twice, untraced and traced, and reports the per-layer
metrics derived from the spans plus the tracing overhead.  Every item's
outputs are checked; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans, the environment record and the full result are written under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
from tracing import NullTracer, Tracer, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

# End-to-end metrics of the untraced run.  The bounded ones are the result's
# metrics; the others are printed and recorded beside them.  On a shared host
# whose speed drifts by half over minutes, the median and the mean of a run
# follow the drift, while the p90 sits in the slow state in nearly every
# run.  Wall time also counts the time the hypervisor gives to other guests
# (steal), which arrives in bursts that inflate the tail; the process's CPU
# time leaves it out.  See README.
END_TO_END = (
    ("item_cpu_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
UNBOUNDED = (
    ("item_ms_p90", "ms"),
    ("item_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("failed_ratio", "ratio"),
)

# A run measures at least MIN_ITEMS items, so that ten lie above the p90,
# and stops taking new items at DEADLINE_S after process start, so that it
# ends well inside three minutes on a slow host.
MIN_ITEMS = 100
DEADLINE_S = 140.0
# set-ups per run; setup_s is their median
SETUP_REPEATS = 5
# items per workload over which the traced run takes its counts; each
# workload the requested one relies on for a layer runs this many items
PREFIX = 16
# share of --seconds the traced run gives the requested workload's pairs
TRACE_SHARE = 0.6
# --tiny: the same inputs with a run too short to measure anything; used by
# selftest.py to check the report's shape
TINY = {"MIN_ITEMS": 12, "SETUP_REPEATS": 2, "PREFIX": 4}

STARTED = time.perf_counter()


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not os.path.isfile(os.path.join(SRC, "satbec", "__init__.py")):
        fail(f"no package source at {os.path.relpath(SRC)}/satbec; run from a full checkout")
    sys.path.insert(0, SRC)
    import satbec

    if os.path.dirname(os.path.abspath(satbec.__file__)) != os.path.join(SRC, "satbec"):
        fail(f"imported satbec from {satbec.__file__}, not from the checkout")


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def host_sample() -> dict:
    """Load average and steal ticks, read only from /proc."""
    sample = {}
    loadavg = _read("/proc/loadavg")
    if loadavg:
        sample["loadavg"] = [float(x) for x in loadavg.split()[:3]]
    stat = _read("/proc/stat")
    if stat:
        fields = stat.splitlines()[0].split()
        if fields[0] == "cpu" and len(fields) > 8:
            sample["steal_ticks"] = int(fields[8])
    return sample


def environment() -> dict:
    import numpy

    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def set_up(workloads, name, seed, repeats):
    """Set up ``repeats`` times and keep the last workload.

    One set-up is a fresh interpreter importing the package, then input
    preparation and one warm-up item in this process.
    """
    snippet = f"import sys; sys.path.insert(0, {SRC!r}); import satbec, satbec.cli"
    durations = []
    workload = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet], cwd=ROOT, check=True, timeout=120,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        if workload is not None:
            workload.close()
        workload = workloads.make(name, seed, ROOT)
        try:
            workload.prepare()
            workload.warm_up(NullTracer())
        except BaseException:
            workload.close()
            raise
        durations.append(time.perf_counter() - t0)
    return workload, statistics.median(durations), durations


class Tally:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(f"{label}: {e}" for e in errors[:3])


def reference_errors(workload, reference, i, digest) -> list[str]:
    if reference is None:
        return []
    expected = reference.get(workload.name, [])
    key = workload.reference_key(i)
    if key < len(expected) and expected[key] != digest:
        return [f"digest {digest[:16]} differs from the reference {expected[key][:16]}"]
    return []


def run_item(workload, i, tracer):
    """Run item ``i``; return (wall ns, outcome, errors)."""
    t0 = time.perf_counter_ns()
    try:
        outcome = workload.run_item(i, tracer)
    except Exception:
        return time.perf_counter_ns() - t0, None, [traceback.format_exc(limit=3)]
    return time.perf_counter_ns() - t0, outcome, []


def checked(workload, reference, i, outcome):
    """(digest, errors) of one outcome."""
    try:
        digest = workload.digest(outcome)
        return digest, workload.check(i, outcome) + reference_errors(workload, reference, i, digest)
    except Exception:
        return None, [traceback.format_exc(limit=3)]


def probed(workload, i, tracer):
    """Errors of the workload's extra traced calls after item ``i``."""
    try:
        return workload.probe(i, tracer)
    except Exception:
        return [traceback.format_exc(limit=3)]


def untraced_run(workload, seconds, min_items, reference, tally):
    tracer = NullTracer()
    times, cpu_times = [], []
    start = time.perf_counter()
    cpu0 = time.process_time()
    i = 0
    while True:
        c0 = time.process_time_ns()
        ns, outcome, errors = run_item(workload, i, tracer)
        cpu_times.append((time.process_time_ns() - c0) / 1e6)
        times.append(ns / 1e6)
        if outcome is not None:
            errors += checked(workload, reference, i, outcome)[1]
        tally.record(f"item {i}", errors)
        i += 1
        now = time.perf_counter()
        if (now - start >= seconds and i >= min_items) or now - STARTED >= DEADLINE_S:
            break
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    return times, cpu_times, {"wall_s": wall, "cpu_s": cpu}


def traced_item(workload, i, tracer, item_id):
    """One traced run of item ``i``: spans under a root span ``item``."""
    tracer.item = item_id
    with workload.traced_calls(tracer):
        with tracer.span("item"):
            ns, outcome, errors = run_item(workload, i, tracer)
    return ns, outcome, errors


def traced_run(workloads, workload, seed, seconds, prefix, reference, tally):
    """Pairs of untraced and traced runs of the requested workload, then
    ``prefix`` traced items of each workload that supplies a layer this
    one does not reach."""
    tracer = Tracer(layers.EXTRACTORS)
    untraced, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        item_id = f"{workload.name}:{i}"
        digests = {}
        errors = []
        # alternate which run goes first, so neither always finds warm caches
        for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if use_trace:
                ns, outcome, errs = traced_item(workload, i, tracer, item_id)
                traced.append(ns / 1e6)
            else:
                ns, outcome, errs = run_item(workload, i, NullTracer())
                untraced.append(ns / 1e6)
            errors += errs
            if outcome is not None:
                digest, errs = checked(workload, reference, i, outcome)
                digests[use_trace] = digest
                errors += errs
        if len(digests) == 2 and digests[True] != digests[False]:
            errors.append("traced outputs differ from the untraced outputs")
        tracer.item = item_id
        errors += probed(workload, i, tracer)
        tally.record(item_id, errors)
        i += 1
        now = time.perf_counter()
        if i >= prefix and (now - start >= TRACE_SHARE * seconds or now - STARTED >= DEADLINE_S):
            break

    needed = {
        layers.SOURCE[group]
        for _, _, group in layers.PER_LAYER
        if group in layers.SOURCE and group not in workload.reaches
    }
    ran = [workload.name]
    for other_name in sorted(needed - {workload.name}):
        other = workloads.make(other_name, seed, ROOT)
        try:
            other.prepare()
            for j in range(prefix):
                item_id = f"{other_name}:{j}"
                _, outcome, errors = traced_item(other, j, tracer, item_id)
                if outcome is not None:
                    errors += checked(other, reference, j, outcome)[1]
                errors += probed(other, j, tracer)
                tally.record(item_id, errors)
        finally:
            other.close()
        ran.append(other_name)

    by_workload = {}
    for name in ran:
        spans = [s for s in tracer.spans if s.item.startswith(name + ":")]
        prefix_ids = {f"{name}:{j}" for j in range(prefix)}
        by_workload[name] = layers.layer_metrics(spans, prefix_ids)
    metrics, notes = {}, {}
    for metric, unit, group in layers.PER_LAYER:
        if group == "trace":
            value = statistics.median(traced) / statistics.median(untraced)
            source = workload.name
        else:
            own = group not in layers.SOURCE or group in workload.reaches
            source = workload.name if own else layers.SOURCE[group]
            value = by_workload[source].get(metric)
        metrics[metric] = {"value": value, "unit": unit}
        if value is None:
            notes[metric] = f"absent: no span of this layer was recorded on {source}"
        elif source != workload.name:
            notes[metric] = f"from {source}"
    own_spans = [s for s in tracer.spans if s.item.startswith(workload.name + ":")]
    detail = {"layer_shares": layers.layer_shares(own_spans, workload.share_root),
              "pairs": len(untraced),
              "notes": notes}
    return metrics, tracer.spans, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--reference", default=REFERENCE, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be non-negative")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    import_package()
    import workloads

    if args.workload not in workloads.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    sizes = dict(MIN_ITEMS=MIN_ITEMS, SETUP_REPEATS=SETUP_REPEATS, PREFIX=PREFIX)
    if args.tiny:
        sizes.update(TINY)
    reference_file = json.loads(_read(args.reference) or "null")
    reference = None
    if reference_file is not None and reference_file["seed"] == args.seed:
        reference = reference_file["workloads"]

    env = environment()
    host_before = host_sample()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    wall0 = time.perf_counter()
    tally = Tally()
    workload, setup_s, setup_all = set_up(workloads, args.workload, args.seed,
                                          sizes["SETUP_REPEATS"])
    try:
        if args.trace:
            metrics, spans, detail = traced_run(
                workloads, workload, args.seed, args.seconds, sizes["PREFIX"],
                reference, tally,
            )
        else:
            times, cpu_times, timing = untraced_run(
                workload, args.seconds, sizes["MIN_ITEMS"], reference, tally
            )
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "item_cpu_ms_p90": layers.percentile(cpu_times, 0.9),
                "setup_s": setup_s,
                "peak_rss_mb": peak_kib / 1024,
                "item_ms_p90": layers.percentile(times, 0.9),
                "item_ms_p50": statistics.median(times),
                "items_per_s": len(times) / (sum(times) / 1e3),
                "failed_ratio": tally.failed / tally.attempted,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            spans = None
            detail = {
                "unbounded": {name: {"value": values[name], "unit": unit}
                              for name, unit in UNBOUNDED},
                "items": len(times),
                "item_ms": times,
                "item_cpu_ms": cpu_times,
                "timed_phase": timing,
            }
    finally:
        workload.close()

    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    env["host_before"] = host_before
    env["host_after"] = host_sample()
    env["run"] = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "children_cpu_s": children.ru_utime + children.ru_stime,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_runs_s=setup_all, environment=env, failures=tally.messages, **detail)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    if spans is not None:
        write_spans(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"), spans)

    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed}")
    notes = detail.get("notes", {})
    for name, entry in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"#   {name:34s} {entry['value']!r:>24} {entry['unit']}{note}")
    for name, entry in detail.get("unbounded", {}).items():
        print(f"#   {name:34s} {entry['value']!r:>24} {entry['unit']}  (no bound)")
    if "layer_shares" in detail:
        print("# layer shares " + json.dumps(detail["layer_shares"], sort_keys=True))
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
