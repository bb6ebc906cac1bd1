"""Per-layer metrics derived from the spans of a traced run.

Every metric belongs to a group.  A workload computes the groups its own
items reach; a group it does not reach is taken from the workload named in
``SOURCE``, whose items the traced run adds for that purpose.  Counts are
taken over the first ``prefix`` items of their workload only, so they
repeat exactly between runs with the same seed whatever the run length.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

from tracing import self_times

# (name, unit, group); the order is the order of the printed report
PER_LAYER = (
    ("builder.build_ms_p50", "ms", "builder"),
    ("builder.build_ms_p90", "ms", "builder"),
    ("builder.init_ms", "ms", "builder"),
    ("builder.step_us_p50", "us", "builder"),
    ("builder.step_us_first_decile", "us", "builder"),
    ("builder.step_us_last_decile", "us", "builder"),
    ("builder.finish_ms", "ms", "builder"),
    ("builder.steps", "count", "builder"),
    ("builder.build_dupvar_ms_p50", "ms", "builder.dupvar"),
    ("metrics.clause_distance_ns", "ns", "metrics"),
    ("metrics.clause_distance_calls", "count", "metrics"),
    ("solver.chainsat.evals_per_s", "1/s", "solver"),
    ("solver.lc.evals_per_s", "1/s", "solver"),
    ("solver.nlc.evals_per_s", "1/s", "solver"),
    ("solver.chainsat.evals", "count", "solver"),
    ("solver.lc.evals", "count", "solver"),
    ("solver.nlc.evals", "count", "solver"),
    ("solver.chainsat.flips", "count", "solver"),
    ("solver.lc.flips", "count", "solver"),
    ("solver.nlc.flips", "count", "solver"),
    ("solver.chainsat.solved", "count", "solver"),
    ("solver.lc.solved", "count", "solver"),
    ("solver.nlc.solved", "count", "solver"),
    ("solver.flip_ratio", "ratio", "solver"),
    ("solver.clause_order_ms", "ms", "solver"),
    ("solver.verify_ms", "ms", "solver"),
    ("cnf.generate_ms", "ms", "cnf.generate"),
    ("cnf.parse_ms", "ms", "cnf.parse"),
    ("graph.to_json_ms", "ms", "graph"),
    ("graph.from_json_ms", "ms", "graph"),
    ("graph.json_kb", "KiB", "graph"),
    ("graph.spectrum_ms", "ms", "graph"),
    ("graph.dot_ms", "ms", "graph"),
    ("cli.build_ms", "ms", "cli"),
    ("cli.classify_ms", "ms", "cli"),
    ("cli.spectrum_ms", "ms", "cli"),
    ("cli.solve_ms", "ms", "cli"),
    ("cli.overhead_ms", "ms", "cli"),
    ("analysis.classify_us", "us", "analysis"),
    ("analysis.nonwinner_us", "us", "analysis"),
    ("experiments.self_ms", "ms", "experiments"),
    ("seeding.derive_seed_us", "us", "seeding"),
    ("seeding.derive_seed_calls", "count", "seeding"),
    ("trace_overhead_ratio", "ratio", "trace"),
)

# the workload that supplies a group to workloads whose items do not reach it
SOURCE = {
    "builder.dupvar": "cli_pipeline",
    "metrics": "cli_pipeline",
    "cnf.parse": "cli_pipeline",
    "graph": "cli_pipeline",
    "cli": "cli_pipeline",
    "solver": "bench_solve",
    "cnf.generate": "bench_solve",
    "seeding": "bench_solve",
    "analysis": "sweep_dense",
}

ALGOS = ("chainsat", "lc", "nlc")


def _result_counts(result):
    return {"evals": result.evaluations, "flips": result.flips, "solved": int(result.solved)}


# span name -> attributes kept from the call's return value
EXTRACTORS = {
    **{f"solver.{algo}": _result_counts for algo in ALGOS},
    "graph.graph_to_json": lambda text: {"bytes": len(text.encode("utf-8"))},
}


def median(values):
    return statistics.median(values) if values else None


def percentile(values, q):
    """Nearest-rank percentile: at least ``(1 - q) * len`` values lie at or
    above it."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _decile_mean(steps, last):
    width = max(1, len(steps) // 10)
    part = steps[-width:] if last else steps[:width]
    return sum(part) / len(part)


def layer_metrics(spans, prefix_items) -> dict:
    """Every per-layer metric these spans support, by name.

    ``prefix_items`` is the set of item ids over which counts are taken.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out = {}

    def med_ms(name, scale=1e-6):
        values = [s.ns * scale for s in by_name.get(name, ())]
        return median(values)

    def count(spans_, key):
        return sum(s.attrs[key] for s in spans_ if s.item in prefix_items)

    # a build that raised has no steps and is left out
    builds = [
        s for s in by_name.get("builder.build_graph", ()) if s.attrs["stamps"] and not s.attrs["dup"]
    ]
    if builds:
        durations = [s.ns / 1e6 for s in builds]
        steps = [
            [(b - a) / 1e3 for a, b in zip(s.attrs["stamps"], s.attrs["stamps"][1:])]
            for s in builds
        ]
        all_steps = [d for per_build in steps for d in per_build]
        out["builder.build_ms_p50"] = median(durations)
        out["builder.build_ms_p90"] = percentile(durations, 0.9)
        out["builder.init_ms"] = median([(s.attrs["stamps"][0] - s.start) / 1e6 for s in builds])
        out["builder.step_us_p50"] = median(all_steps)
        out["builder.step_us_first_decile"] = median([_decile_mean(d, False) for d in steps if d])
        out["builder.step_us_last_decile"] = median([_decile_mean(d, True) for d in steps if d])
        out["builder.finish_ms"] = median([(s.end - s.attrs["stamps"][-1]) / 1e6 for s in builds])
        out["builder.steps"] = sum(len(s.attrs["stamps"]) for s in builds if s.item in prefix_items)
    dup_builds = [s.ns / 1e6 for s in by_name.get("builder.build_graph", ()) if s.attrs["dup"]]
    if dup_builds:
        out["builder.build_dupvar_ms_p50"] = median(dup_builds)

    distance = by_name.get("metrics.clause_distance", ())
    if distance:
        out["metrics.clause_distance_ns"] = sum(s.ns for s in distance) / sum(
            s.attrs["calls"] for s in distance
        )
        out["metrics.clause_distance_calls"] = count(distance, "calls")

    if all(by_name.get(f"solver.{algo}") for algo in ALGOS):
        evals = flips = 0
        for algo in ALGOS:
            runs = by_name[f"solver.{algo}"]
            out[f"solver.{algo}.evals_per_s"] = (
                sum(s.attrs["evals"] for s in runs) / (sum(s.ns for s in runs) / 1e9)
            )
            for key in ("evals", "flips", "solved"):
                out[f"solver.{algo}.{key}"] = count(runs, key)
            evals += out[f"solver.{algo}.evals"]
            flips += out[f"solver.{algo}.flips"]
        out["solver.flip_ratio"] = flips / evals if evals else None
        out["solver.clause_order_ms"] = med_ms("solver.clause_order")
        out["solver.verify_ms"] = med_ms("solver.verify_result")

    out["cnf.generate_ms"] = med_ms("cnf.generate_random")
    out["cnf.parse_ms"] = med_ms("cnf.parse_dimacs")

    out["graph.to_json_ms"] = med_ms("graph.graph_to_json")
    out["graph.from_json_ms"] = med_ms("graph.graph_from_json")
    to_json = [s for s in by_name.get("graph.graph_to_json", ()) if s.item in prefix_items]
    if to_json:
        out["graph.json_kb"] = sum(s.attrs["bytes"] for s in to_json) / len(to_json) / 1024
    out["graph.spectrum_ms"] = med_ms("graph.particle_spectrum")
    out["graph.dot_ms"] = med_ms("graph.export_dot")

    for step in ("build", "classify", "spectrum", "solve"):
        out[f"cli.{step}_ms"] = med_ms(f"cli.{step}")
    items = {s.item: s for s in by_name.get("item", ())}
    replays = {s.item: s for s in by_name.get("replay", ())}
    paired = [(items[i].ns - replays[i].ns) / 1e6 for i in replays if i in items]
    if paired and by_name.get("cli.build"):
        out["cli.overhead_ms"] = median(paired)

    out["analysis.classify_us"] = med_ms("analysis.classify", 1e-3)
    out["analysis.nonwinner_us"] = med_ms("analysis.nonwinner_stats", 1e-3)

    if items:
        own = self_times(spans)
        per_item = defaultdict(int)
        for span in spans:
            if span.name == "item" or span.layer == "experiments":
                per_item[span.item] += own[span.id]
        out["experiments.self_ms"] = median([per_item[i] / 1e6 for i in items])

    seeds = by_name.get("seeding.derive_seed", ())
    if seeds:
        out["seeding.derive_seed_us"] = med_ms("seeding.derive_seed", 1e-3)
        out["seeding.derive_seed_calls"] = sum(1 for s in seeds if s.item in prefix_items)
    return {name: value for name, value in out.items() if value is not None}


def layer_shares(spans, root="item") -> dict:
    """Share of the time under the ``root`` spans spent in each layer's own
    code.  The own time of an ``item`` root (the protocol code between layer
    calls) counts as ``experiments``; that of another root under its name."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    root_of = {}
    for span in spans:
        top = span
        while top.parent is not None:
            top = by_id[top.parent]
        root_of[span.id] = top
    totals = defaultdict(int)
    root_ns = 0
    for span in spans:
        if root_of[span.id].name != root:
            continue
        if span.name == root:
            root_ns += span.ns
            totals["experiments" if root == "item" else root] += own[span.id]
        else:
            totals[span.layer] += own[span.id]
    if not root_ns:
        return {}
    return {layer: ns / root_ns for layer, ns in sorted(totals.items())}
