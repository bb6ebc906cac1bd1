"""Desk-scale experiment harnesses: phase sweeps over (n, alpha) grids and
solver benchmarks.

All sampling is addressed by (root seed, grid indices), so results do not
depend on iteration order or worker count; see ``seeding`` for the layout.
"""

from __future__ import annotations

import io
import csv
import os
from dataclasses import dataclass, fields

import numpy as np

from . import solver
from .analysis import Phase, classification
from .builder import build_graph
from .cnf import MAX_COUNT, Formula, generate_random, is_count, is_real
from .graph import (
    DEFAULT_RHO,
    DEFAULT_TEMPERATURE,
    DEFAULT_THETA,
    FIRST_RANDOM,
    MODE_S2G,
    MODE_S2GPA,
    BuilderConfig,
    ClauseGraph,
)
from .seeding import TAG_BUILD, TAG_GENERATE, TAG_ORDER, TAG_SOLVE, derive_seed

# accepted satisfiability thresholds for uniform random k-SAT
SAT_THRESHOLD = {3: 4.256, 4: 9.931, 5: 21.117}


def clause_count(n: int, alpha: float) -> int:
    """m = round(alpha * n), banker's rounding on .5 ties."""
    return round(alpha * n)


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    alphas: tuple[float, ...]
    instances: int = 30
    graphs_per_instance: int = 10
    k: int = 3
    mode: str = MODE_S2GPA
    theta: float = DEFAULT_THETA
    rho: int = DEFAULT_RHO
    temperature: float = DEFAULT_TEMPERATURE
    first_clause_rule: str = FIRST_RANDOM
    seed_root: int = 0

    def __post_init__(self):
        _check_grid(self, builds=True)
        if list(self.alphas) != sorted(self.alphas):
            raise ValueError("alphas must be ascending")
        graphs = self.graphs_per_instance
        if not (is_count(graphs, 1) and graphs <= MAX_COUNT):
            raise ValueError(
                f"graphs_per_instance must be an int >= 1 and <= {MAX_COUNT}, got {graphs!r}")

    def builder_config(self, seed: int) -> BuilderConfig:
        return _builder_config(self, self.mode, seed)


@dataclass(frozen=True)
class SweepRecord:
    n: int
    alpha: float
    mean_fraction_winner: float
    pct_full_bec: float
    pct_partial_bec: float
    pct_fgr: float
    nonwinner_mean: float
    nonwinner_std: float
    samples: int


def _check_grid(cfg: SweepConfig | BenchConfig, builds: bool):
    """The checks a sweep and a bench config share: n_values and alphas are
    tuples, so the frozen config hashes, n_values, k, instances and seed_root
    are counts, n_values and instances at most ``MAX_COUNT``, the alphas
    positive reals, every (n, alpha) point can draw k distinct variables per
    clause, at most ``MAX_COUNT`` clauses and, when ``builds``, the 2 clauses
    a network needs, and the builder settings are valid."""
    if type(cfg.n_values) is not tuple or type(cfg.alphas) is not tuple:
        raise ValueError("n_values and alphas must be tuples")
    if not cfg.n_values or not all(is_count(n, 1) and n <= MAX_COUNT for n in cfg.n_values):
        raise ValueError(f"n_values must be ints >= 1 and <= {MAX_COUNT}")
    if not cfg.alphas:
        raise ValueError("alphas must not be empty")
    if not all(is_real(a) and a > 0 for a in cfg.alphas):
        raise ValueError("alphas must be positive and finite")
    if max(cfg.alphas) * max(cfg.n_values) > MAX_COUNT:
        raise ValueError(f"alpha * n must not exceed {MAX_COUNT} clauses")
    if not (is_count(cfg.k, 1) and cfg.k <= min(cfg.n_values)):
        raise ValueError(f"k must be an int in [1, {min(cfg.n_values)}], the smallest n")
    if builds and any(clause_count(n, a) < 2 for n in cfg.n_values for a in cfg.alphas):
        raise ValueError("every (n, alpha) point needs at least 2 clauses to build a network")
    if not (is_count(cfg.instances, 1) and cfg.instances <= MAX_COUNT):
        raise ValueError(
            f"instances must be an int >= 1 and <= {MAX_COUNT}, got {cfg.instances!r}")
    if not is_count(cfg.seed_root):
        raise ValueError("seed_root must be a non-negative integer")
    cfg.builder_config(0)


def _builder_config(cfg: SweepConfig | BenchConfig, mode: str, seed: int) -> BuilderConfig:
    """The build settings of ``cfg``'s flat builder fields, in ``mode``."""
    return BuilderConfig(mode=mode, temperature=cfg.temperature, theta=cfg.theta, rho=cfg.rho,
                         seed=seed, first_clause_rule=cfg.first_clause_rule)


def sample_formula(
    cfg: SweepConfig | BenchConfig, n_index: int, alpha_index: int, instance: int
) -> Formula:
    """The formula of one instance at a grid point, shared by sweeps and
    benches."""
    n = cfg.n_values[n_index]
    m = clause_count(n, cfg.alphas[alpha_index])
    seed = derive_seed(cfg.seed_root, TAG_GENERATE, n_index, alpha_index, instance)
    return generate_random(seed, cfg.k, n, m)


def build_sample_graph(
    cfg: SweepConfig | BenchConfig,
    n_index: int,
    alpha_index: int,
    instance: int,
    graph_index: int,
    formula: Formula,
) -> ClauseGraph:
    """Graph ``graph_index`` of ``formula``, the instance's formula."""
    seed = derive_seed(cfg.seed_root, TAG_BUILD, n_index, alpha_index, instance, graph_index)
    return build_graph(formula, cfg.builder_config(seed))


def run_grid_point(cfg: SweepConfig, n_index: int, alpha_index: int) -> list[dict]:
    """The ``classification`` of every graph of one grid point, in
    (instance, graph) order."""
    samples = []
    for instance in range(cfg.instances):
        formula = sample_formula(cfg, n_index, alpha_index, instance)
        for graph_index in range(cfg.graphs_per_instance):
            graph = build_sample_graph(
                cfg, n_index, alpha_index, instance, graph_index, formula=formula
            )
            samples.append(classification(graph))
    return samples


def aggregate_samples(n: int, alpha: float, samples: list[dict]) -> SweepRecord:
    """The sweep record of grid point (n, alpha) from its samples'
    classifications."""
    if not samples:
        raise ValueError("no samples to aggregate")
    count = len(samples)
    labels = [s["label"] for s in samples]
    return SweepRecord(
        n=n,
        alpha=float(alpha),
        mean_fraction_winner=float(np.mean([s["fraction_winner"] for s in samples])),
        pct_full_bec=100.0 * labels.count(Phase.FULL_BEC.value) / count,
        pct_partial_bec=100.0 * labels.count(Phase.PARTIAL_BEC.value) / count,
        pct_fgr=100.0 * labels.count(Phase.FIT_GET_RICH.value) / count,
        nonwinner_mean=float(np.mean([s["nonwinner_mean"] for s in samples])),
        nonwinner_std=float(np.mean([s["nonwinner_std"] for s in samples])),
        samples=count,
    )


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks: ``jobs`` capped at
    the task count and the core count, and at least 1.  ``jobs`` must be a
    count (``cnf.is_count``); anything else raises ValueError."""
    if not is_count(jobs):
        raise ValueError("jobs must be a non-negative integer")
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _run_tasks(fn, cfg: SweepConfig | BenchConfig, jobs: int) -> list:
    """``((n, alpha), fn(cfg, n_index, alpha_index))`` at every grid point, in
    n-major order, in ``worker_count(jobs, points)`` processes when that is
    more than 1; ``map`` and ``pool.map`` both keep the order."""
    points = [(i, j) for i in range(len(cfg.n_values)) for j in range(len(cfg.alphas))]
    tasks = ([cfg] * len(points), *zip(*points))
    workers = worker_count(jobs, len(points))
    if workers == 1:
        results = list(map(fn, *tasks))
    else:
        # imported here: the pool's modules cost every other process 2 MiB
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, *tasks))
    return [((cfg.n_values[i], cfg.alphas[j]), r) for (i, j), r in zip(points, results)]


def sweep(cfg: SweepConfig, jobs: int = 1) -> list[SweepRecord]:
    """One record per (n, alpha) grid point, n-major order.

    ``jobs`` > 1 distributes grid points over processes; 0 or 1 runs them in
    this process (``worker_count(0, n) == 1``; the CLI maps ``--jobs 0`` to
    all cores).  The output is independent of the worker count.
    """
    return [
        aggregate_samples(n, alpha, samples)
        for (n, alpha), samples in _run_tasks(run_grid_point, cfg, jobs)
    ]


SWEEP_CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


def sweep_records_to_csv(records) -> str:
    """The fields of each ``SweepRecord`` as one CSV row; csv writes a
    float as its repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SWEEP_CSV_COLUMNS)
    writer.writerows(vars(r).values() for r in records)
    return out.getvalue()


@dataclass(frozen=True)
class BenchConfig:
    k: int = 3
    n_values: tuple[int, ...] = (25, 50)
    alphas: tuple[float, ...] = ()  # empty: default_alpha_grid(k), set on construction
    instances: int = 30
    budget: int = solver.DESK_BUDGET
    p1: float | None = None
    p2: float | None = None
    solvers: tuple[str, ...] = solver.SOLVERS
    graph_mode: str = MODE_S2G
    theta: float = DEFAULT_THETA
    rho: int = DEFAULT_RHO
    temperature: float = DEFAULT_TEMPERATURE
    first_clause_rule: str = FIRST_RANDOM
    seed_root: int = 0

    def __post_init__(self):
        if (type(self.solvers) is not tuple or not self.solvers
                or any(s not in solver.SOLVERS for s in self.solvers)):
            raise ValueError(f"solvers must be a tuple drawn from {sorted(solver.SOLVERS)}")
        if len(set(self.solvers)) != len(self.solvers):
            raise ValueError("duplicate solver names")
        if type(self.alphas) is tuple and not self.alphas:
            object.__setattr__(self, "alphas", default_alpha_grid(self.k))
        _check_grid(self, builds=any(s in solver.ORDERED_SOLVERS for s in self.solvers))
        if not (is_count(self.budget) and self.budget <= MAX_COUNT):
            raise ValueError(f"budget must be a non-negative integer <= {MAX_COUNT}, "
                             f"got {self.budget!r}")
        solver.flip_probabilities(self.k, self.p1, self.p2)

    def builder_config(self, seed: int) -> BuilderConfig:
        return _builder_config(self, self.graph_mode, seed)

    def resolved_alphas(self) -> tuple[float, ...]:
        return self.alphas


def default_alpha_grid(k: int) -> tuple[float, ...]:
    """Evenly spaced alphas spanning [threshold - 2, threshold + 1]."""
    try:
        threshold = SAT_THRESHOLD[k]
    except KeyError:
        raise ValueError(f"no accepted threshold for k={k}; pass alphas explicitly") from None
    return tuple(float(a) for a in np.linspace(threshold - 2.0, threshold + 1.0, 8))


@dataclass(frozen=True)
class GroupVerdict:
    n: int
    alpha: float
    solver_a: str
    solver_b: str
    verdict: str


@dataclass(frozen=True)
class BenchReport:
    verdicts: tuple[GroupVerdict, ...]
    # per solver, results in (n_index, alpha_index, instance) order
    results: dict


def _bench_group(cfg: BenchConfig, n_index: int, alpha_index: int):
    needs_graph = any(s in solver.ORDERED_SOLVERS for s in cfg.solvers)
    group: dict[str, list[solver.SolverResult]] = {s: [] for s in cfg.solvers}
    for instance in range(cfg.instances):
        formula = sample_formula(cfg, n_index, alpha_index, instance)
        order = None
        if needs_graph:
            graph = build_sample_graph(cfg, n_index, alpha_index, instance, 0, formula=formula)
            oseed = derive_seed(cfg.seed_root, TAG_ORDER, n_index, alpha_index, instance)
            order = solver.clause_order(formula, graph, oseed)
        for solver_index, name in enumerate(cfg.solvers):
            sseed = derive_seed(
                cfg.seed_root, TAG_SOLVE, n_index, alpha_index, instance, solver_index
            )
            group[name].append(
                solver.solve(formula, name, order, cfg.p1, cfg.p2, cfg.budget, sseed)
            )
    return group


def benchmark(cfg: BenchConfig, jobs: int = 1) -> BenchReport:
    """Run every configured solver over the instance grid and compare each
    one against the first-listed solver per (n, alpha) group.  ``jobs`` works
    as for ``sweep``: 0 or 1 runs in this process."""
    groups = _run_tasks(_bench_group, cfg, jobs)
    baseline = cfg.solvers[0]
    verdicts = tuple(
        GroupVerdict(n, alpha, name, baseline, solver.compare(group[name], group[baseline]))
        for (n, alpha), group in groups
        for name in cfg.solvers[1:]
    )
    results = {name: tuple(r for _, group in groups for r in group[name]) for name in cfg.solvers}
    return BenchReport(verdicts, results)


BENCH_CSV_COLUMNS = ("row", "solver", "solved", "maxsat", "flips", "n", "alpha", "verdict")


def bench_report_to_csv(report: BenchReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_CSV_COLUMNS)
    for name, runs in report.results.items():
        solved, satisfied, flips = solver.totals(runs)
        writer.writerow(["result", name, solved, repr(satisfied / len(runs)), flips, "", "", ""])
    for v in report.verdicts:
        writer.writerow(
            ["verdict", f"{v.solver_a}-vs-{v.solver_b}", "", "", "", v.n, repr(float(v.alpha)), v.verdict]
        )
    return out.getvalue()
