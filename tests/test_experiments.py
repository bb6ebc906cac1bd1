"""Experiment harness: grids, aggregation, benchmark."""

import concurrent.futures
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from satbec.experiments import (
    BENCH_CSV_COLUMNS,
    SAT_THRESHOLD,
    SWEEP_CSV_COLUMNS,
    BenchConfig,
    SweepConfig,
    aggregate_samples,
    bench_report_to_csv,
    benchmark,
    clause_count,
    default_alpha_grid,
    run_grid_point,
    sample_formula,
    sweep,
    sweep_records_to_csv,
    worker_count,
)


def test_sat_thresholds():
    assert SAT_THRESHOLD == {3: 4.256, 4: 9.931, 5: 21.117}


def test_clause_count_rounds():
    assert clause_count(50, 4.256) == 213
    assert clause_count(100, 1.0) == 100
    assert clause_count(25, 4.399) == 110
    assert clause_count(10, 0.24) == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_values": (), "alphas": (1.0,)},
        {"n_values": (0,), "alphas": (1.0,)},
        {"n_values": (10,), "alphas": ()},
        {"n_values": (10,), "alphas": (0.0,)},
        {"n_values": (10,), "alphas": (2.0, 1.0)},
        {"n_values": (10,), "alphas": (1.0,), "instances": 0},
        {"n_values": (10,), "alphas": (1.0,), "graphs_per_instance": 0},
        {"n_values": (10,), "alphas": (1.0,), "seed_root": -1},
        {"n_values": (10,), "alphas": (1.0,), "theta": 2.0},
        {"n_values": (10,), "alphas": (1.0,), "rho": 0},
        {"n_values": (10,), "alphas": (1.0,), "mode": "bogus"},
        {"n_values": (10,), "alphas": (1.0,), "k": 0},
        {"n_values": (3, 10), "alphas": (1.0,), "k": 5},
        {"n_values": (10,), "alphas": (0.1,)},  # one clause: no network
        # counts are exact ints, bools refused
        {"n_values": (10,), "alphas": (1.0,), "seed_root": 1.5},
        {"n_values": (10,), "alphas": (1.0,), "instances": 1.5},
        {"n_values": (10.0,), "alphas": (1.0,)},
        {"n_values": (10,), "alphas": (1.0,), "k": True},
        {"n_values": (10,), "alphas": (1.0,), "graphs_per_instance": True},
        # alphas are reals (cnf.is_real), checked before they are sorted
        {"n_values": (10,), "alphas": ("x",)},
        {"n_values": (10,), "alphas": (True,)},
        {"n_values": (10,), "alphas": (1.0, "x")},
        {"n_values": (10,), "alphas": (None,)},
        {"n_values": (10,), "alphas": (np.float32(2.0),)},
        {"n_values": (10,), "alphas": (np.int64(2),)},
        # alpha * n or n above cnf.MAX_COUNT
        {"n_values": (10,), "alphas": (1e300,)},
        {"n_values": (10,), "alphas": (1e308,)},
        {"n_values": (2**31,), "alphas": (1.0,)},
        # n_values and alphas are tuples, so the frozen config hashes
        {"n_values": (10,), "alphas": 2.0},
        {"n_values": 10, "alphas": (2.0,)},
        {"n_values": (10,), "alphas": [2.0]},
        {"n_values": [10], "alphas": (2.0,)},
    ],
)
def test_sweep_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SweepConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"theta": 2.0},
        {"temperature": 0.0},
        {"graph_mode": "bogus"},
        {"budget": -1},
        {"p1": 3.0},
        {"p2": -0.5},
        {"k": 2, "alphas": (1.0, 2.0)},  # no default flip probabilities
        {"k": 2, "alphas": (1.0,), "p1": 0.1},
        {"k": 5, "n_values": (3,), "alphas": (2.0,), "p1": 0.1, "p2": 0.1},
        {"k": 0, "alphas": (2.0,), "p1": 0.1, "p2": 0.1},
        {"n_values": (10,), "alphas": (0.1,)},  # one clause: no ordering graph
        {"alphas": (-1.0,), "solvers": ("chainsat",)},
        {"seed_root": -1},
        {"theta": 2.0, "solvers": ("chainsat",)},
        {"budget": 2.5},
        {"seed_root": True},
        {"alphas": (None,)},
        {"alphas": (1e308,), "solvers": ("chainsat",)},
        {"p1": np.float32(0.5)},
        # solvers, n_values and alphas are tuples, so the frozen config hashes
        {"solvers": ["chainsat"]},
        {"n_values": [50]},
        {"alphas": [2.0]},
        {"alphas": []},
        {"alphas": 2.0},
    ],
)
def test_bench_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        BenchConfig(**kwargs)


def test_bench_config_accepts_explicit_probabilities_and_graphless_grids():
    BenchConfig(k=2, n_values=(10,), alphas=(1.0,), p1=0.1, p2=0.0)
    # chainsat builds no network, so a point with fewer than 2 clauses is fine
    BenchConfig(n_values=(10,), alphas=(0.1,), solvers=("chainsat",))


def test_sample_formula_addressing():
    cfg = SweepConfig(n_values=(12, 15), alphas=(1.0, 2.0), instances=3, graphs_per_instance=1)
    f = sample_formula(cfg, 1, 1, 2)
    assert f.n == 15 and f.m == 30
    assert sample_formula(cfg, 1, 1, 2) == f  # a fixed address replays
    assert sample_formula(cfg, 1, 1, 1) != f
    assert sample_formula(cfg, 0, 1, 2) != f


def test_run_grid_point_shape_and_ranges():
    cfg = SweepConfig(n_values=(15,), alphas=(2.0,), instances=3, graphs_per_instance=4)
    samples = run_grid_point(cfg, 0, 0)
    assert len(samples) == 12
    for s in samples:
        assert 0.0 <= s["fraction_winner"] <= 1.0
        assert s["label"] in ("FullBEC", "PartialBEC", "FitGetRich")
        assert s["nonwinner_std"] >= 0.0


def sample_with(fraction, label, mean=1.0, std=0.5):
    return {
        "fraction_winner": fraction,
        "label": label,
        "nonwinner_mean": mean,
        "nonwinner_std": std,
    }


def test_aggregate_samples_math():
    samples = [
        sample_with(1.0, "FullBEC", mean=2.0, std=0.0),
        sample_with(0.8, "PartialBEC", mean=1.0, std=1.0),
        sample_with(0.5, "FitGetRich", mean=0.0, std=2.0),
        sample_with(0.5, "FitGetRich", mean=1.0, std=1.0),
    ]
    record = aggregate_samples(10, 1, samples)
    assert (record.n, record.alpha, record.samples) == (10, 1.0, 4)
    assert isinstance(record.alpha, float)
    assert record.mean_fraction_winner == pytest.approx(0.7)
    assert record.pct_full_bec == pytest.approx(25.0)
    assert record.pct_partial_bec == pytest.approx(25.0)
    assert record.pct_fgr == pytest.approx(50.0)
    assert record.nonwinner_mean == pytest.approx(1.0)
    assert record.nonwinner_std == pytest.approx(1.0)
    with pytest.raises(ValueError):
        aggregate_samples(10, 1.0, [])


def test_sweep_is_worker_count_invariant():
    cfg = SweepConfig(n_values=(12,), alphas=(1.0, 2.0), instances=2, graphs_per_instance=2)
    serial = sweep(cfg, jobs=1)
    parallel = sweep(cfg, jobs=2)
    assert serial == parallel
    assert [r.alpha for r in serial] == [1.0, 2.0]


def test_sweep_csv_shape():
    cfg = SweepConfig(n_values=(12,), alphas=(1.0, 2.0), instances=2, graphs_per_instance=2)
    text = sweep_records_to_csv(sweep(cfg))
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == SWEEP_CSV_COLUMNS
    assert len(rows) == 3
    assert float(rows[1][1]) == 1.0
    assert int(rows[1][8]) == 4


def test_sweep_csv_writes_an_int_alpha_as_a_float():
    cfg = SweepConfig(n_values=(10,), alphas=(2,), instances=1, graphs_per_instance=1)
    rows = list(csv.reader(io.StringIO(sweep_records_to_csv(sweep(cfg)))))
    assert rows[1][:2] == ["10", "2.0"]


def test_default_alpha_grid_spans_threshold_window():
    grid = default_alpha_grid(3)
    assert len(grid) == 8
    assert grid[0] == pytest.approx(4.256 - 2.0)
    assert grid[-1] == pytest.approx(4.256 + 1.0)
    assert list(grid) == sorted(grid)
    with pytest.raises(ValueError):
        default_alpha_grid(6)


def tiny_bench_config(**overrides):
    kwargs = dict(
        n_values=(10,),
        alphas=(2.0, 3.0),
        instances=2,
        budget=200,
        seed_root=0,
    )
    kwargs.update(overrides)
    return BenchConfig(**kwargs)


def test_benchmark_report_shape():
    report = benchmark(tiny_bench_config())
    assert list(report.results) == ["chainsat", "lc", "nlc"]
    for runs in report.results.values():
        assert len(runs) == 4
        assert 0 <= sum(r.solved for r in runs) <= 4
    # each non-baseline solver is compared against the baseline per group
    pairs = {(v.solver_a, v.solver_b) for v in report.verdicts}
    assert pairs == {("lc", "chainsat"), ("nlc", "chainsat")}
    assert len(report.verdicts) == 4
    assert all(v.verdict in ("a_better", "b_better", "tie") for v in report.verdicts)


def test_benchmark_is_worker_count_invariant():
    serial = benchmark(tiny_bench_config(), jobs=1)
    parallel = benchmark(tiny_bench_config(), jobs=2)
    assert serial == parallel


def test_bench_csv_shape():
    text = bench_report_to_csv(benchmark(tiny_bench_config()))
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == BENCH_CSV_COLUMNS
    kinds = [row[0] for row in rows[1:]]
    assert kinds.count("result") == 3
    assert kinds.count("verdict") == 4


def test_worker_count_caps_jobs_at_tasks_and_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert worker_count(10**6, 3) == 3
    assert worker_count(10**6, 100) == 8
    assert worker_count(4, 100) == 4
    assert worker_count(1, 100) == 1
    assert worker_count(0, 100) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_count(16, 16) == 1


@pytest.mark.parametrize("jobs", ["2", None, 2.5, -3, True, np.int64(2)])
def test_worker_count_refuses_a_jobs_that_is_not_a_count(jobs):
    with pytest.raises(ValueError, match="jobs"):
        worker_count(jobs, 4)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and runs the tasks in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_sweep_and_benchmark_ask_for_the_capped_pool(monkeypatch):
    sizes = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(sizes, max_workers)
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = SweepConfig(n_values=(12,), alphas=(1.0, 2.0, 3.0), instances=1, graphs_per_instance=1)
    assert sweep(cfg, jobs=10**6) == sweep(cfg, jobs=1)
    assert benchmark(tiny_bench_config(), jobs=10**6) == benchmark(tiny_bench_config(), jobs=1)
    assert sizes == [3, 2]


def test_importing_the_cli_loads_no_worker_pool():
    # only a run with more than one worker pays for the pool's modules
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys, satbec.cli; print(sorted(name for name in sys.modules"
              " if name.partition('.')[0] in ('concurrent', 'multiprocessing')))")
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
