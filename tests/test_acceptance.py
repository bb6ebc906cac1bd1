"""Acceptance gate: eleven pinned checks, one test and one verdict line each.

Every test prints its measured numbers, then asserts the pinned bound, so a
plain ``pytest -v tests/test_acceptance.py`` reads as a scoreboard.

Four checks (4, 5, the first half of 6, and 10) FAIL by design of this
release: the condensation phenomenology they pin (winner-takes-all networks
at low clause density, a full-condensate share that collapses as density
grows, non-winner connectivity frozen at theta, a curvature peak near the
satisfiability threshold) does not emerge from the growth rule this package
implements, at any sample size tested.  The machinery itself validates on
hand-checkable instances; the ensemble behavior is what does not appear.
README section "Reproduction status" carries the measurements and the
argument for why those curves cannot follow from the update rule itself.
The bounds are kept as stated rather than loosened to fit.
"""

import os
import time

import numpy as np
import pytest

from conftest import components
from curve_fit import polyfit6, second_derivative_peak
from satbec.analysis import Phase
from satbec.builder import BuilderConfig, build_graph
from satbec.cli import main as cli_main
from satbec.cnf import generate_random
from satbec.experiments import (
    BenchConfig,
    SweepConfig,
    benchmark,
    bench_report_to_csv,
    clause_count,
    run_grid_point,
    sweep,
)
from satbec.graph import MODE_S2G, MODE_S2GPA
from satbec.metrics import clause_distance
from satbec.seeding import TAG_BUILD, TAG_GENERATE, TAG_ORDER, TAG_SOLVE, derive_rng, derive_seed
from satbec.solver import (
    DESK_BUDGET,
    chainsat,
    clause_order,
    lc_chainsat,
    nlc_chainsat,
    verify_result,
)

JOBS = max(1, min(4, os.cpu_count() or 1))
THETA = 0.33


def verdict(name, ok, detail):
    print(f"[{name}] {detail} -> {'PASS' if ok else 'FAIL'}")
    return f"{name}: {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def low_high_sweep():
    """30 instances x 10 graphs at n=100 for alpha 1.0 and 8.0, seed root 0."""
    cfg = SweepConfig(n_values=(100,), alphas=(1.0, 8.0), seed_root=0)
    start = time.perf_counter()
    samples = {alpha: run_grid_point(cfg, 0, i) for i, alpha in enumerate(cfg.alphas)}
    elapsed = time.perf_counter() - start
    return {"samples": samples, "elapsed": elapsed}


@pytest.fixture(scope="module")
def solver_runs():
    """All three solvers on 104 instances (budget 10^4), trajectories kept."""
    runs = []
    for n_index, n in enumerate((25, 50)):
        for alpha_index, alpha in enumerate((3.0, 4.0, 4.256, 5.0)):
            m = clause_count(n, alpha)
            for instance in range(13):
                fseed = derive_seed(11, TAG_GENERATE, n_index, alpha_index, instance)
                formula = generate_random(fseed, 3, n, m)
                gseed = derive_seed(11, TAG_BUILD, n_index, alpha_index, instance)
                graph = build_graph(formula, BuilderConfig(mode=MODE_S2G, seed=gseed))
                order = clause_order(
                    formula, graph, derive_seed(11, TAG_ORDER, n_index, alpha_index, instance)
                )
                sseed = derive_seed(11, TAG_SOLVE, n_index, alpha_index, instance)
                runs.append((formula, chainsat(
                    formula, budget=DESK_BUDGET, seed=sseed, record_trajectory=True)))
                runs.append((formula, lc_chainsat(
                    formula, order, budget=DESK_BUDGET, seed=sseed, record_trajectory=True)))
                runs.append((formula, nlc_chainsat(
                    formula, order, budget=DESK_BUDGET, seed=sseed, record_trajectory=True)))
    return runs


@pytest.fixture(scope="module")
def bench_report():
    return benchmark(BenchConfig(seed_root=0), jobs=JOBS)


# ---------------------------------------------------------------- criteria


def test_criterion_01_distance_is_a_metric():
    rng = derive_rng(1)
    pools = {}
    for k in (3, 4, 5):
        pool = generate_random(int(rng.integers(2**31)), k, 50, 3000)
        pools[k] = pool.clauses
    triples = []
    for i in range(100_000):
        k = (3, 4, 5)[i % 3]
        idx = rng.integers(3000, size=3)
        pool = pools[k]
        triples.append((pool[idx[0]], pool[idx[1]], pool[idx[2]]))
    start = time.perf_counter()
    violations = 0
    for a, b, c in triples:
        ab = clause_distance(a, b)
        if ab < 0 or ab != clause_distance(b, a):
            violations += 1
        if clause_distance(a, a) != 0:
            violations += 1
        if clause_distance(a, c) > ab + clause_distance(b, c):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    detail = f"10^5 triples, {violations} axiom violations, {elapsed:.2f}s (< 5s)"
    assert ok, verdict("criterion 01 metric axioms", ok, detail)
    verdict("criterion 01 metric axioms", ok, detail)


def test_criterion_02_attachment_probabilities_normalize():
    m = clause_count(50, 4.256)
    worst = 0.0
    iterations = 0

    def hook(state, pi):
        nonlocal worst, iterations
        iterations += 1
        worst = max(worst, abs(float(np.sum(pi)) - 1.0))

    for i in range(50):
        formula = generate_random(derive_seed(2, TAG_GENERATE, i), 3, 50, m)
        build_graph(formula, BuilderConfig(mode=MODE_S2G, seed=i), iteration_hook=hook)
    for i in range(50):
        formula = generate_random(derive_seed(2, TAG_GENERATE, 50 + i), 3, 50, m)
        build_graph(formula, BuilderConfig(mode=MODE_S2GPA, seed=i), iteration_hook=hook)
    ok = worst <= 1e-9
    detail = f"100 builds, {iterations} iterations, max |sum - 1| = {worst:.2e} (<= 1e-9)"
    assert ok, verdict("criterion 02 probability normalization", ok, detail)
    verdict("criterion 02 probability normalization", ok, detail)


def test_criterion_03_connectivity_bookkeeping():
    m = clause_count(50, 4.256)
    worst = 0.0
    degree_violations = 0
    component_violations = 0

    def hook(state, pi):
        nonlocal worst
        order = state.order_array()
        expected = THETA * state.out_events[order] + state.in_events[order]
        worst = max(worst, float(np.max(np.abs(state.conn[order] - expected))))

    for i in range(100):
        formula = generate_random(derive_seed(3, TAG_GENERATE, i), 3, 50, m)
        graph = build_graph(
            formula,
            BuilderConfig(mode=MODE_S2GPA, theta=THETA, rho=1, seed=i),
            iteration_hook=hook,
        )
        insertion = {c: r for r, c in enumerate(graph.insertion_order)}
        out_neighbors = {c: set() for c in insertion}
        for e in graph.edges.values():
            junior = e.u if insertion[e.u] > insertion[e.v] else e.v
            out_neighbors[junior].add(e.u if junior == e.v else e.v)
        for node in graph.nodes[1:]:
            if not 1 <= len(out_neighbors[node.clause]) <= 1:
                degree_violations += 1
        if len(components(graph)) != 1:
            component_violations += 1
    ok = worst <= 1e-9 and degree_violations == 0 and component_violations == 0
    detail = (
        f"100 builds, max |k - (theta*od + id)| = {worst:.2e} (<= 1e-9), "
        f"{degree_violations} out-degree violations, "
        f"{component_violations} disconnected graphs"
    )
    assert ok, verdict("criterion 03 degree bookkeeping", ok, detail)
    verdict("criterion 03 degree bookkeeping", ok, detail)


def test_criterion_04_winner_takes_all_at_low_density(low_high_sweep):
    samples = low_high_sweep["samples"][1.0]
    mean_fraction = float(np.mean([s["fraction_winner"] for s in samples]))
    elapsed = low_high_sweep["elapsed"]
    ok = mean_fraction >= 0.99 and elapsed < 300.0
    detail = (
        f"n=100 alpha=1.0, 300 graphs: mean fraction winner = {mean_fraction:.4f} "
        f"(>= 0.99 required), sweep {elapsed:.0f}s (< 300s); see README 'Reproduction status'"
    )
    assert ok, verdict("criterion 04 winner takes all", ok, detail)
    verdict("criterion 04 winner takes all", ok, detail)


def test_criterion_05_condensate_share_declines(low_high_sweep):
    def full_share(samples):
        return 100.0 * sum(
            1 for s in samples if s["label"] == Phase.FULL_BEC.value
        ) / len(samples)

    low = full_share(low_high_sweep["samples"][1.0])
    high = full_share(low_high_sweep["samples"][8.0])
    drop = low - high
    ok = drop >= 30.0
    detail = (
        f"%full-condensate: alpha=1 {low:.1f}%, alpha=8 {high:.1f}%, drop {drop:.1f}pp "
        f"(>= 30pp required); see README 'Reproduction status'"
    )
    assert ok, verdict("criterion 05 condensate share", ok, detail)
    verdict("criterion 05 condensate share", ok, detail)


def test_criterion_06_nonwinner_connectivity_regimes(low_high_sweep):
    low = low_high_sweep["samples"][1.0]
    frozen = sum(1 for s in low if s["nonwinner_std"] == 0.0 and s["nonwinner_mean"] == THETA)
    high = low_high_sweep["samples"][8.0]
    positive_share = sum(1 for s in high if s["nonwinner_std"] > 0.0) / len(high)
    ok_low = frozen == len(low)
    ok_high = positive_share >= 0.90
    detail = (
        f"alpha=1: {frozen}/{len(low)} graphs with non-winner connectivity frozen at "
        f"theta (all required); alpha=8: std > 0 in {positive_share:.1%} (>= 90% required); "
        f"see README 'Reproduction status'"
    )
    ok = ok_low and ok_high
    assert ok, verdict("criterion 06 non-winner statistics", ok, detail)
    verdict("criterion 06 non-winner statistics", ok, detail)


def test_criterion_07_solvers_never_move_up(solver_runs):
    violations = 0
    for _, result in solver_runs:
        trajectory = result.unsat_trajectory
        violations += sum(1 for a, b in zip(trajectory, trajectory[1:]) if b > a)
    ok = violations == 0 and len(solver_runs) >= 300
    detail = f"{len(solver_runs)} runs (>= 300), {violations} uphill moves (0 required)"
    assert ok, verdict("criterion 07 energy monotonicity", ok, detail)
    verdict("criterion 07 energy monotonicity", ok, detail)


def test_criterion_08_solved_results_reverify(solver_runs, bench_report):
    checked = 0
    failures = 0
    for formula, result in solver_runs:
        checked += 1
        if not verify_result(formula, result):
            failures += 1
    solved = sum(1 for _, r in solver_runs if r.solved)
    for name, results in bench_report.results.items():
        for result in results:
            if result.solved:
                solved += 1
    ok = failures == 0
    detail = f"{checked} results re-evaluated clause by clause, {solved} solved, {failures} mismatches"
    assert ok, verdict("criterion 08 verification oracle", ok, detail)
    verdict("criterion 08 verification oracle", ok, detail)


def test_criterion_09_ordered_solver_beats_baseline(bench_report):
    wins = 0
    groups = 0
    for v in bench_report.verdicts:
        if v.solver_a == "lc" and v.solver_b == "chainsat":
            groups += 1
            wins += v.verdict == "a_better"
    share = wins / groups
    csv_text = bench_report_to_csv(bench_report)
    table_rows = [r for r in csv_text.splitlines() if r.startswith("result,")]
    for row in table_rows:
        print(f"[criterion 09 table] {row}")
    ok = share >= 0.45 and len(table_rows) == 3
    detail = (
        f"16 (n, alpha) groups, budget 10^4, 30 instances each: "
        f"lc beats chainsat in {wins}/{groups} = {share:.0%} (>= 45% required)"
    )
    assert ok, verdict("criterion 09 solver comparison", ok, detail)
    verdict("criterion 09 solver comparison", ok, detail)


def test_criterion_10_curvature_peak_location():
    alphas = tuple(round(2.0 + 0.25 * i, 2) for i in range(21))
    cfg = SweepConfig(n_values=(50,), alphas=alphas, seed_root=0)
    records = sweep(cfg, jobs=JOBS)
    fit = polyfit6([(r.alpha, r.mean_fraction_winner) for r in records])
    peak = second_derivative_peak(fit, 2.0, 7.0)
    ok = 3.5 <= peak <= 5.5
    detail = (
        f"n=50, alpha 2..7 step 0.25, 300 graphs/point, degree-6 fit: "
        f"second-derivative peak at alpha = {peak:.2f} (required in [3.5, 5.5]); "
        f"see README 'Reproduction status'"
    )
    assert ok, verdict("criterion 10 curvature diagnostic", ok, detail)
    verdict("criterion 10 curvature diagnostic", ok, detail)


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    cnf = tmp_path / "f.cnf"
    g = tmp_path / "g.json"
    commands = (
        ["gen", "--seed", "5", "--n", "20", "--m", "60", "--out", str(cnf)],
        ["build", "--mode", "s2gpa", "--seed", "6", "--in", str(cnf), "--out", str(g)],
        ["classify", "--in", str(g), "--out", str(tmp_path / "p.json")],
        ["spectrum", "--in", str(g), "--out", str(tmp_path / "s.json"),
         "--dot", str(tmp_path / "g.dot")],
        ["solve", "--algo", "lc", "--graph", str(g), "--budget", "3000",
         "--seed", "7", "--in", str(cnf), "--out", str(tmp_path / "r.json")],
    )

    def run_all():
        for argv in commands:
            assert cli_main(list(argv)) == 0
        return {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}

    first = run_all()
    second = run_all()  # same commands again, overwriting in place
    identical = list(first) == list(second) and all(first[k] == second[k] for k in first)
    ok = identical and len(first) == 12  # six artifacts, six manifests
    detail = f"{len(first)} files (artifacts + manifests) re-run byte-identical: {identical}"
    assert ok, verdict("criterion 11 determinism", ok, detail)
    verdict("criterion 11 determinism", ok, detail)
