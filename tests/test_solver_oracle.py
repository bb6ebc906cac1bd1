"""The fused solver loop against the engine-and-selector oracle in
``solver_oracle``: equal results, field for field, on small random
formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solver_oracle import oracle_solve
from satbec.cnf import generate_random, parse_dimacs
from satbec.experiments import BenchConfig, build_sample_graph, sample_formula
from satbec.seeding import TAG_ORDER, TAG_SOLVE, derive_seed
from satbec.solver import (
    FLIP_PROBABILITIES,
    SOLVERS,
    ClauseOrder,
    chainsat,
    clause_order,
    lc_chainsat,
    nlc_chainsat,
    solve,
    verify_result,
)

NAMED = {"chainsat": chainsat, "lc": lc_chainsat, "nlc": nlc_chainsat}


@st.composite
def formulas(draw):
    """Small DIMACS formulas, k 1-5, m from 0; with ``repeats`` a clause may
    repeat a variable (same or opposite sign)."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, k + 7))
    m = draw(st.integers(0, 40))
    repeats = draw(st.booleans())
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        variables = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=not repeats))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
        lines.append(" ".join(str(v * s) for v, s in zip(variables, signs)) + " 0")
    return parse_dimacs("\n".join(lines) + "\n")


probabilities = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def runs(draw):
    formula = draw(formulas())
    algo = draw(st.sampled_from(SOLVERS))
    order = ClauseOrder(rank=tuple(draw(st.permutations(range(formula.m)))))
    p1, p2 = draw(probabilities), draw(probabilities)
    if formula.k in FLIP_PROBABILITIES:
        # the per-k defaults, for one or both
        p1 = draw(st.sampled_from((p1, None)))
        p2 = draw(st.sampled_from((p2, None)))
    return formula, algo, order, dict(
        p1=p1,
        p2=p2,
        budget=draw(st.integers(0, 2000)),
        seed=draw(st.integers(0, 2**64)),
        record_trajectory=draw(st.booleans()),
    )


@settings(max_examples=300, deadline=None)
@given(runs())
def test_solver_matches_oracle(run):
    formula, algo, order, kwargs = run
    expected = oracle_solve(formula, algo, order, **kwargs)
    assert solve(formula, algo, order, **kwargs) == expected
    if algo == "chainsat":
        assert NAMED[algo](formula, **kwargs) == expected
    else:
        assert NAMED[algo](formula, order, **kwargs) == expected
    if formula.m:
        # an empty formula's result carries an empty assignment
        assert verify_result(formula, expected)
    trajectory = expected.unsat_trajectory
    if trajectory is not None:
        assert len(trajectory) == expected.flips + 1
        if not formula.duplicate_vars:
            # a repeated true literal is not counted as a break, so on
            # duplicate-variable formulas a "zero-cost" flip can go uphill
            assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))


@st.composite
def repeat_dense_runs(draw):
    """Formulas on n = k or k + 1 variables with repeats, so most clauses
    hold a literal twice or both signs of a variable: the clauses where
    kept break and make counts are easiest to get wrong."""
    k = draw(st.integers(2, 5))
    n = draw(st.sampled_from((k, k + 1)))
    m = draw(st.integers(1, 40))
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        variables = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
        lines.append(" ".join(str(v * s) for v, s in zip(variables, signs)) + " 0")
    formula = parse_dimacs("\n".join(lines) + "\n")
    order = ClauseOrder(rank=tuple(draw(st.permutations(range(m)))))
    choices = (0.0, 1.0, None) if k in FLIP_PROBABILITIES else (0.0, 1.0)
    return formula, order, dict(
        p1=draw(st.sampled_from(choices)),
        p2=draw(st.sampled_from(choices)),
        budget=draw(st.integers(0, 2000)),
        seed=draw(st.integers(0, 2**64)),
        record_trajectory=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(repeat_dense_runs())
def test_solver_matches_oracle_on_repeated_literals(run):
    formula, order, kwargs = run
    for algo in SOLVERS:
        assert solve(formula, algo, order, **kwargs) == oracle_solve(formula, algo, order, **kwargs)


@pytest.mark.parametrize("alpha_index", [0, 5])
def test_solver_matches_oracle_at_bench_scale(alpha_index):
    # long runs at the default bench shape (n = 50, budget 10^4), at the
    # easiest alpha and the grid point nearest the threshold 4.26, each
    # order taken from a built graph as bench does
    cfg = BenchConfig(n_values=(50,))
    formula = sample_formula(cfg, 0, alpha_index, 0)
    graph = build_sample_graph(cfg, 0, alpha_index, 0, 0, formula=formula)
    order = clause_order(formula, graph, derive_seed(cfg.seed_root, TAG_ORDER, 0, alpha_index, 0))
    for solver_index, algo in enumerate(SOLVERS):
        seed = derive_seed(cfg.seed_root, TAG_SOLVE, 0, alpha_index, 0, solver_index)
        result = solve(formula, algo, order, budget=10_000, seed=seed)
        assert result == oracle_solve(formula, algo, order, budget=10_000, seed=seed)


def test_solve_dispatches_by_name():
    f = generate_random(1, 3, 20, 80)
    order = ClauseOrder(rank=tuple(range(f.m)))
    assert SOLVERS == ("chainsat", "lc", "nlc")
    assert solve(f, "chainsat", budget=500, seed=2) == chainsat(f, budget=500, seed=2)
    # chainsat ignores an order
    assert solve(f, "chainsat", order, budget=500, seed=2) == chainsat(f, budget=500, seed=2)
    assert solve(f, "lc", order, budget=500, seed=2) == lc_chainsat(f, order, budget=500, seed=2)
    assert solve(f, "nlc", order, budget=500, seed=2) == nlc_chainsat(f, order, budget=500, seed=2)


@pytest.mark.parametrize("algo", ["lc", "nlc"])
def test_solve_needs_an_order_for_ordered_solvers(algo):
    with pytest.raises(ValueError, match="order"):
        solve(generate_random(1, 3, 20, 80), algo, budget=10)


def test_solve_rejects_unknown_names_and_bad_orders():
    f = generate_random(1, 3, 20, 80)
    with pytest.raises(ValueError, match="unknown solver"):
        solve(f, "walksat", budget=10)
    with pytest.raises(ValueError, match="length"):
        solve(f, "lc", ClauseOrder(rank=(0, 1)), budget=10)
