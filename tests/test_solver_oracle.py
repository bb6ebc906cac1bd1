"""The fused solver loop against the engine-and-selector oracle in
``solver_oracle``: equal results, field for field, on small random
formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solver_oracle import oracle_solve
from satbec.cnf import generate_random, parse_dimacs
from satbec.solver import (
    FLIP_PROBABILITIES,
    SOLVERS,
    ClauseOrder,
    chainsat,
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
