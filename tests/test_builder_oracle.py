"""The incremental builder against the full-recompute, dense-matrix oracle
in ``builder_oracle``: same graph JSON byte for byte, same state at every
step, and the same distances from the per-literal clause lists."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builder_oracle import OracleState, distance_matrix, oracle_build, update_fitness
from conftest import formula_from_signed
from satbec.builder import BuilderConfig, BuildState, build_graph
from satbec.cnf import clause_code_array, generate_random, parse_dimacs
from satbec.graph import MODE_S2G, MODE_S2GPA, graph_to_json


@st.composite
def formulas(draw):
    """Small DIMACS formulas, k 1-5; with ``repeats`` a clause may repeat a
    variable (same or opposite sign), which the parser flags."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, k + 7))
    m = draw(st.integers(2, 40))
    repeats = draw(st.booleans())
    lines = [f"p cnf {n} {m}"]
    for _ in range(m):
        if repeats:
            variables = draw(st.lists(st.integers(1, n), min_size=k, max_size=k))
        else:
            variables = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
        lines.append(" ".join(str(v * s) for v, s in zip(variables, signs)) + " 0")
    return parse_dimacs("\n".join(lines) + "\n")


configs = st.builds(
    BuilderConfig,
    mode=st.sampled_from((MODE_S2G, MODE_S2GPA)),
    temperature=st.sampled_from((1.0, 3.7)),
    theta=st.sampled_from((0.33, 0.5)),
    rho=st.integers(1, 3),
    seed=st.integers(0, 2**31 - 1),
    first_clause_rule=st.sampled_from(("random", "fittest")),
)


def step_recorder():
    steps = []

    def hook(state, pi):
        steps.append(
            (
                state.order_array().tolist(),
                state.fitness.tolist(),
                state.fittest,
                state.conn.tolist(),
                state.in_events.tolist(),
                state.out_events.tolist(),
                np.asarray(pi).tolist(),
            )
        )

    return steps, hook


@settings(max_examples=300, deadline=None)
@given(formulas(), configs)
def test_builder_matches_oracle_step_by_step(formula, cfg):
    steps, hook = step_recorder()
    oracle_steps, oracle_hook = step_recorder()
    graph = build_graph(formula, cfg, iteration_hook=hook)
    expected = oracle_build(formula, cfg, iteration_hook=oracle_hook)
    assert graph_to_json(graph) == graph_to_json(expected)
    assert len(steps) == formula.m - 1
    for got, want in zip(steps, oracle_steps):
        assert got == want


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_matches_give_dense_distance_matrix(formula):
    # before any clause joins, every clause is unadded, so the matches of
    # each target give its whole row of the distance matrix
    state = BuildState(formula, BuilderConfig())
    m, k = formula.m, formula.k
    dense = np.full((m, m), k, dtype=np.int64)
    for t in range(m):
        for other, count in state.matches(t).items():
            dense[t, other] = k - count
    assert np.all(np.diagonal(dense) == 0)
    expected = distance_matrix(formula, clause_code_array(formula))
    off_diagonal = ~np.eye(m, dtype=bool)
    assert np.array_equal(dense[off_diagonal], expected[off_diagonal])


def test_builder_matches_oracle_at_alpha_8():
    formula = generate_random(3, 3, 60, 480)
    for mode in (MODE_S2G, MODE_S2GPA):
        cfg = BuilderConfig(mode=mode, seed=4)
        assert graph_to_json(build_graph(formula, cfg)) == graph_to_json(oracle_build(formula, cfg))


def test_update_fitness_incumbent_rule():
    f = formula_from_signed([(1, 2, 3), (4, 5, 6), (4, 5, 6)], 6)
    state = OracleState(f, BuilderConfig())
    state.add_clause(0)
    update_fitness(state)
    assert state.fittest == 0
    state.add_clause(1)
    update_fitness(state)
    assert state.fittest == 0  # tie at 3: incumbent stays
    state.add_clause(2)
    update_fitness(state)
    assert state.fittest == 1  # clauses 1, 2 jump to 6: lowest index wins
    assert state.fitness[list(state.order)].tolist() == [3, 6, 6]
    assert state.normalized[0] == pytest.approx(0.5)
    assert state.energy[1] == 0.0
