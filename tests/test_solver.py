"""Local search: clause ordering, the three solver variants, verification."""

import inspect
import signal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import hand_graph
from satbec import solver

from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import (
    DimacsError,
    Formula,
    evaluate,
    formula_sha256,
    generate_random,
    parse_dimacs,
)
from satbec.graph import MODE_S2GPA, fitness_columns
from satbec.solver import (
    DEFAULT_BUDGET,
    DESK_BUDGET,
    FLIP_PROBABILITIES,
    A_BETTER,
    B_BETTER,
    TIE,
    SOLVERS,
    ClauseOrder,
    SolverResult,
    chainsat,
    clause_order,
    compare,
    flip_probabilities,
    lc_chainsat,
    nlc_chainsat,
    solve,
    verify_result,
)


def order_graph(formula, raw_fitness, connectivities):
    """An s2gpa graph of ``formula`` whose clause c, inserted c-th, has the
    given raw fitness and connectivity, on a chain of edges."""
    normalized, energies = fitness_columns(np.array(raw_fitness), 1.0)
    nodes = [(clause, raw, float(normalized[clause]), float(energies[clause]), c, 0, 0)
             for clause, (raw, c) in enumerate(zip(raw_fitness, connectivities))]
    edges = [(clause - 1, clause, 0.5, 1) for clause in range(1, len(raw_fitness))]
    return hand_graph(nodes, edges, mode=MODE_S2GPA, theta=0.33, rho=1, n=formula.n,
                      k=formula.k, formula_sha256=formula_sha256(formula))


def small_formula(m, seed=0, n=9):
    return generate_random(seed, 3, n, m)


def test_flip_probabilities():
    assert FLIP_PROBABILITIES == {3: 0.005, 4: 0.0001, 5: 0.0002}
    for k, p in FLIP_PROBABILITIES.items():
        assert flip_probabilities(k) == (p, p)
    # an explicit value is kept, the other filled from the table
    assert flip_probabilities(3, p1=0.25) == (0.25, 0.005)
    assert flip_probabilities(4, p2=1.0) == (0.0001, 1.0)
    # both explicit: no table entry needed
    assert flip_probabilities(6, 0.0, 0.5) == (0.0, 0.5)
    for p1, p2 in [(-0.1, 0.5), (0.5, 1.5), (float("nan"), 0.5), (0.5, float("nan")),
                   (float("inf"), None), ("0.5", None), (None, True), (np.int64(0), None),
                   (np.float32(0.5), None), (10**400, None)]:
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            flip_probabilities(3, p1, p2)
    for p1, p2 in [(None, None), (0.1, None), (None, 0.1)]:
        with pytest.raises(ValueError, match="k=6"):
            flip_probabilities(6, p1, p2)
    # k = 0, a formula with no clause, needs no table entry; k is checked first
    assert flip_probabilities(0) == (None, None)
    for k in ([3], {}, -1, 3.0, True):
        with pytest.raises(ValueError, match="k must be"):
            flip_probabilities(k, 0.5, 0.5)


@pytest.mark.parametrize("algo", SOLVERS)
@pytest.mark.parametrize("seed", [-1, -5, 1.0, True, None])
def test_solve_rejects_a_seed_that_is_not_a_non_negative_int(algo, seed):
    f = small_formula(10)
    order = ClauseOrder(rank=tuple(range(f.m)))
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        solve(f, algo, order, budget=10, seed=seed)


@pytest.mark.parametrize("algo", SOLVERS)
@pytest.mark.parametrize("budget", [-1, 2.5, 10.0, True])
def test_solve_rejects_a_budget_that_is_not_a_non_negative_int(algo, budget):
    f = small_formula(10)
    order = ClauseOrder(rank=tuple(range(f.m)))
    with pytest.raises(ValueError, match="budget must be a non-negative integer"):
        solve(f, algo, order, budget=budget, seed=0)


def test_budget_constants():
    assert DEFAULT_BUDGET == 1_000_000
    assert DESK_BUDGET == 10_000


def test_clause_order_by_energy_then_connectivity():
    f = small_formula(3)
    g = order_graph(f, [3, 1, 2], [1.0, 1.0, 1.0])
    assert clause_order(f, g, seed=0).rank == (0, 2, 1)
    # same energy level: higher connectivity first
    g = order_graph(f, [2, 2, 1], [2.0, 5.0, 1.0])
    assert clause_order(f, g, seed=0).rank == (1, 0, 2)


def test_clause_order_final_ties_are_seeded_random():
    f = small_formula(2)
    g = order_graph(f, [1, 1], [3.0, 3.0])
    firsts = [clause_order(f, g, seed=s).rank[0] for s in range(200)]
    zero_first = firsts.count(0)
    assert 60 < zero_first < 140  # both orders occur, roughly balanced
    assert clause_order(f, g, seed=7).rank == clause_order(f, g, seed=7).rank


def test_clause_order_checks_graph_matches_formula():
    f3 = small_formula(3)
    # graph from a different instance
    with pytest.raises(ValueError):
        clause_order(f3, order_graph(small_formula(3, seed=1), [1] * 3, [1.0] * 3), seed=0)
    # right hash, wrong node count
    with pytest.raises(ValueError):
        clause_order(f3, order_graph(f3, [2, 1], [1.0, 1.0]), seed=0)


def test_clause_order_positions_invert_rank():
    order = ClauseOrder(rank=(2, 0, 1))
    assert order.positions() == [1, 2, 0]


def test_chainsat_solves_a_loose_instance():
    f = small_formula(18, seed=3, n=12)  # alpha 1.5, satisfiable in practice
    result = chainsat(f, budget=DESK_BUDGET, seed=1)
    assert result.solved
    assert result.satisfied_clauses == f.m
    assert verify_result(f, result)
    assert result.formula_sha256 == formula_sha256(f)
    assert result.flips <= result.evaluations <= DESK_BUDGET


def test_chainsat_trajectory_is_monotone():
    for seed in range(5):
        f = generate_random(seed, 3, 20, 85)  # alpha 4.25
        result = chainsat(f, budget=2000, seed=seed, record_trajectory=True)
        trajectory = result.unsat_trajectory
        assert trajectory is not None
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))
        assert trajectory[-1] == f.m - result.satisfied_clauses


def test_chainsat_zero_budget_does_nothing():
    f = small_formula(10)
    result = chainsat(f, budget=0, seed=0)
    assert result.evaluations == 0
    assert result.flips == 0
    satisfied, _ = evaluate(f, result.assignment)
    assert result.satisfied_clauses == satisfied
    with pytest.raises(ValueError):
        chainsat(f, budget=-1)


def test_chainsat_is_seed_deterministic():
    f = generate_random(5, 3, 15, 60)
    a = chainsat(f, budget=3000, seed=9)
    b = chainsat(f, budget=3000, seed=9)
    assert a == b
    c = chainsat(f, budget=3000, seed=10)
    assert a != c


def test_chain_step_with_no_critical_clause_raises():
    # a copy of the walk that never takes back a break as v's flip leaves a
    # clause unsat: v's kept count then claims breaks no clause holds, and the
    # chain step must say so rather than draw from an empty list forever
    source = inspect.getsource(solver.solve)
    assert source.count("breaks[v] -= 1\n") == 1
    namespace = dict(vars(solver))
    exec(compile(source.replace("breaks[v] -= 1\n", "pass\n"), solver.__file__, "exec"), namespace)

    def timeout(signum, frame):
        raise TimeoutError("the chain step hangs")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        with pytest.raises(RuntimeError, match="no critical clause"):
            namespace["solve"](generate_random(0, 3, 20, 80), "chainsat", None, None, 0.0, 10**5, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_ordered_variants_run_and_verify():
    f = generate_random(6, 3, 25, 100)
    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, seed=2))
    order = clause_order(f, g, seed=3)
    for solve in (lc_chainsat, nlc_chainsat):
        result = solve(f, order, budget=DESK_BUDGET, seed=4)
        assert verify_result(f, result)
        again = solve(f, order, budget=DESK_BUDGET, seed=4)
        assert result == again


def test_ordered_variants_trajectories_monotone():
    f = generate_random(7, 3, 20, 85)
    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, seed=0))
    order = clause_order(f, g, seed=0)
    for solve in (lc_chainsat, nlc_chainsat):
        result = solve(f, order, budget=2000, seed=11, record_trajectory=True)
        trajectory = result.unsat_trajectory
        assert all(b <= a for a, b in zip(trajectory, trajectory[1:]))


def test_empty_formula_is_solved():
    f = parse_dimacs("p cnf 3 0\n")
    result = chainsat(f, p1=0.5, p2=0.5, budget=100, seed=0)
    assert result.solved and result.evaluations == 0


@pytest.mark.parametrize("algo", SOLVERS)
def test_empty_formula_checks_explicit_flip_probabilities(algo):
    # no clause, so no k to take defaults from: explicit values are still
    # range-checked, and the defaults still give a solved result
    f = Formula(3, ())
    order = ClauseOrder(rank=())
    nan = float("nan")
    for p1, p2 in [(5, None), (None, -0.5), (nan, None), (0.5, nan), (0.5, 1.5), (True, 0)]:
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            solve(f, algo, order, p1=p1, p2=p2, budget=100, seed=0)
    for p1, p2 in [(None, None), (0.0, None), (None, 1.0)]:
        result = solve(f, algo, order, p1=p1, p2=p2, budget=100, seed=0)
        assert result.solved and result.evaluations == 0


@pytest.mark.parametrize("algo", SOLVERS)
@pytest.mark.parametrize("budget", [0, 100])
def test_empty_clause_is_rejected(algo, budget):
    # an empty clause leaves no variable to pick; no formula can hold one, so
    # no walk starts on it, and the same clause with a literal runs
    with pytest.raises(DimacsError, match="at least one literal"):
        parse_dimacs("p cnf 3 1\n0\n")
    with pytest.raises(ValueError, match="at least one literal"):
        Formula(n=3, clauses=((),))
    f = parse_dimacs("p cnf 3 1\n2 0\n")
    result = solve(f, algo, ClauseOrder(rank=(0,)), p1=0.5, p2=0.5, budget=budget, seed=0)
    assert verify_result(f, result)


def test_solver_requires_probabilities_for_unusual_k():
    f = generate_random(8, 6, 12, 10)
    with pytest.raises(ValueError):
        chainsat(f, budget=100, seed=0)
    result = chainsat(f, p1=0.01, p2=0.01, budget=100, seed=0)
    assert verify_result(f, result)


def result_with(solved, satisfied, flips, digest="d" * 64):
    return SolverResult(
        solved=solved,
        satisfied_clauses=satisfied,
        flips=flips,
        evaluations=flips,
        assignment=(True,),
        formula_sha256=digest,
    )


def test_compare_rule_order():
    base = [result_with(False, 90, 500), result_with(True, 100, 400)]
    more_solved = [result_with(True, 90, 500), result_with(True, 100, 400)]
    assert compare(more_solved, base) == A_BETTER
    assert compare(base, more_solved) == B_BETTER
    # solved counts equal: satisfied total decides
    better_maxsat = [result_with(False, 95, 500), result_with(True, 100, 400)]
    assert compare(better_maxsat, base) == A_BETTER
    # solved and satisfied equal: fewer flips decides
    fewer_flips = [result_with(False, 90, 100), result_with(True, 100, 400)]
    assert compare(fewer_flips, base) == A_BETTER
    assert compare(base, base) == TIE


def three_step_verdict(a, b):
    """The verdict rule written out one step at a time: solved runs, then
    satisfied clauses, then flips."""
    for key, more_wins in ((lambda r: r.solved, True), (lambda r: r.satisfied_clauses, True),
                           (lambda r: r.flips, False)):
        total_a, total_b = sum(map(key, a)), sum(map(key, b))
        if total_a != total_b:
            return A_BETTER if (total_a > total_b) == more_wins else B_BETTER
    return TIE


# few distinct values, so that equal totals, and so the later steps, are common
RESULT_SETS = st.integers(1, 4).flatmap(
    lambda size: st.tuples(*[
        st.lists(st.builds(result_with, st.booleans(), st.integers(0, 3), st.integers(0, 3)),
                 min_size=size, max_size=size)
    ] * 2)
)


@given(RESULT_SETS)
def test_compare_matches_the_three_step_rule_and_is_antisymmetric(sets):
    a, b = sets
    verdict = compare(a, b)
    assert verdict == three_step_verdict(a, b)
    assert compare(b, a) == {A_BETTER: B_BETTER, B_BETTER: A_BETTER, TIE: TIE}[verdict]


def test_compare_rejects_mismatched_sets():
    with pytest.raises(ValueError):
        compare([], [])
    a = [result_with(True, 10, 1)]
    with pytest.raises(ValueError):
        compare(a, a + a)
    with pytest.raises(ValueError):
        compare(a, [result_with(True, 10, 1, digest="e" * 64)])


def test_verify_result_catches_tampering():
    f = small_formula(18, seed=3, n=12)
    result = chainsat(f, budget=DESK_BUDGET, seed=1)
    assert result.solved
    broken = SolverResult(
        solved=result.solved,
        satisfied_clauses=result.satisfied_clauses - 1,
        flips=result.flips,
        evaluations=result.evaluations,
        assignment=result.assignment,
        formula_sha256=result.formula_sha256,
    )
    assert not verify_result(f, broken)
