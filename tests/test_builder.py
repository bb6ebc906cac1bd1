"""Network construction: config validation, attachment machinery, both modes."""

import math
import pickle
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builder_oracle
from builder_oracle import frequency_by_literal
from conftest import components, degrees, formula_from_signed, state_with
from test_builder_oracle import formulas
from satbec import builder
from satbec.builder import (
    BuildState,
    BuilderConfig,
    build_graph,
    find_closest_clause,
    select_first_clause,
)
from satbec.cnf import Formula, generate_random, parse_dimacs, serialize_dimacs
from satbec.graph import (
    MODE_S2G,
    MODE_S2GPA,
    graph_from_json,
    graph_to_json,
    particle_spectrum,
)
from satbec.solver import clause_order


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mode": "ring"},
        {"temperature": 0.0},
        {"theta": 0.0},
        {"theta": 1.0},
        {"rho": 0},
        {"rho": 1.5},
        {"seed": -1},
        {"first_clause_rule": "latest"},
        # numbers graph JSON would not write and read back as they are
        {"rho": 1.0},
        {"seed": True},
        {"temperature": True},
        {"seed": np.int64(3)},
        {"rho": np.int64(2)},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        BuilderConfig(**kwargs)


def test_config_accepts_numpy_float_temperature():
    f = generate_random(3, 3, 10, 30)
    g = build_graph(f, BuilderConfig(temperature=np.float64(2.0), seed=1))
    assert g == build_graph(f, BuilderConfig(temperature=2.0, seed=1))
    assert graph_from_json(graph_to_json(g)) == g


def test_build_needs_two_clauses():
    with pytest.raises(ValueError):
        build_graph(generate_random(0, 3, 10, 1), BuilderConfig())


def test_build_state_needs_a_clause():
    with pytest.raises(ValueError, match="formula has no clauses"):
        BuildState(Formula(3, ()), BuilderConfig())


def test_two_clause_build_is_one_forced_edge():
    f = generate_random(1, 3, 10, 2)
    g = build_graph(f, BuilderConfig(mode=MODE_S2G, seed=0))
    assert g.m == 2
    (weight,) = g.edges.weight
    assert weight == 1.0
    assert g.edges.multiplicity == (1,)
    assert sorted(g.nodes.connectivity) == [1.0, 1.0]

    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, theta=0.33, seed=0))
    assert g.nodes.in_events == (1, 0)
    assert g.nodes.out_events == (0, 1)
    first, second = g.nodes.connectivity
    assert first == 1.0
    assert second == pytest.approx(0.33)


def test_select_first_clause_fittest_rule(sample10):
    # clause 0 has the unique maximal global fitness in this sample
    state = state_with(sample10, first_clause_rule="fittest", seed=0)
    picks = {select_first_clause(state) for _ in range(20)}
    assert picks == {0}


def test_select_first_clause_fittest_ties_uniform():
    # two disjoint-literal clauses with equal fitness
    f = formula_from_signed([(1, 2, 3), (4, 5, 6)], 6)
    state = state_with(f, first_clause_rule="fittest", seed=1)
    picks = [select_first_clause(state) for _ in range(400)]
    assert 120 < sum(picks) < 280  # both sides drawn, roughly even


@st.composite
def tied_formulas(draw):
    """Formulas over few variables whose clauses may repeat a literal, each
    clause twice, so the fittest clauses always tie."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.tuples(*[literal] * k), min_size=1, max_size=8))
    return formula_from_signed(draw(st.permutations(clauses * 2)), n)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tied_formulas(), st.integers(0, 2**31 - 1))
def test_select_first_clause_fittest_matches_oracle(formula, seed):
    # the same ties in index order, drawn from the same stream
    cfg = BuilderConfig(first_clause_rule="fittest", seed=seed)
    state = BuildState(formula, cfg)
    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(3):
        assert select_first_clause(state) == builder_oracle.select_first_clause(formula, cfg, rng)


def test_select_first_clause_random_covers_all():
    f = generate_random(2, 3, 10, 6)
    state = state_with(f, first_clause_rule="random", seed=2)
    picks = {select_first_clause(state) for _ in range(300)}
    assert picks == set(range(6))


def test_find_closest_clause_minimizes_distance():
    f = formula_from_signed([(1, 2, 3), (1, 2, 4), (7, 8, 9), (1, 5, 6)], 9)
    state = state_with(f, [0], seed=3)
    assert find_closest_clause(state, 0) == 1
    # among 2 and 3, clause 3 shares one literal with clause 0
    state.add_clause(1)
    assert find_closest_clause(state, 0) == 3


def test_find_closest_clause_ties_uniform():
    f = formula_from_signed([(1, 2, 3), (1, 2, 4), (1, 2, 5), (7, 8, 9)], 9)
    state = state_with(f, [0], seed=4)
    picks = [find_closest_clause(state, 0) for _ in range(400)]
    assert set(picks) == {1, 2}
    assert 120 < sum(1 for p in picks if p == 1) < 280


def test_find_closest_clause_exhausted():
    f = formula_from_signed([(1, 2, 3), (1, 2, 4)], 4)
    with pytest.raises(ValueError):
        find_closest_clause(state_with(f, [0, 1], seed=5), 0)
    with pytest.raises(ValueError):
        find_closest_clause(state_with(f, [1], seed=5), 0)  # target not added


def test_find_closest_clause_falls_back_to_every_unadded_clause():
    # clause 0 shares no literal with 2 or 3: both tie at distance k
    f = formula_from_signed([(1, 2, 3), (1, 2, 4), (7, 8, 9), (-1, 5, 6)], 9)
    state = state_with(f, [0, 1], seed=8)
    picks = {find_closest_clause(state, 0) for _ in range(200)}
    assert picks == {2, 3}


def test_add_clause_incumbent_rule():
    f = formula_from_signed([(1, 2, 3), (4, 5, 6), (4, 5, 6)], 6)
    state = BuildState(f, BuilderConfig())
    state.add_clause(0)
    assert state.fittest == 0
    state.add_clause(1)
    assert state.fittest == 0  # tie at 3: incumbent stays
    state.add_clause(2)
    assert state.fittest == 1  # clauses 1, 2 jump to 6: lowest index wins
    assert [state.fitness[clause] for clause in state.order] == [3, 6, 6]


def test_add_clause_new_leader_is_lowest_index_not_first_joined():
    # clause 2 joins before clause 0; the newcomer 3 lifts both to 7, past
    # the incumbent 1 at 5, and the lower index wins the tie
    f = formula_from_signed([(1, 2, 3), (7, 8, 7), (1, 2, 4), (1, 2, 5)], 8)
    state = BuildState(f, BuilderConfig())
    for clause in (1, 2, 0):
        state.add_clause(clause)
    assert state.fittest == 1
    state.add_clause(3)
    assert state.fitness == [7, 5, 7, 7]
    assert state.fittest == 0


def test_add_clause_keeps_order_and_frequencies():
    f = formula_from_signed([(1, 2, 3), (1, -2, 4), (1, 1, 5)], 5)
    state = BuildState(f, BuilderConfig())
    for clause in (2, 0, 1):
        state.add_clause(clause)
    assert state.order == [2, 0, 1]
    # literal 1 occurs four times, twice in clause 2
    assert frequency_by_literal(state)[1] == 4
    assert state.fitness == [4 + 1 + 1, 4 + 1 + 1, 4 + 4 + 1]
    with pytest.raises(ValueError):
        state.add_clause(0)


def test_repeated_literal_adds_product_to_fitness_and_min_to_distance():
    # literal 1 is held twice by clauses 0 and 1, once by clause 2
    f = formula_from_signed([(1, 1, 2), (1, 1, 3), (1, 4, 5)], 5)
    state = BuildState(f, BuilderConfig(seed=0))
    state.add_clause(0)
    assert state.fitness[0] == 2 + 2 + 1
    assert state.matches(0) == {1: 2, 2: 1}  # distances 1 and 2
    assert find_closest_clause(state, 0) == 1
    state.add_clause(1)
    assert state.fitness[0] == 5 + 2 * 2
    state.add_clause(2)
    assert state.fitness == [9 + 2 * 1, 9 + 2 * 1, 5 + 1 + 1]
    assert state.fittest == 0  # 0 and 1 tie throughout: the incumbent stays


def test_attachment_probabilities_proportional_to_conn_times_fitness():
    # the seed is clause 0 or 2 (fitness 5 each, clause 1 has 3), and the
    # other joins it by the forced edge; both then have fitness 5 and
    # connectivity 1 and 1 (s2g) or 1 and theta = 0.5 (s2gpa), in insertion
    # order, so clause 1 sees weights 5, 5 or 5, 2.5
    f = formula_from_signed([(1, 2, 3), (4, 5, 6), (1, 2, 7)], 7)
    for mode, expected in ((MODE_S2G, [1 / 2, 1 / 2]), (MODE_S2GPA, [2 / 3, 1 / 3])):
        for seed in range(6):
            seen = []
            cfg = BuilderConfig(mode=mode, theta=0.5, first_clause_rule="fittest", seed=seed)
            g = build_graph(f, cfg, iteration_hook=lambda state, pi: seen.append(pi))
            assert g.insertion_order[2] == 1
            assert seen[-1].tolist() == pytest.approx(expected, rel=1e-15)


def numpy_with_add(**methods):
    """numpy, but with the named methods of ``np.add`` replaced."""

    class Shim:
        add = SimpleNamespace(**{"reduce": np.add.reduce, "accumulate": np.add.accumulate,
                                 **methods})

        def __getattr__(self, name):
            return getattr(np, name)

    return Shim()


def test_attachment_probabilities_need_an_edge(monkeypatch):
    # the forced first edge makes every later total positive, so only a
    # numpy whose sums read 0 reaches the guard
    monkeypatch.setattr(builder, "np", numpy_with_add(reduce=lambda weights: 0.0))
    with pytest.raises(RuntimeError, match="before the first edge"):
        build_graph(generate_random(0, 3, 10, 5), BuilderConfig())


def test_a_draw_past_the_cumulative_end_links_the_last_node(monkeypatch):
    # rounding can leave the cumulative sum short of a draw, which then takes
    # the last existing node; with every cumulative sum read as 0, each
    # newcomer links to the node that joined just before it
    monkeypatch.setattr(builder, "np", numpy_with_add(accumulate=np.zeros_like))
    g = build_graph(generate_random(1, 3, 10, 30), BuilderConfig(mode=MODE_S2GPA, seed=2))
    rank = {clause: r for r, clause in enumerate(g.insertion_order)}
    pairs = sorted(sorted((rank[u], rank[v])) for u, v in zip(g.edges.u, g.edges.v))
    assert pairs == [[r, r + 1] for r in range(29)]


def hook_recorder():
    calls = []

    def hook(state, pi):
        calls.append(
            {
                "added": len(state.order),
                "pi_sum": float(np.sum(pi)),
                "conn": list(state.conn),
                "in_events": list(state.in_events),
                "out_events": list(state.out_events),
            }
        )

    return calls, hook


def test_s2g_probabilities_normalize_and_degrees_integral():
    f = generate_random(8, 3, 20, 60)
    calls, hook = hook_recorder()
    g = build_graph(f, BuilderConfig(mode=MODE_S2G, seed=9), iteration_hook=hook)
    assert len(calls) == f.m - 1  # forced step plus one per later joiner
    assert all(abs(c["pi_sum"] - 1.0) < 1e-9 for c in calls)
    degree = degrees(g)
    nodes = g.nodes
    for clause, connectivity, in_events, out_events in zip(
        nodes.clause, nodes.connectivity, nodes.in_events, nodes.out_events
    ):
        assert connectivity == in_events + out_events
        assert connectivity == float(degree[clause])
    for weight, multiplicity in zip(g.edges.weight, g.edges.multiplicity):
        assert 0.0 < weight <= 1.0
        assert multiplicity == 1


def test_s2g_pa_is_a_tree_at_rho_one():
    f = generate_random(10, 3, 25, 75)
    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, theta=0.33, rho=1, seed=11))
    assert len(g.edges.u) == f.m - 1
    assert len(components(g)) == 1
    nodes = g.nodes
    first = nodes.clause[0]
    for clause, out_events in zip(nodes.clause, nodes.out_events):
        expected = 0 if clause == first else 1
        assert out_events == expected
    # connectivity bookkeeping: k = theta * out + in, exactly
    for connectivity, in_events, out_events in zip(
        nodes.connectivity, nodes.in_events, nodes.out_events
    ):
        assert connectivity == pytest.approx(0.33 * out_events + in_events, abs=1e-12)


def test_s2g_pa_rho_three_draw_counts():
    f = generate_random(12, 3, 15, 45)
    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, theta=0.5, rho=3, seed=13))
    first, second = g.nodes.clause[:2]
    for clause, out_events in zip(g.nodes.clause, g.nodes.out_events):
        if clause == first:
            assert out_events == 0
        elif clause == second:
            assert out_events == 1  # forced edge only
        else:
            assert out_events == 3
    # multiplicities absorb repeated draws; total events still match
    link_events = sum(g.edges.multiplicity)
    assert link_events == 1 + 3 * (f.m - 2)


def test_s2g_pa_simple_out_degree_within_rho():
    f = generate_random(14, 3, 15, 45)
    rho = 2
    calls, hook = hook_recorder()
    g = build_graph(
        f, BuilderConfig(mode=MODE_S2GPA, theta=0.4, rho=rho, seed=15), iteration_hook=hook
    )
    assert all(abs(c["pi_sum"] - 1.0) < 1e-9 for c in calls)
    insertion = {clause: rank for rank, clause in enumerate(g.insertion_order)}
    out_neighbors = {clause: set() for clause in insertion}
    for u, v in zip(g.edges.u, g.edges.v):
        junior = u if insertion[u] > insertion[v] else v
        senior = v if junior == u else u
        out_neighbors[junior].add(senior)
    for clause in g.nodes.clause[1:]:
        assert 1 <= len(out_neighbors[clause]) <= max(rho, 1)


def test_builds_are_seed_deterministic():
    f = generate_random(16, 3, 20, 60)
    for mode in (MODE_S2G, MODE_S2GPA):
        a = build_graph(f, BuilderConfig(mode=mode, seed=21))
        b = build_graph(f, BuilderConfig(mode=mode, seed=21))
        c = build_graph(f, BuilderConfig(mode=mode, seed=22))
        assert graph_to_json(a) == graph_to_json(b)
        assert graph_to_json(a) != graph_to_json(c)


def test_graph_records_build_parameters(sample20):
    g = build_graph(sample20, BuilderConfig(mode=MODE_S2GPA, theta=0.33, rho=2, seed=5))
    assert g.mode == MODE_S2GPA
    assert (g.theta, g.rho, g.seed) == (0.33, 2, 5)
    assert g.n == 20 and g.k == 3 and g.m == 20
    s2g = build_graph(sample20, BuilderConfig(mode=MODE_S2G, seed=5))
    assert s2g.theta is None and s2g.rho is None


@pytest.mark.parametrize("mode", [MODE_S2G, MODE_S2GPA])
def test_temperature_only_rescales_energies(mode):
    # attachment uses raw fitness and a level is one raw fitness, so the
    # temperature changes nothing but the reported energies, neither at
    # T = 1e-12, where all 20 levels lie within 1.1e-12 of each other, nor
    # at T = 1e308, where energies overflow to inf
    f = generate_random(17, 3, 20, 85)
    cold = build_graph(f, BuilderConfig(mode=mode, temperature=1.0, seed=23))
    levels = [[s.clause for s in level.states] for level in particle_spectrum(cold).levels]
    assert len(levels) == 20
    for temperature in (1e-12, 3.7, 1e308):
        hot = build_graph(f, BuilderConfig(mode=mode, temperature=temperature, seed=23))
        assert hot.insertion_order == cold.insertion_order
        assert hot.edges == cold.edges
        assert clause_order(f, hot, 5) == clause_order(f, cold, 5)
        assert [[s.clause for s in level.states]
                for level in particle_spectrum(hot).levels] == levels
        for a, b in zip(hot.nodes.energy, cold.nodes.energy):
            assert a == pytest.approx(temperature * b)


def test_energy_too_large_for_a_float_is_inf_without_a_warning():
    # sweeps and benches never write a graph, so such a build must still run
    f = formula_from_signed([(1, 2, 3)] * 10 + [(4, 5, 6)], 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, temperature=1e308, seed=1))
    assert sorted(g.nodes.energy) == [0.0] * 10 + [math.inf]


@pytest.mark.parametrize("mode", [MODE_S2G, MODE_S2GPA])
def test_hook_probabilities_are_not_reused(mode):
    # the hook may keep every pi it is handed; a later step must not write
    # into one it already returned
    f = generate_random(18, 3, 20, 80)
    kept, copies = [], []

    def hook(state, pi):
        kept.append(pi)
        copies.append(np.array(pi, copy=True))

    build_graph(f, BuilderConfig(mode=mode, rho=2, seed=24), iteration_hook=hook)
    assert len(kept) == f.m - 1
    for pi, copy in zip(kept, copies):
        assert np.array_equal(pi, copy)


DUPVAR = Path(__file__).resolve().parent / "golden" / "dupvar.cnf"


@pytest.mark.parametrize("text", [serialize_dimacs(generate_random(27, 3, 20, 90)),
                                  DUPVAR.read_text(encoding="utf-8")], ids=["random", "dupvar"])
def test_builds_sharing_a_formula_equal_builds_on_fresh_formulas(text):
    # every build of one formula object reads its cached tables; no order
    # of builds may change what a later build gives
    configs = [
        BuilderConfig(mode=mode, rho=rho, first_clause_rule=rule, seed=seed)
        for mode in (MODE_S2G, MODE_S2GPA)
        for rho in (1, 3)
        for rule in ("random", "fittest")
        for seed in (0, 7)
    ]
    shared = parse_dimacs(text)
    forward = [graph_to_json(build_graph(shared, cfg)) for cfg in configs]
    backward = [graph_to_json(build_graph(shared, cfg)) for cfg in reversed(configs)]
    fresh = [graph_to_json(build_graph(parse_dimacs(text), cfg)) for cfg in configs]
    assert forward == backward[::-1] == fresh


def test_literal_tables_are_read_only_and_not_pickled():
    f = parse_dimacs(DUPVAR.read_text(encoding="utf-8"))
    cfg = BuilderConfig(mode=MODE_S2GPA, rho=3, seed=4)
    built = graph_to_json(build_graph(f, cfg))
    rows, holders = f.literal_tables
    assert type(rows) is tuple and {type(row) for row in rows} == {tuple}
    assert type(holders) is tuple and {type(held) for held in holders} == {tuple}
    back = pickle.loads(pickle.dumps(f))
    assert back == f
    assert set(vars(back)) == {"n", "clauses"}
    assert graph_to_json(build_graph(back, cfg)) == built


@settings(max_examples=150, deadline=None)
@given(
    formulas(),
    st.sampled_from((MODE_S2G, MODE_S2GPA)),
    st.sampled_from((0.33, 0.5)),
    st.integers(1, 3),
    st.integers(0, 2**31 - 1),
)
def test_built_graph_invariants(formula, mode, theta, rho, seed):
    g = build_graph(formula, BuilderConfig(mode=mode, theta=theta, rho=rho, seed=seed))
    assert sorted(g.insertion_order) == list(range(formula.m))
    assert g.total_particles == 2 * g.link_events
    nodes = g.nodes
    for connectivity, in_events, out_events in zip(
        nodes.connectivity, nodes.in_events, nodes.out_events
    ):
        if mode == MODE_S2G:
            assert connectivity == in_events + out_events
        else:
            expected = theta * out_events + in_events
            assert connectivity == pytest.approx(expected, abs=1e-12)
    if mode == MODE_S2GPA:
        assert list(nodes.out_events[:2]) == [0, 1]
        assert all(out_events == rho for out_events in nodes.out_events[2:])


# both modes and both first-clause rules, and in s2gpa rho 1 and 3
RENAMING_CONFIGS = [(MODE_S2G, rule, 1) for rule in ("random", "fittest")] + [
    (MODE_S2GPA, rule, rho) for rule in ("random", "fittest") for rho in (1, 3)
]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(formulas(), st.integers(0, 2**31 - 1), st.data())
def test_renaming_variables_leaves_the_graph_unchanged(formula, seed, data):
    # ties break by clause index and the draws read only counts, so no
    # literal name reaches the stream: permuting the variables and flipping
    # each one's sign everywhere changes nothing but the formula digest
    names = data.draw(st.permutations(range(1, formula.n + 1)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=formula.n, max_size=formula.n))

    def rename(literal):
        v = abs(literal) - 1
        return names[v] * signs[v] * (1 if literal > 0 else -1)

    renamed = formula_from_signed([map(rename, clause) for clause in formula.clauses], formula.n)
    for mode, rule, rho in RENAMING_CONFIGS:
        cfg = BuilderConfig(mode=mode, first_clause_rule=rule, rho=rho, seed=seed)
        g = build_graph(formula, cfg)
        h = build_graph(renamed, cfg)
        assert graph_to_json(replace(h, formula_sha256=g.formula_sha256)) == graph_to_json(g)
