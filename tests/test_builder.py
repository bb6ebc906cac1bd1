"""Network construction: config validation, attachment machinery, both modes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import components, degrees, formula_from_signed, state_with
from test_builder_oracle import formulas
from satbec.builder import (
    BuildState,
    BuilderConfig,
    attachment_probabilities,
    build_graph,
    find_closest_clause,
    preferential_draw,
    select_first_clause,
)
from satbec.cnf import generate_random
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


def test_two_clause_build_is_one_forced_edge():
    f = generate_random(1, 3, 10, 2)
    g = build_graph(f, BuilderConfig(mode=MODE_S2G, seed=0))
    assert g.m == 2
    (edge,) = g.edges.values()
    assert edge.weight == 1.0
    assert edge.multiplicity == 1
    assert sorted(n.connectivity for n in g.nodes) == [1.0, 1.0]

    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, theta=0.33, seed=0))
    first, second = g.nodes
    assert (first.in_events, first.out_events) == (1, 0)
    assert (second.in_events, second.out_events) == (0, 1)
    assert first.connectivity == 1.0
    assert second.connectivity == pytest.approx(0.33)


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
    assert state.fitness[state.order_array()].tolist() == [3, 6, 6]


def test_add_clause_new_leader_is_lowest_index_not_first_joined():
    # clause 2 joins before clause 0; the newcomer 3 lifts both to 7, past
    # the incumbent 1 at 5, and the lower index wins the tie
    f = formula_from_signed([(1, 2, 3), (7, 8, 7), (1, 2, 4), (1, 2, 5)], 8)
    state = BuildState(f, BuilderConfig())
    for clause in (1, 2, 0):
        state.add_clause(clause)
    assert state.fittest == 1
    state.add_clause(3)
    assert state.fitness.tolist() == [7, 5, 7, 7]
    assert state.fittest == 0


def test_add_clause_keeps_order_and_frequencies():
    f = formula_from_signed([(1, 2, 3), (1, -2, 4), (1, 1, 5)], 5)
    state = BuildState(f, BuilderConfig())
    for clause in (2, 0, 1):
        state.add_clause(clause)
    assert state.order_array().tolist() == [2, 0, 1]
    assert state.freq[0] == 4  # literal 1 occurs four times, twice in clause 2
    assert state.fitness.tolist() == [4 + 1 + 1, 4 + 1 + 1, 4 + 4 + 1]
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
    assert state.fitness.tolist() == [9 + 2 * 1, 9 + 2 * 1, 5 + 1 + 1]
    assert state.fittest == 0  # 0 and 1 tie throughout: the incumbent stays


def test_attachment_probabilities_proportional_to_conn_times_fitness():
    # fitness 5, 3, 5; four links from clause 0 to clause 1 at theta 0.5 give
    # connectivity 2, 4, 0, so the weights are 10, 12, 0
    f = formula_from_signed([(1, 2, 3), (4, 5, 6), (1, 2, 7)], 7)
    state = state_with(f, [0, 1, 2], mode=MODE_S2GPA, theta=0.5)
    for _ in range(4):
        state.link(0, 1, 1.0)
    assert state.fitness.tolist() == [5, 3, 5]
    assert state.conn.tolist() == [2.0, 4.0, 0.0]
    pi = attachment_probabilities(state)
    assert pi == pytest.approx([10 / 22, 12 / 22, 0.0])
    assert pi.sum() == pytest.approx(1.0)


def test_attachment_probabilities_need_an_edge():
    f = formula_from_signed([(1, 2, 3), (4, 5, 6)], 6)
    state = BuildState(f, BuilderConfig())
    state.add_clause(0)
    with pytest.raises(RuntimeError):
        attachment_probabilities(state)


def test_preferential_draw_frequencies():
    cumulative = np.array([0.25, 1.0])
    rng = np.random.Generator(np.random.PCG64(6))
    draws = [preferential_draw(cumulative, rng) for _ in range(10_000)]
    assert set(draws) == {0, 1}
    second = sum(draws)
    assert 7200 < second < 7800  # binomial(1e4, 0.75), +-3 sigma is ~130
    # same seed, same stream
    rng = np.random.Generator(np.random.PCG64(6))
    assert [preferential_draw(cumulative, rng) for _ in range(10_000)] == draws


def test_preferential_draw_rounds_into_last_bin():
    # cumulative that falls short of 1.0 still lands in range
    cumulative = np.array([0.3, 0.99])
    rng = np.random.Generator(np.random.PCG64(7))
    assert all(preferential_draw(cumulative, rng) in (0, 1) for _ in range(2000))


def hook_recorder():
    calls = []

    def hook(state, pi):
        calls.append(
            {
                "added": state.size,
                "pi_sum": float(np.sum(pi)),
                "conn": state.conn.copy(),
                "in_events": state.in_events.copy(),
                "out_events": state.out_events.copy(),
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
    for node in g.nodes:
        assert node.connectivity == node.in_events + node.out_events
        assert node.connectivity == float(degree[node.clause])
    for edge in g.edges.values():
        assert 0.0 < edge.weight <= 1.0
        assert edge.multiplicity == 1


def test_s2g_pa_is_a_tree_at_rho_one():
    f = generate_random(10, 3, 25, 75)
    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, theta=0.33, rho=1, seed=11))
    assert len(g.edges) == f.m - 1
    assert len(components(g)) == 1
    first = g.nodes[0].clause
    for node in g.nodes:
        expected = 0 if node.clause == first else 1
        assert node.out_events == expected
    # connectivity bookkeeping: k = theta * out + in, exactly
    for node in g.nodes:
        assert node.connectivity == pytest.approx(0.33 * node.out_events + node.in_events, abs=1e-12)


def test_s2g_pa_rho_three_draw_counts():
    f = generate_random(12, 3, 15, 45)
    g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, theta=0.5, rho=3, seed=13))
    first = g.nodes[0].clause
    second = g.nodes[1].clause
    for node in g.nodes:
        if node.clause == first:
            assert node.out_events == 0
        elif node.clause == second:
            assert node.out_events == 1  # forced edge only
        else:
            assert node.out_events == 3
    # multiplicities absorb repeated draws; total events still match
    link_events = sum(e.multiplicity for e in g.edges.values())
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
    for e in g.edges.values():
        junior = e.u if insertion[e.u] > insertion[e.v] else e.v
        senior = e.v if junior == e.u else e.u
        out_neighbors[junior].add(senior)
    for node in g.nodes[1:]:
        assert 1 <= len(out_neighbors[node.clause]) <= max(rho, 1)


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
        for a, b in zip(hot.nodes, cold.nodes):
            assert a.energy == pytest.approx(temperature * b.energy)


def test_energy_too_large_for_a_float_is_inf_without_a_warning():
    # sweeps and benches never write a graph, so such a build must still run
    f = formula_from_signed([(1, 2, 3)] * 10 + [(4, 5, 6)], 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, temperature=1e308, seed=1))
    assert sorted(node.energy for node in g.nodes) == [0.0] * 10 + [math.inf]


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
    for node in g.nodes:
        if mode == MODE_S2G:
            assert node.connectivity == node.in_events + node.out_events
        else:
            expected = theta * node.out_events + node.in_events
            assert node.connectivity == pytest.approx(expected, abs=1e-12)
    if mode == MODE_S2GPA:
        assert [node.out_events for node in g.nodes[:2]] == [0, 1]
        assert all(node.out_events == rho for node in g.nodes[2:])
