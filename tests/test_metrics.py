"""Literal frequencies, fitness and energies as the builder computes them,
clause distance, the ground level."""

import collections
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from builder_oracle import frequency_by_literal
from conftest import SAMPLE_10, formula_from_signed, state_with
from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import generate_random
from satbec.graph import MODES, particle_spectrum
from satbec.metrics import clause_distance


def built_columns(formula, **cfg):
    """The node columns by name of a network built from ``formula``, each a
    list indexed by clause.

    Once every clause has joined, the local literal frequencies are those of
    the whole formula, so raw fitness is whole-formula fitness."""
    nodes = build_graph(formula, BuilderConfig(seed=3, **cfg)).nodes
    by_clause = sorted(range(formula.m), key=nodes.clause.__getitem__)
    return {name: [column[i] for i in by_clause] for name, column in nodes._asdict().items()}


def test_literal_frequency_counts_signed_occurrences(sample10):
    state = state_with(sample10, range(10))
    freq = frequency_by_literal(state)
    count = lambda signed: freq.get(signed, 0)
    assert sum(state.freq) == 30
    assert count(52) == 2  # appears in clauses 0 and 5
    assert count(-55) == 2
    assert count(55) == 0  # polarity matters
    assert count(27) == 2


def test_clause_fitness_matches_counter_oracle(sample10):
    # independent oracle: plain Counter over signed literals
    counts = collections.Counter(x for c in SAMPLE_10 for x in c)
    expected = [sum(counts[x] for x in c) for c in SAMPLE_10]
    assert expected == [5, 3, 3, 4, 3, 4, 4, 3, 4, 3]
    for mode in MODES:
        assert built_columns(sample10, mode=mode)["raw_fitness"] == expected


def test_fitness_respects_table_scope(sample10):
    # local view: only the clauses added so far feed the frequencies
    state = state_with(sample10, range(3))
    assert state.fitness[0] == 3


def test_clause_distance_hand_cases(sample10):
    c = sample10.clauses
    assert clause_distance(c[0], c[0]) == 0
    assert clause_distance(c[0], c[5]) == 2  # share only literal 52
    assert clause_distance(c[0], c[1]) == 3
    assert clause_distance(c[3], c[8]) == 2  # share only literal 27


def test_clause_distance_multiset_semantics():
    a = (1, 1, 2)
    assert clause_distance(a, (1, 2, 2)) == 1
    assert clause_distance(a, (-1, -1, -2)) == 3
    # a variable repeated with opposite signs gives distinct literals
    assert clause_distance((1, -1, 2), (-1, 1, 3)) == 1
    with pytest.raises(ValueError):
        clause_distance(a, (1, 2))


def multiset_distance(a, b):
    """The plain multiset formula, kept as the oracle for clause_distance."""
    shared = collections.Counter(a) & collections.Counter(b)
    return len(a) - sum(shared.values())


@st.composite
def clause_pairs(draw):
    # three variables and k up to 5 make repeated literals, opposite-sign
    # repeats and shared literals all common
    k = draw(st.integers(1, 5))
    literals = st.lists(st.sampled_from((-3, -2, -1, 1, 2, 3)), min_size=k, max_size=k)
    return tuple(draw(literals)), tuple(draw(literals))


@given(clause_pairs())
def test_clause_distance_matches_multiset_oracle(pair):
    a, b = pair
    assert clause_distance(a, b) == multiset_distance(a, b)
    assert clause_distance(b, a) == multiset_distance(b, a)
    assert clause_distance(a, a) == 0


def test_clause_distance_axioms_on_random_triples():
    for k in (3, 4, 5):
        f = generate_random(k, k, 12, 60)
        c = f.clauses
        for i in range(0, 60, 3):
            a, b, d = c[i], c[i + 1], c[i + 2]
            assert clause_distance(a, b) >= 0
            assert clause_distance(a, a) == 0
            assert clause_distance(a, b) == clause_distance(b, a)
            assert clause_distance(a, d) <= clause_distance(a, b) + clause_distance(b, d)


def test_energy_values():
    # fitness 3, 6, 6: normalized 0.5, 1, 1
    f = formula_from_signed([(1, 2, 3), (4, 5, 6), (4, 5, 6)], 6)
    for temperature in (1.0, 2.0):
        energy = built_columns(f, temperature=temperature)["energy"]
        assert energy[0] == pytest.approx(temperature * math.log(2))
        assert energy[1] == 0.0
        assert math.copysign(1.0, energy[1]) == 1.0  # never -0.0


def test_energy_rejects_bad_temperature():
    # a NaN or infinite temperature, or an int too large for a float, would
    # write energies or a header that graph JSON loading rejects
    for bad in (0.0, -1.0, math.nan, math.inf, 10**400):
        with pytest.raises(ValueError):
            BuilderConfig(temperature=bad)


def test_fitness_record_from_raw(sample20):
    # every node's fitness and energy follow from its raw fitness and the maximum
    columns = built_columns(sample20, temperature=2.0)
    top = max(columns["raw_fitness"])
    for raw, normalized, energy in zip(
        columns["raw_fitness"], columns["normalized_fitness"], columns["energy"]
    ):
        assert normalized == raw / top
        assert energy == pytest.approx(2.0 * math.log(top / raw), abs=1e-12)


def test_sample20_level_structure(sample20):
    # densest instance: three clauses tie at the maximal fitness
    fits = built_columns(sample20)["raw_fitness"]
    assert max(fits) == 9
    assert [i for i, v in enumerate(fits) if v == 9] == [13, 14, 15]
    ground = particle_spectrum(build_graph(sample20, BuilderConfig(seed=3))).levels[0]
    assert [state.clause for state in ground.states] == [13, 14, 15]
