"""Winner detection, fraction of links, phase labels, non-winner statistics."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import hand_graph
from satbec.analysis import (
    FULL_BEC_THRESHOLD,
    PARTIAL_BEC_THRESHOLD,
    Phase,
    classification,
    classify,
    fraction_winner,
    label_for_fraction,
    nonwinner_stats,
    winner,
)
from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import generate_random
from satbec.graph import MODE_S2G, MODE_S2GPA


def node_rows(connectivities, order):
    """Nodes of raw fitness 1 with the given connectivities, in ``order``."""
    return [(clause, 1, 1.0, 0.0, c, 0, 0) for clause, c in zip(order, connectivities)]


def graph_with(connectivities, edges, order=None):
    order = list(order) if order is not None else list(range(len(connectivities)))
    pairs = [(u, v) if u < v else (v, u) for u, v in edges]
    return hand_graph(node_rows(connectivities, order), [(*pair, 0.5, 1) for pair in pairs], n=30)


def test_winner_takes_max_connectivity():
    g = graph_with([1.0, 5.0, 3.0], [(0, 1), (1, 2)])
    assert winner(g) == 1


def test_winner_ties_break_by_insertion():
    g = graph_with([2.0, 2.0, 1.0], [(0, 1), (1, 2)], order=[2, 0, 1])
    assert winner(g) == 2  # first inserted among the tied pair {2, 0}


def test_winner_matches_linear_scan_oracle():
    for seed in range(10):
        g = build_graph(generate_random(seed, 3, 20, 60), BuilderConfig(mode=MODE_S2GPA, seed=seed))
        best = max(g.nodes.connectivity)
        candidates = [clause for clause, c in zip(g.nodes.clause, g.nodes.connectivity)
                      if c == best]
        assert winner(g) == candidates[0]


@given(st.lists(st.sampled_from([0.0, 0.33, 1.0, 1.33]), min_size=1, max_size=12), st.randoms())
def test_winner_is_the_first_maximal_node_in_insertion_order(connectivities, random):
    # few values, so ties are common; the clause labels follow a random order
    order = list(range(len(connectivities)))
    random.shuffle(order)
    g = graph_with(connectivities, [], order=order)
    assert winner(g) == order[connectivities.index(max(connectivities))]


def test_winner_rejects_empty():
    with pytest.raises(ValueError):
        winner(graph_with([], []))


def test_fraction_winner_star_and_triangle():
    star = graph_with([3.0, 1.0, 1.0, 1.0], [(0, 1), (0, 2), (0, 3)])
    assert fraction_winner(star) == 1.0
    triangle = graph_with([2.5, 2.0, 2.0], [(0, 1), (1, 2), (0, 2)])
    assert fraction_winner(triangle) == pytest.approx(2 / 3)


def test_fraction_winner_counts_simple_edges():
    # multiplicity does not change the simple-edge count
    g = hand_graph(node_rows([4.0, 1.0, 1.0], range(3)), [(0, 1, 0.5, 5), (0, 2, 0.5, 1)], n=30)
    assert fraction_winner(g) == 1.0


def test_fraction_winner_needs_edges():
    with pytest.raises(ValueError):
        fraction_winner(graph_with([1.0], []))


def test_label_thresholds():
    assert FULL_BEC_THRESHOLD == 0.90
    assert PARTIAL_BEC_THRESHOLD == 0.75
    assert label_for_fraction(1.0) is Phase.FULL_BEC
    assert label_for_fraction(0.90) is Phase.FULL_BEC
    assert label_for_fraction(0.89) is Phase.PARTIAL_BEC
    assert label_for_fraction(0.75) is Phase.PARTIAL_BEC
    assert label_for_fraction(0.7499) is Phase.FIT_GET_RICH
    assert label_for_fraction(0.0) is Phase.FIT_GET_RICH
    with pytest.raises(ValueError):
        label_for_fraction(1.2)
    with pytest.raises(ValueError):
        label_for_fraction(-0.1)


def test_classify_reports_fraction_and_label():
    star = graph_with([3.0, 1.0, 1.0, 1.0], [(0, 1), (0, 2), (0, 3)])
    label = classify(star)
    assert label.label is Phase.FULL_BEC
    assert label.fraction_winner == 1.0


def test_nonwinner_stats_hand_cases():
    g = graph_with([5.0, 2.0, 2.0], [(0, 1), (0, 2)])
    mean, std = nonwinner_stats(g)
    assert (mean, std) == (2.0, 0.0)  # constant population: exactly zero
    g = graph_with([5.0, 1.0, 3.0], [(0, 1), (0, 2)])
    mean, std = nonwinner_stats(g)
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)  # population deviation


def test_nonwinner_stats_needs_two_nodes():
    with pytest.raises(ValueError):
        nonwinner_stats(graph_with([1.0], []))


def test_classification_is_the_classify_payload():
    g = graph_with([5.0, 1.0, 3.0], [(0, 1), (0, 2)])
    assert classification(g) == {
        "fraction_winner": 1.0, "label": "FullBEC", "nonwinner_mean": 2.0, "nonwinner_std": 1.0,
    }
    with pytest.raises(ValueError):
        classification(graph_with([1.0, 1.0], []))


def test_dense_sample_is_fit_get_rich(sample20):
    # this instance grows hubs instead of one dominant node, on every seed
    labels = set()
    for seed in range(30):
        g = build_graph(sample20, BuilderConfig(mode=MODE_S2G, seed=seed))
        labels.add(classify(g).label)
    assert labels == {Phase.FIT_GET_RICH}


def test_classify_built_graph_consistency():
    for seed in range(5):
        g = build_graph(generate_random(seed, 3, 30, 60), BuilderConfig(mode=MODE_S2GPA, seed=seed))
        label = classify(g)
        assert label.fraction_winner == pytest.approx(fraction_winner(g))
        assert label.label is label_for_fraction(label.fraction_winner)
