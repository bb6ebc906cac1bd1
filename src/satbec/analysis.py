"""Winner detection and condensation-phase classification of clause networks."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import ClauseGraph

FULL_BEC_THRESHOLD = 0.90
PARTIAL_BEC_THRESHOLD = 0.75


class Phase(enum.Enum):
    FULL_BEC = "FullBEC"
    PARTIAL_BEC = "PartialBEC"
    FIT_GET_RICH = "FitGetRich"


@dataclass(frozen=True)
class PhaseLabel:
    label: Phase
    fraction_winner: float


def winner(graph: ClauseGraph) -> int:
    """Clause index of the node with maximal connectivity; ties go to the
    earliest-inserted node."""
    connectivity = graph.nodes.connectivity
    if not connectivity:
        raise ValueError("graph has no nodes")
    return graph.nodes.clause[connectivity.index(max(connectivity))]


def fraction_winner(graph: ClauseGraph) -> float:
    """Share of simple edges incident to the winner node."""
    edges = graph.edges
    if not edges.u:
        raise ValueError("graph has no edges")
    w = winner(graph)
    # an edge joins two distinct nodes, so no edge is counted twice
    return (edges.u.count(w) + edges.v.count(w)) / len(edges.u)


def label_for_fraction(fraction: float) -> Phase:
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction winner must be in [0, 1], got {fraction}")
    if fraction >= FULL_BEC_THRESHOLD:
        return Phase.FULL_BEC
    if fraction >= PARTIAL_BEC_THRESHOLD:
        return Phase.PARTIAL_BEC
    return Phase.FIT_GET_RICH


def classify(graph: ClauseGraph) -> PhaseLabel:
    fraction = fraction_winner(graph)
    return PhaseLabel(label=label_for_fraction(fraction), fraction_winner=fraction)


def nonwinner_stats(graph: ClauseGraph) -> tuple[float, float]:
    """Population mean and standard deviation of connectivity over all nodes
    except the winner.

    A constant population short-circuits to deviation exactly 0.0, which
    floating-point summation would not always deliver.
    """
    nodes = graph.nodes
    if len(nodes.clause) < 2:
        raise ValueError("need at least 2 nodes for non-winner statistics")
    w = nodes.clause.index(winner(graph))
    values = np.array(nodes.connectivity[:w] + nodes.connectivity[w + 1:], dtype=float)
    if np.all(values == values[0]):
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std())


def classification(graph: ClauseGraph) -> dict:
    """The phase summary of one graph, as ``classify`` writes it and a sweep
    sample records it."""
    label = classify(graph)
    mean, std = nonwinner_stats(graph)
    return {
        "fraction_winner": label.fraction_winner,
        "label": label.label.value,
        "nonwinner_mean": mean,
        "nonwinner_std": std,
    }
