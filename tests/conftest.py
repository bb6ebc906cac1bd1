"""Shared test data: two small fixed 3-SAT instances.

SAMPLE_10 has 10 clauses over 60 variables (sparse, one clearly fittest
clause).  SAMPLE_20 has 20 clauses over 20 variables (dense, several hubs).
Both are used as hand-checkable oracles across the module tests.
"""

import signal
from contextlib import contextmanager

import pytest

from satbec.builder import BuilderConfig, BuildState
from satbec.cnf import Formula
from satbec.graph import MODE_S2G, ClauseGraph, EdgeColumns, NodeColumns

SAMPLE_10 = (
    (59, -55, 52),
    (-46, 31, 41),
    (-56, -44, 18),
    (-42, -10, 27),
    (-14, -54, -22),
    (-40, 52, -27),
    (42, -55, -29),
    (9, -53, 39),
    (48, 19, 27),
    (-34, 25, 11),
)

SAMPLE_20 = (
    (5, 3, 17),
    (-3, -20, -5),
    (6, -13, 11),
    (-16, 11, 9),
    (-17, -19, 2),
    (4, 14, 18),
    (-10, -2, -5),
    (-6, -11, -8),
    (-11, -1, -9),
    (6, -15, 13),
    (9, 18, -17),
    (-8, -14, -20),
    (-9, -19, -8),
    (-10, 5, -20),
    (-13, 9, 6),
    (-5, 4, 6),
    (-19, -3, -10),
    (14, 8, 15),
    (-12, 5, -4),
    (-4, 15, -2),
)


def formula_from_signed(signed_clauses, n):
    return Formula(n=n, clauses=tuple(map(tuple, signed_clauses)))


# the header of a hand-built graph, unless a test gives its own values
HAND_HEADER = dict(mode=MODE_S2G, temperature=1.0, theta=None, rho=None, seed=0,
                   first_clause_rule="random", n=12, k=3, formula_sha256="0" * 64)


def hand_graph(node_rows=(), edge_rows=(), **header):
    """A graph from rows: node rows in ``NodeColumns`` field order and in
    insertion order, edge rows in ``EdgeColumns`` field order, sorted here by
    pair.  ``header`` replaces fields of ``HAND_HEADER``."""
    nodes = tuple(zip(*node_rows)) or ((),) * len(NodeColumns._fields)
    edges = tuple(zip(*sorted(edge_rows))) or ((),) * len(EdgeColumns._fields)
    return ClauseGraph(**{**HAND_HEADER, **header}, nodes=NodeColumns(*nodes),
                       edges=EdgeColumns(*edges))


def components(graph):
    """Connected components of ``graph`` read off its edges: sorted clause
    lists, in the insertion order of their first node."""
    adjacency = {clause: [] for clause in graph.nodes.clause}
    for u, v in zip(graph.edges.u, graph.edges.v):
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = set()
    out = []
    for start in adjacency:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        component = []
        while stack:
            cur = stack.pop()
            component.append(cur)
            for nb in adjacency[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        out.append(sorted(component))
    return out


def degrees(graph):
    """Simple degree of each clause of ``graph``, counted over its edges."""
    out = dict.fromkeys(graph.nodes.clause, 0)
    for u, v in zip(graph.edges.u, graph.edges.v):
        out[u] += 1
        out[v] += 1
    return out


class StillRunning(Exception):
    """A run outlived its ``deadline``."""


@contextmanager
def deadline(seconds=5):
    """Raise ``StillRunning`` in the block once ``seconds`` have passed, so a
    run that would not end fails instead of hanging the suite."""

    def expire(signum, frame):
        raise StillRunning(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def state_with(formula, added=(), **cfg):
    """A build state of ``formula`` with ``added`` moved in, in that order."""
    state = BuildState(formula, BuilderConfig(**cfg))
    for clause in added:
        state.add_clause(clause)
    return state


@pytest.fixture
def sample10():
    return formula_from_signed(SAMPLE_10, 60)


@pytest.fixture
def sample20():
    return formula_from_signed(SAMPLE_20, 20)
