"""Shared test data: two small fixed 3-SAT instances.

SAMPLE_10 has 10 clauses over 60 variables (sparse, one clearly fittest
clause).  SAMPLE_20 has 20 clauses over 20 variables (dense, several hubs).
Both are used as hand-checkable oracles across the module tests.
"""

import pytest

from satbec.builder import BuilderConfig, BuildState
from satbec.cnf import Formula

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


def components(graph):
    """Connected components of ``graph`` read off its edges: sorted clause
    lists, in the insertion order of their first node."""
    adjacency = {node.clause: [] for node in graph.nodes}
    for u, v in graph.edges:
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
    out = {node.clause: 0 for node in graph.nodes}
    for u, v in graph.edges:
        out[u] += 1
        out[v] += 1
    return out


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
