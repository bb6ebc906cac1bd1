"""Clause-network construction.

``build_graph`` grows a network over the clauses of one formula, in either
mode (``BuilderConfig.mode``):

* seed: one clause enters first (uniformly at random, or the globally
  fittest one when configured for a deliberate head start);
* forced edge: the unadded clause closest to the seed joins and links to it
  with probability 1;
* growth: each remaining step moves the unadded clause closest to the
  current locally-fittest clause into the network, then links it to existing
  nodes.  Plain mode runs one independent Bernoulli trial per existing node
  at that node's attachment probability, so a newcomer may gain several edges
  or stay isolated.  Preferential mode performs exactly ``rho`` draws from
  the cumulative attachment distribution; each draw adds 1 to the chosen
  node's connectivity and ``theta`` to the newcomer's.

Attachment probability of an existing node is proportional to
connectivity x local fitness, normalized over the existing nodes; the
probabilities used while linking a newcomer reflect the state before it
joined.

One pass over the literal codes gives each literal two lists: every clause
holding it, with how many times it does, and the added clauses holding it,
one entry per slot, appended as each joins.  A newcomer changes only the
added clauses that share a literal with it, so ``add_clause`` walks the
added list of each of its slots, adding 1 to each entry's fitness and
rewriting its attachment weight: a literal held a and b times adds a x b.
The search sums min(a, b) over the literals each unadded clause shares with
the target, read from the target's lists; the distance is k minus that sum,
exact also when clauses repeat literals.  Once no unadded clause shares a
literal with the target, every unadded clause ties at distance k, the target
is remembered, and the search draws from a sorted list of them.  That is the
case in most searches, 93 % at n=100, alpha=8 (s2gpa) and 87 % on the bench
grid at n=50 (s2g), over 10 formulas each: the joiner is then a uniform draw
among the unadded clauses.

The rest of a step is a fixed handful of numpy calls: the sum and division
that give ``pi`` and, in preferential mode, its cumulative sum (in plain
mode, one uniform draw per existing node).  At n=100, m=800 (s2gpa, medians
over 20 builds, 2-core shared Xeon, Python 3.11) the set-up before the first
link costs about 1.4 ms, 0.4 ms of it for the lists, and a step about 23 us:
8 us for the fitness update, 3 us for the search (11 us in the 6 % of
searches that find their clause in the lists), 4 us for ``pi`` and 8 us for
the draw and its link.  The numpy calls are O(m), so a build is still
O(m^2).  Normalized fitness and energies are computed once, from the final
fitness, when the graph is frozen.  The temperature only scales those
energies; it changes no edge, no insertion order and no energy ordering.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict

import numpy as np

from .cnf import Formula, clause_code_array, formula_sha256
from .graph import (
    FIRST_RANDOM,
    MODE_S2G,
    BuilderConfig,
    ClauseGraph,
    GraphEdge,
    GraphNode,
    fitness_columns,
)


class BuildState:
    """Mutable construction state; arrays are indexed by clause index.

    The step writes Python scalars into ``array.array`` and ``bytearray``
    storage.  ``freq``, ``fitness``, ``conn``, ``in_events`` and
    ``out_events`` are read-only numpy views of that storage, so an
    ``iteration_hook`` reads the current values without a copy.

    ``add_clause`` keeps the local frequencies, fitness and fittest index
    current; ``link`` keeps connectivity and link events current.  Both keep
    each added clause's attachment weight, connectivity x fitness, at its
    insertion position, so ``attachment_probabilities`` reads one contiguous
    vector.
    """

    def __init__(self, formula: Formula, cfg: BuilderConfig):
        if formula.m < 1:
            raise ValueError("formula has no clauses")
        self.formula = formula
        self.cfg = cfg
        self.rng = np.random.Generator(np.random.PCG64(cfg.seed))
        self.codes = clause_code_array(formula)
        m = formula.m
        self._code_rows = self.codes.tolist()
        # per literal code: every clause holding it, with how many times it
        # does, in index order; and the added clauses holding it, one entry
        # per slot, in joining order
        holders = defaultdict(list)
        for clause, row in enumerate(self._code_rows):
            for code in row:
                held = holders[code]
                if held and held[-1][0] == clause:  # the clause repeats it
                    held[-1] = (clause, held[-1][1] + 1)
                else:
                    held.append((clause, 1))
        self._holders: dict[int, list[tuple[int, int]]] = holders
        self._joined: dict[int, list[int]] = {code: [] for code in holders}
        self._order = array("q", [0]) * m
        self._position = [0] * m
        self._added = bytearray(m)
        self._unadded = list(range(m))
        # an added clause that shares a literal with no unadded clause
        self._exhausted = -1
        self._freq = array("q", [0]) * (2 * formula.n)
        self._fitness = array("q", [0]) * m
        self._conn = array("d", [0.0]) * m
        self._in = array("q", [0]) * m
        self._out = array("q", [0]) * m
        self._weight = array("d", [0.0]) * m
        self._newcomer_gain = 1.0 if cfg.mode == MODE_S2G else cfg.theta
        self._order_view = _view(self._order, np.int64)
        self._weight_view = _view(self._weight, float)
        self.freq = _view(self._freq, np.int64)
        self.fitness = _view(self._fitness, np.int64)
        self.conn = _view(self._conn, float)
        self.in_events = _view(self._in, np.int64)
        self.out_events = _view(self._out, np.int64)
        self.size = 0
        self.fittest = -1
        self.edges: dict[tuple[int, int], list] = {}

    def order_array(self) -> np.ndarray:
        """Insertion order so far, as a read-only view."""
        return self._order_view[: self.size]

    def add_clause(self, clause: int):
        """Move a clause into the network and update local frequencies,
        fitness and the fittest index.

        Each of the newcomer's literal slots raises the fitness of each
        added clause by the number of its slots holding that literal.
        Fitness never decreases, so the incumbent can only be overtaken by a
        clause touched here; it keeps its place on ties, otherwise the lowest
        index among the maximizers wins.
        """
        added = self._added
        if added[clause]:
            raise ValueError(f"clause {clause} already added")
        position = self.size
        self._order[position] = clause
        self._position[clause] = position
        self.size = position + 1
        added[clause] = 1
        unadded = self._unadded
        del unadded[bisect_left(unadded, clause)]
        freq = self._freq
        codes = self._code_rows[clause]
        for code in codes:
            freq[code] += 1
        fit = 0
        for code in codes:
            fit += freq[code]
        fitness = self._fitness
        fitness[clause] = fit  # its weight stays 0 until it links
        conn = self._conn
        weight = self._weight
        where = self._position
        joined = self._joined
        best, leader = -1, clause
        for code in codes:
            for other in joined[code]:
                fit_other = fitness[other] + 1
                fitness[other] = fit_other
                weight[where[other]] = conn[other] * fit_other
                if fit_other > best or (fit_other == best and other < leader):
                    best, leader = fit_other, other
        for code in codes:
            joined[code].append(clause)
        if fit > best or (fit == best and clause < leader):
            best, leader = fit, clause
        if self.fittest < 0:
            self.fittest = clause
        elif best > fitness[self.fittest]:
            self.fittest = leader

    def matches(self, t: int) -> dict[int, int]:
        """Each unadded clause sharing a literal with clause ``t``, mapped to
        the size of the multiset intersection of their literals: a literal
        held a times by ``t`` and b times by the other counts min(a, b).
        The clause distance is k minus that size, and k for every clause
        absent here."""
        added = self._added
        row = self._code_rows[t]
        matched: dict[int, int] = {}
        for code in set(row):
            a = row.count(code)
            for other, b in self._holders[code]:
                if not added[other]:
                    matched[other] = matched.get(other, 0) + (a if a < b else b)
        return matched

    def link(self, newcomer: int, target: int, weight: float):
        """Record one link event from the newcomer to an existing node."""
        key = (newcomer, target) if newcomer < target else (target, newcomer)
        entry = self.edges.get(key)
        if entry is None:
            self.edges[key] = [float(weight), 1]
        else:
            entry[1] += 1  # repeated pair: keep first weight, bump multiplicity
        self._out[newcomer] += 1
        self._in[target] += 1
        # s2g gains 1 on both ends, so conn stays the plain degree there
        # (repeated pairs cannot arise in s2g); s2gpa credits the newcomer theta
        conn = self._conn
        fitness = self._fitness
        where = self._position
        conn[newcomer] += self._newcomer_gain
        conn[target] += 1.0
        self._weight[where[newcomer]] = conn[newcomer] * fitness[newcomer]
        self._weight[where[target]] = conn[target] * fitness[target]


def _view(buffer, dtype) -> np.ndarray:
    view = np.frombuffer(buffer, dtype=dtype)
    view.flags.writeable = False
    return view


def select_first_clause(state: BuildState) -> int:
    """Seed clause: uniform, or uniform among the clauses of maximal
    whole-formula fitness under the ``fittest`` rule."""
    codes = state.codes
    if state.cfg.first_clause_rule == FIRST_RANDOM:
        return int(state.rng.integers(len(codes)))
    fits = np.bincount(codes.ravel())[codes].sum(axis=1)
    ties = np.flatnonzero(fits == fits.max())
    return int(ties[state.rng.integers(len(ties))])


def find_closest_clause(state: BuildState, t: int) -> int:
    """Unadded clause with minimal distance to the added clause ``t``; ties
    uniform over the tied clauses in index order.

    Only clauses sharing a literal with ``t`` are closer than k; when none is
    left, every unadded clause ties at distance k.  A clause found exhausted
    is remembered, since clauses never leave the network.
    """
    added = state._added
    if not added[t]:
        raise ValueError(f"clause {t} has not been added")
    rng = state.rng
    if t != state._exhausted:
        matched = state.matches(t)
        if matched:
            most = max(matched.values())
            ties = sorted([other for other, count in matched.items() if count == most])
            return ties[rng.integers(len(ties))]
        state._exhausted = t
    ties = state._unadded
    if not ties:
        raise ValueError("all clauses already added")
    return ties[rng.integers(len(ties))]


def attachment_probabilities(state: BuildState) -> np.ndarray:
    """Per existing node, connectivity x fitness normalized to sum 1.

    Aligned with the insertion order.  Undefined until at least one link
    exists (the forced first edge guarantees that from step two on).
    """
    weights = state._weight_view[: state.size]
    total = np.add.reduce(weights)
    if not total > 0:
        raise RuntimeError("attachment probabilities undefined before the first edge")
    return weights / total


def preferential_draw(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Sample x in (0, 1] and return the first index whose cumulative
    probability reaches x."""
    x = 1.0 - rng.random()
    return min(int(cumulative.searchsorted(x)), len(cumulative) - 1)


def _freeze(state: BuildState) -> ClauseGraph:
    cfg = state.cfg
    header = vars(cfg)
    if cfg.mode == MODE_S2G:  # s2g graphs carry no theta or rho
        header = {**header, "theta": None, "rho": None}
    order = state.order_array()
    fits = state.fitness[order]
    columns = (fits, *fitness_columns(fits, cfg.temperature), state.conn[order],
               state.in_events[order], state.out_events[order])
    return ClauseGraph(
        **header,
        n=state.formula.n,
        k=state.formula.k,
        formula_sha256=formula_sha256(state.formula),
        nodes=list(map(GraphNode, order.tolist(), *(c.tolist() for c in columns))),
        edges={
            (u, v): GraphEdge(u, v, weight, multiplicity)
            for (u, v), (weight, multiplicity) in state.edges.items()
        },
    )


def build_graph(formula: Formula, cfg: BuilderConfig, iteration_hook=None) -> ClauseGraph:
    """Grow the clause network of ``formula`` under ``cfg``.

    ``iteration_hook(state, pi)``, when given, runs after each step from the
    second clause on, with the attachment probabilities that step used.  Each
    step hands it a new ``pi`` array, so the hook may keep it; the state's
    arrays are read-only views that later steps keep writing.
    """
    if formula.m < 2:
        raise ValueError("need at least 2 clauses to build a network")
    state = BuildState(formula, cfg)
    rng = state.rng

    first = select_first_clause(state)
    state.add_clause(first)

    # forced first edge: the lone existing node attaches with probability 1
    second = find_closest_clause(state, state.fittest)
    pi = np.array([1.0])
    state.add_clause(second)
    state.link(second, first, 1.0)
    if iteration_hook is not None:
        iteration_hook(state, pi)

    m = formula.m
    s2g = cfg.mode == MODE_S2G
    add_clause, link, random = state.add_clause, state.link, rng.random
    existing = state._order
    while state.size < m:
        newcomer = find_closest_clause(state, state.fittest)
        pi = attachment_probabilities(state)
        add_clause(newcomer)
        if s2g:
            for j in (random(len(pi)) < pi).nonzero()[0].tolist():
                link(newcomer, existing[j], pi.item(j))
        else:
            cumulative = pi.cumsum()
            for _ in range(cfg.rho):
                j = preferential_draw(cumulative, rng)
                link(newcomer, existing[j], pi.item(j))
        if iteration_hook is not None:
            iteration_hook(state, pi)
    return _freeze(state)
