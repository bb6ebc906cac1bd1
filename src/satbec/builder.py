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

A newcomer changes only the clauses that share a literal with it, so each
step updates local frequencies, fitness, the fittest index and the
attachment weights over that neighbourhood alone, in one Python pass over
its row of an overlap table built once per formula in numpy, one broadcast
per literal group size (``overlap_table``, O(m x mean neighbourhood)
memory), that is exact also when clauses repeat literals.  Once the
fittest clause's row holds no unadded clause, the closest-clause search
draws from a sorted list.

The rest of a step is a fixed handful of numpy calls: the sum and division
that give ``pi`` and, in preferential mode, its cumulative sum (in plain
mode, one uniform draw per existing node).  A step at n=100, m=800 costs
about 12 us (median, 2-core Xeon, Python 3.11); those numpy calls are O(m),
so a build is still O(m^2).  Normalized fitness and energies are computed
once, from the final fitness, when the graph is frozen.  The temperature
only scales those energies; it changes no edge, no insertion order and no
energy ordering.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .cnf import Formula, clause_code_array, formula_sha256
from .graph import (
    FIRST_RANDOM,
    MODE_S2G,
    BuilderConfig,
    ClauseGraph,
    GraphEdge,
    GraphNode,
)
from .seeding import derive_rng


class OverlapTable(NamedTuple):
    """For each clause, the other clauses that share a literal with it.

    Row ``c`` spans ``start[c]:start[c + 1]`` of the entry arrays and lists
    its neighbours in index order.  ``overlap`` counts the pairs of literal
    slots holding the same literal, which is what one clause adds to the
    other's local fitness.  ``distance`` is the clause distance: a literal
    held c_a and c_b times is c_a x c_b such pairs but only min(c_a, c_b)
    matches.  Every pair absent from the table is at distance k.
    """

    start: np.ndarray
    clause: np.ndarray
    overlap: np.ndarray
    distance: np.ndarray


def overlap_table(codes: np.ndarray) -> OverlapTable:
    """Sparse literal-overlap lists of the clauses whose literal codes are
    the rows of ``codes``, O(m * mean row length)."""
    m, k = codes.shape
    flat = codes.ravel()
    by_code = np.argsort(flat, kind="stable")
    sorted_codes = flat[by_code]
    sorted_owner = by_code // k
    # one group per literal: the slots that hold it, in clause order (the sort
    # is stable), so a clause's repeats of it are adjacent: occurrences 0, 1, ...
    group_start = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    group_size = np.diff(np.r_[group_start, len(flat)])
    run = sorted_codes * m + sorted_owner
    occurrence = np.arange(len(flat)) - np.searchsorted(run, run)
    # every ordered pair of slots of different clauses holding the same
    # literal, one (groups, g, g) broadcast per group size g; the sizes go
    # through a set, because np.unique's hash table adds about 1 MiB of peak RSS
    matched, unequal = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for g in set(group_size[group_size > 1].tolist()):
        slots = group_start[group_size == g, None] + np.arange(g)
        owner, occ = sorted_owner[slots], occurrence[slots]
        pair_keys = owner[:, :, None] * m + owner[:, None, :]
        other = owner[:, :, None] != owner[:, None, :]
        matched.append(pair_keys[other])
        # a pair of unequal occurrence numbers is no match (none without repeats)
        unequal.append(pair_keys[other & (occ[:, :, None] != occ[:, None, :])])
    keys, overlap = np.unique(np.concatenate(matched), return_counts=True)
    distance = (k - overlap).astype(np.int32)
    np.add.at(distance, np.searchsorted(keys, np.concatenate(unequal)), 1)
    start = np.searchsorted(keys, np.arange(m + 1) * m)
    return OverlapTable(start, (keys % m).astype(np.int32), overlap.astype(np.int32), distance)


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
        self.rng = derive_rng(cfg.seed)
        self.codes = clause_code_array(formula)
        table = overlap_table(self.codes)
        m = formula.m
        # the step reads one overlap row at a time as Python ints, through
        # memoryviews: as fast to iterate as lists, with no copy of the table
        self._code_rows = self.codes.tolist()
        self._row_start = table.start.tolist()
        self._near = memoryview(table.clause)
        self._overlap = memoryview(table.overlap)
        self._distance = memoryview(table.distance)
        self._order = array("q", [0]) * m
        self._position = [0] * m
        self._added = bytearray(m)
        self._unadded = list(range(m))
        # a clause whose overlap row has no unadded clause left
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

        The newcomer raises the fitness of each added clause sharing a
        literal with it by their overlap.  Fitness never decreases, so the
        incumbent can only be overtaken by a clause touched here; it keeps
        its place on ties, otherwise the lowest index among the maximizers
        wins.
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
        # rows list clauses in index order, so the first clause to reach the
        # row's maximum is the lowest-indexed one
        best, leader = -1, clause
        lo, hi = self._row_start[clause], self._row_start[clause + 1]
        for other, overlap in zip(self._near[lo:hi], self._overlap[lo:hi]):
            if added[other]:
                fit_other = fitness[other] + overlap
                fitness[other] = fit_other
                weight[where[other]] = conn[other] * fit_other
                if fit_other > best:
                    best, leader = fit_other, other
        if fit > best or (fit == best and clause < leader):
            best, leader = fit, clause
        if self.fittest < 0:
            self.fittest = clause
        elif best > fitness[self.fittest]:
            self.fittest = leader

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
    left, every unadded clause ties at distance k.  A row found exhausted is
    remembered, since clauses never leave the network.
    """
    added = state._added
    if not added[t]:
        raise ValueError(f"clause {t} has not been added")
    rng = state.rng
    if t != state._exhausted:
        lo, hi = state._row_start[t], state._row_start[t + 1]
        ties = []
        least = 0
        for other, distance in zip(state._near[lo:hi], state._distance[lo:hi]):
            if added[other]:
                continue
            if not ties or distance < least:
                least = distance
                ties = [other]
            elif distance == least:
                ties.append(other)
        if ties:
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
    total = weights.sum()
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
    normalized = fits / int(fits.max())
    energy = -cfg.temperature * np.log(normalized) + 0.0
    columns = (fits, normalized, energy, state.conn[order], state.in_events[order],
               state.out_events[order])
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

    existing = state._order
    while state.size < formula.m:
        newcomer = find_closest_clause(state, state.fittest)
        pi = attachment_probabilities(state)
        state.add_clause(newcomer)
        if cfg.mode == MODE_S2G:
            for j in (rng.random(len(pi)) < pi).nonzero()[0].tolist():
                state.link(newcomer, existing[j], pi.item(j))
        else:
            cumulative = pi.cumsum()
            for _ in range(cfg.rho):
                j = preferential_draw(cumulative, rng)
                state.link(newcomer, existing[j], pi.item(j))
        if iteration_hook is not None:
            iteration_hook(state, pi)
    return _freeze(state)
