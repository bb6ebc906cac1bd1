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

Each formula computes its literal tables once, on the first build, and keeps
them (``Formula.literal_tables``): every clause's literal ids and, per
literal, every clause holding it with how many times it does.  A build adds
per literal the added clauses holding it, one entry per slot, appended as
each joins.  A newcomer changes only the added clauses that share a literal
with it, so ``add_clause`` walks the added list of each of its slots, adding
1 to each entry's fitness and rewriting its attachment weight: a literal
held a and b times adds a x b.  The search sums min(a, b) over the literals
each unadded clause shares with the target, read from the target's holders;
the distance is k minus that sum, exact also when clauses repeat literals.
Once no unadded clause shares a literal with the target, every unadded
clause ties at distance k, the target is remembered, and the step draws the
joiner straight from the sorted list of unadded clauses.  That is the case
in most searches, 93 % at n=100, alpha=8 (s2gpa) and 87 % on the bench grid
at n=50 (s2g), over 10 formulas each.

The rest of a step is a fixed handful of numpy calls on the attachment
weights: the sum and division that give ``pi`` and, in preferential mode,
its cumulative sum and one ``searchsorted`` per draw (in plain mode, one
uniform draw per existing node).  The counters are Python lists; only the
weights, which numpy reads, are an ``array.array``, and each edge is kept
under the int key u * m + v.  At n=100, m=800 (s2gpa, 2-core shared Xeon,
Python 3.11, numpy 2.4) a formula's tables cost about 1.2 ms once.  The
traced ``sweep_dense`` benchmark (ten builds per formula) reads medians of
0.31 ms for a build's set-up before the first link, 25 us for a step and
1.1 ms for freezing the graph.  A copy of the loop with timers around each
part (100 builds of 20 formulas, on a run whose steps took 18 us) splits a
step as 5 us for the fitness update, 3 us for the search (11 us in the 6 %
of searches that read the holders), 6 us for ``pi`` and its cumulative sum
and 4 us for the draw and its link.
The numpy calls are O(m), so a build is still O(m^2).  Normalized fitness
and energies are computed once, from the final fitness, when the graph is
frozen.  The temperature only scales those energies; it changes no edge, no
insertion order and no energy ordering.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from itertools import chain
from operator import itemgetter

import numpy as np

from .cnf import Formula, formula_sha256
from .graph import (
    FIRST_RANDOM,
    MODE_S2G,
    BuilderConfig,
    ClauseGraph,
    EdgeColumns,
    NodeColumns,
    fitness_columns,
)


class BuildState:
    """Mutable construction state; counters are indexed by clause index.

    The counters are the Python lists the step updates in place: ``order``,
    ``fitness``, ``conn``, ``in_events``, ``out_events``, and ``freq``, the
    local frequency of each literal id over the added clauses.  An
    ``iteration_hook`` reads them live, so it copies what it keeps.  Only the
    attachment weights, which numpy reads, are an ``array.array``.

    ``add_clause`` keeps the local frequencies, fitness and fittest index
    current; ``link`` keeps connectivity, link events and the edges current.
    Both keep each added clause's attachment weight, connectivity x fitness,
    at its insertion position, so the step reads one contiguous vector.
    """

    def __init__(self, formula: Formula, cfg: BuilderConfig):
        if formula.m < 1:
            raise ValueError("formula has no clauses")
        self.formula = formula
        self.cfg = cfg
        self.rng = np.random.Generator(np.random.PCG64(cfg.seed))
        # the formula's shared, read-only tables: each clause's literal ids
        # and each literal's holders
        self._rows, self._holders = formula.literal_tables
        m = formula.m
        # per literal id: the added clauses holding it, one entry per slot,
        # in joining order
        self._joined: list[list[int]] = [[] for _ in self._holders]
        self.order: list[int] = []
        self._position = [0] * m
        self._added = bytearray(m)
        self._unadded = list(range(m))
        # an added clause that shares a literal with no unadded clause
        self._exhausted = -1
        self.freq = [0] * len(self._holders)
        self.fitness = [0] * m
        self.conn = [0.0] * m
        self.in_events = [0] * m
        self.out_events = [0] * m
        self._weight = array("d", [0.0]) * m
        self._newcomer_gain = 1.0 if cfg.mode == MODE_S2G else cfg.theta
        self.fittest = -1
        # each edge u < v under the key u * m + v: the weight of its first
        # link event, and its link events
        self.edge_weight: dict[int, float] = {}
        self.multiplicity: dict[int, int] = {}

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
        self._position[clause] = len(self.order)
        self.order.append(clause)
        added[clause] = 1
        unadded = self._unadded
        del unadded[bisect_left(unadded, clause)]
        freq = self.freq
        literals = self._rows[clause]
        for literal in literals:
            freq[literal] += 1
        fit = 0
        for literal in literals:
            fit += freq[literal]
        fitness = self.fitness
        fitness[clause] = fit  # its weight stays 0 until it links
        conn = self.conn
        weight = self._weight
        where = self._position
        joined = self._joined
        best, leader = -1, clause
        for literal in literals:
            for other in joined[literal]:
                fit_other = fitness[other] + 1
                fitness[other] = fit_other
                weight[where[other]] = conn[other] * fit_other
                if fit_other > best or (fit_other == best and other < leader):
                    best, leader = fit_other, other
        for literal in literals:
            joined[literal].append(clause)
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
        row = self._rows[t]
        matched: dict[int, int] = {}
        for literal in set(row):
            a = row.count(literal)
            for other, b in self._holders[literal]:
                if not added[other]:
                    matched[other] = matched.get(other, 0) + (a if a < b else b)
        return matched

    def link(self, newcomer: int, target: int, weight: float):
        """Record one link event from the newcomer to an existing node."""
        m = len(self.fitness)
        key = newcomer * m + target if newcomer < target else target * m + newcomer
        self.edge_weight.setdefault(key, float(weight))  # a repeat keeps the first weight
        self.multiplicity[key] = self.multiplicity.get(key, 0) + 1
        self.out_events[newcomer] += 1
        self.in_events[target] += 1
        # s2g gains 1 on both ends, so conn stays the plain degree there
        # (repeated pairs cannot arise in s2g); s2gpa credits the newcomer theta
        conn = self.conn
        fitness = self.fitness
        where = self._position
        conn[newcomer] += self._newcomer_gain
        conn[target] += 1.0
        self._weight[where[newcomer]] = conn[newcomer] * fitness[newcomer]
        self._weight[where[target]] = conn[target] * fitness[target]


def select_first_clause(state: BuildState) -> int:
    """Seed clause: uniform, or uniform among the clauses of maximal
    whole-formula fitness under the ``fittest`` rule."""
    clauses = state.formula.clauses
    if state.cfg.first_clause_rule == FIRST_RANDOM:
        return int(state.rng.integers(len(clauses)))
    counts = Counter(chain.from_iterable(clauses))
    fits = [sum(map(counts.__getitem__, clause)) for clause in clauses]
    best = max(fits)
    ties = [clause for clause, fit in enumerate(fits) if fit == best]
    return ties[state.rng.integers(len(ties))]


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


def _freeze(state: BuildState) -> ClauseGraph:
    cfg = state.cfg
    header = vars(cfg)
    if cfg.mode == MODE_S2G:  # s2g graphs carry no theta or rho
        header = {**header, "theta": None, "rho": None}
    order = state.order
    pick = itemgetter(*order)  # m >= 2, so each pick is a tuple
    fits = pick(state.fitness)
    normalized, energy = fitness_columns(np.array(fits), cfg.temperature)
    # u < v < m, so the keys u * m + v sort as the pairs (u, v) do
    m = state.formula.m
    keys = sorted(state.edge_weight)
    return ClauseGraph(
        **header,
        n=state.formula.n,
        k=state.formula.k,
        formula_sha256=formula_sha256(state.formula),
        nodes=NodeColumns(tuple(order), fits, tuple(normalized.tolist()), tuple(energy.tolist()),
                          *map(pick, (state.conn, state.in_events, state.out_events))),
        edges=EdgeColumns(tuple([key // m for key in keys]), tuple([key % m for key in keys]),
                          *(tuple(map(column.__getitem__, keys))
                            for column in (state.edge_weight, state.multiplicity))),
    )


def build_graph(formula: Formula, cfg: BuilderConfig, iteration_hook=None) -> ClauseGraph:
    """Grow the clause network of ``formula`` under ``cfg``.

    ``iteration_hook(state, pi)``, when given, runs after each step from the
    second clause on, with the attachment probabilities that step used.  Each
    step hands it a new ``pi`` array, and the state's arrays are read-only
    copies made when read, so the hook may keep any of them.
    """
    if formula.m < 2:
        raise ValueError("need at least 2 clauses to build a network")
    state = BuildState(formula, cfg)

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
    draws = range(cfg.rho)
    add_clause, link, random = state.add_clause, state.link, state.rng.random
    existing, weights = state.order, np.frombuffer(state._weight)
    size = len(existing)
    while size < m:
        newcomer = find_closest_clause(state, state.fittest)
        # attachment probabilities over the existing nodes, in insertion
        # order: connectivity x fitness, normalized
        current = weights[:size]
        total = np.add.reduce(current)
        if not total > 0:
            raise RuntimeError("attachment probabilities undefined before the first edge")
        pi = current / total
        add_clause(newcomer)
        if s2g:
            for j in (random(size) < pi).nonzero()[0].tolist():
                link(newcomer, existing[j], pi.item(j))
        else:
            # x in (0, 1] lands on the first node whose cumulative
            # probability reaches it; rounding short of 1 means the last
            cumulative = np.add.accumulate(pi)
            last = size - 1
            for _ in draws:
                j = int(cumulative.searchsorted(1.0 - random()))
                if j > last:
                    j = last
                link(newcomer, existing[j], pi.item(j))
        size += 1
        if iteration_hook is not None:
            iteration_hook(state, pi)
    return _freeze(state)
