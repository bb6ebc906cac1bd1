"""Reference builder kept as a test oracle.

This is the straightforward construction: a dense m x m clause-distance
matrix, and local frequencies, fitness, the fittest index, normalized
fitness and energies recomputed from scratch over every added clause at the
end of every step.  It costs O(m) per step and O(m^2) memory, which is why
``satbec.builder`` grows its state incrementally instead; the two must give
byte-identical graphs and the same per-step state.

The oracle takes only the config type, the seeded generator, the graph
types and the scalar ``clause_distance`` from the package: literal codes
(``literal_code``, also the reference for ``Formula.literal_tables``), the
distance matrix, attachment probabilities, the preferential draw and the
frozen graph are computed here, so a fault in the package's step loop,
which computes the probabilities and the draw inline, shows up as a
difference.  In particular the distances the package's search reads
from its per-literal clause lists (``BuildState.matches``) are checked
against ``clause_distance`` pair by pair whenever a clause repeats a
variable.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from conftest import hand_graph
from satbec.builder import FIRST_RANDOM, BuilderConfig
from satbec.cnf import Formula, formula_sha256
from satbec.graph import MODE_S2G, MODE_S2GPA, ClauseGraph
from satbec.metrics import clause_distance


def literal_code(literal: int) -> int:
    """Dense code in [0, 2n) of a signed literal: x -> 2(x-1), -x -> 2(x-1)+1."""
    return 2 * (abs(literal) - 1) + (1 if literal < 0 else 0)


def frequency_by_code(state) -> dict[int, int]:
    """The local literal frequencies of a package ``BuildState``, which keeps
    them by literal id, keyed by literal code: the ids rank the codes that
    occur in the formula."""
    clauses = state.formula.clauses
    return dict(zip(sorted({literal_code(x) for clause in clauses for x in clause}), state.freq))


def clause_codes(formula: Formula) -> np.ndarray:
    """(m, k) int64 literal codes, one scalar ``literal_code`` call each."""
    return np.array(
        [[literal_code(lit) for lit in clause] for clause in formula.clauses],
        dtype=np.int64,
    ).reshape(formula.m, formula.k)


def distance_matrix(formula: Formula, codes: np.ndarray) -> np.ndarray:
    """Pairwise clause distances.  The vectorized path assumes no repeated
    variables inside a clause; formulas whose ``duplicate_vars`` is set fall
    back to the exact multiset computation."""
    m, k = codes.shape
    if formula.duplicate_vars:
        dist = np.zeros((m, m), dtype=np.int16)
        for i in range(m):
            for j in range(i + 1, m):
                d = clause_distance(formula.clauses[i], formula.clauses[j])
                dist[i, j] = dist[j, i] = d
        return dist
    inter = np.zeros((m, m), dtype=np.int16)
    for p in range(k):
        for q in range(k):
            inter += codes[:, p, None] == codes[None, :, q]
    return (k - inter).astype(np.int16)


class OracleState:
    """Construction state with the insertion order as a list and a dense
    distance matrix; arrays are indexed by clause index."""

    def __init__(self, formula: Formula, cfg: BuilderConfig):
        self.formula = formula
        self.cfg = cfg
        self.rng = np.random.Generator(np.random.PCG64(cfg.seed))
        self.codes = clause_codes(formula)
        self.dist = distance_matrix(formula, self.codes)
        m = formula.m
        self.order: list[int] = []
        self.added = np.zeros(m, dtype=bool)
        self.freq = np.zeros(2 * formula.n, dtype=np.int64)
        self.fitness = np.zeros(m, dtype=np.int64)
        self.normalized = np.zeros(m, dtype=float)
        self.energy = np.zeros(m, dtype=float)
        self.conn = np.zeros(m, dtype=float)
        self.in_events = np.zeros(m, dtype=np.int64)
        self.out_events = np.zeros(m, dtype=np.int64)
        self.fittest = -1
        self.edges: dict[tuple[int, int], list] = {}

    def order_array(self) -> np.ndarray:
        return np.asarray(self.order, dtype=np.int64)

    def add_clause(self, clause: int):
        if self.added[clause]:
            raise ValueError(f"clause {clause} already added")
        self.order.append(clause)
        self.added[clause] = True

    def link(self, newcomer: int, target: int, weight: float):
        key = (newcomer, target) if newcomer < target else (target, newcomer)
        entry = self.edges.get(key)
        if entry is None:
            self.edges[key] = [float(weight), 1]
        else:
            entry[1] += 1
        self.out_events[newcomer] += 1
        self.in_events[target] += 1
        if self.cfg.mode == MODE_S2G:
            self.conn[newcomer] += 1.0
            self.conn[target] += 1.0
        else:
            self.conn[newcomer] += self.cfg.theta
            self.conn[target] += 1.0


def select_first_clause(formula: Formula, cfg: BuilderConfig, rng) -> int:
    """Uniform seed clause, or uniform among the clauses of maximal
    whole-formula fitness (a Counter over signed literals)."""
    if cfg.first_clause_rule == FIRST_RANDOM:
        return int(rng.integers(formula.m))
    counts = Counter(x for clause in formula.clauses for x in clause)
    fits = [sum(counts[x] for x in clause) for clause in formula.clauses]
    ties = [c for c, fit in enumerate(fits) if fit == max(fits)]
    return ties[int(rng.integers(len(ties)))]


def find_closest_clause(formula: Formula, added, t: int, rng, distances=None) -> int:
    """Unadded clause with minimal distance to clause ``t``; ties uniform.

    ``distances`` may carry a precomputed row of distances from every clause
    to ``t``; otherwise distances are computed on the fly.
    """
    mask = np.ones(formula.m, dtype=bool)
    mask[list(added)] = False
    candidates = np.flatnonzero(mask)
    if len(candidates) == 0:
        raise ValueError("all clauses already added")
    if distances is None:
        target = formula.clauses[t]
        dvals = np.array([clause_distance(formula.clauses[c], target) for c in candidates])
    else:
        dvals = np.asarray(distances)[candidates]
    ties = candidates[dvals == dvals.min()]
    return int(ties[rng.integers(len(ties))])


def update_fitness(state: OracleState) -> OracleState:
    """Recompute local frequencies, fitness, fittest index, normalized
    fitness, and energies over the added clauses.

    The fittest index keeps the incumbent on ties; otherwise the lowest
    clause index among the maximizers wins.
    """
    order = state.order_array()
    if len(order) == 0:
        raise ValueError("no clauses added yet")
    added_codes = state.codes[order]
    state.freq = np.bincount(added_codes.ravel(), minlength=2 * state.formula.n)
    fits = state.freq[added_codes].sum(axis=1)
    state.fitness[order] = fits
    best = int(fits.max())
    if state.fittest < 0 or state.fitness[state.fittest] != best:
        state.fittest = int(order[fits == best].min())
    state.normalized[order] = fits / best
    state.energy[order] = -state.cfg.temperature * np.log(state.normalized[order]) + 0.0
    return state


def attachment_probabilities(state: OracleState) -> np.ndarray:
    """Per existing node, connectivity x fitness normalized to sum 1, in
    insertion order."""
    order = state.order_array()
    weights = state.conn[order] * state.fitness[order]
    total = weights.sum()
    if not total > 0:
        raise RuntimeError("attachment probabilities undefined before the first edge")
    return weights / total


def preferential_draw(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    """Sample x in (0, 1] and return the first index whose cumulative
    probability reaches x."""
    x = 1.0 - rng.random()
    return min(int(np.searchsorted(cumulative, x, side="left")), len(cumulative) - 1)


def freeze(state: OracleState) -> ClauseGraph:
    """The finished state as a graph, one node row at a time in insertion order."""
    cfg = state.cfg
    preferential = cfg.mode == MODE_S2GPA
    nodes = [
        (
            clause,
            int(state.fitness[clause]),
            float(state.normalized[clause]),
            float(state.energy[clause]),
            float(state.conn[clause]),
            int(state.in_events[clause]),
            int(state.out_events[clause]),
        )
        for clause in state.order
    ]
    edges = [(u, v, weight, multiplicity) for (u, v), (weight, multiplicity) in state.edges.items()]
    return hand_graph(
        nodes,
        edges,
        mode=cfg.mode,
        temperature=cfg.temperature,
        theta=cfg.theta if preferential else None,
        rho=cfg.rho if preferential else None,
        seed=cfg.seed,
        first_clause_rule=cfg.first_clause_rule,
        n=state.formula.n,
        k=state.formula.k,
        formula_sha256=formula_sha256(state.formula),
    )


def oracle_build(formula: Formula, cfg: BuilderConfig, iteration_hook=None) -> ClauseGraph:
    if formula.m < 2:
        raise ValueError("need at least 2 clauses to build a network")
    state = OracleState(formula, cfg)
    rng = state.rng

    first = select_first_clause(formula, cfg, rng)
    state.add_clause(first)
    update_fitness(state)

    second = find_closest_clause(
        formula, state.order, state.fittest, rng, distances=state.dist[state.fittest]
    )
    pi = np.array([1.0])
    state.add_clause(second)
    state.link(second, first, 1.0)
    update_fitness(state)
    if iteration_hook is not None:
        iteration_hook(state, pi)

    while len(state.order) < formula.m:
        target = state.fittest
        newcomer = find_closest_clause(
            formula, state.order, target, rng, distances=state.dist[target]
        )
        existing = state.order_array()
        pi = attachment_probabilities(state)
        state.add_clause(newcomer)
        if cfg.mode == MODE_S2G:
            draws = rng.random(len(existing))
            for j in np.flatnonzero(draws < pi):
                state.link(newcomer, int(existing[j]), float(pi[j]))
        else:
            cumulative = np.cumsum(pi)
            for _ in range(cfg.rho):
                j = preferential_draw(cumulative, rng)
                state.link(newcomer, int(existing[j]), float(pi[j]))
        update_fitness(state)
        if iteration_hook is not None:
            iteration_hook(state, pi)
    return freeze(state)
