"""Reference solver kept as a test oracle.

This is the walk written out in parts: an engine object with its own
``delta_e``, ``critical_clauses`` and ``flip``, selector objects for the
uniform and the ordered clause picks, ``rng.randrange`` for every uniform
draw, and occurrence lists that work out each signed literal's variable and
sign themselves.  ``satbec.solver`` fuses all of it into one loop; the two
must return equal ``SolverResult``s field for field, so they must consume
the random stream identically.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush

from satbec.cnf import Formula, formula_sha256
from satbec.solver import ClauseOrder, SolverResult, flip_probabilities


class Engine:
    """Assignment state with incremental satisfied-literal bookkeeping."""

    def __init__(self, formula: Formula, rng: random.Random):
        n, m = formula.n, formula.m
        self.formula = formula
        # index 0 unused so variables index directly
        self.assign = [False] + [rng.random() < 0.5 for _ in range(n)]
        self.occ: list[list[int]] = [[] for _ in range(2 * n)]
        self.clause_vars: list[tuple[int, ...]] = []
        for c, clause in enumerate(formula.clauses):
            self.clause_vars.append(tuple(abs(lit) for lit in clause))
            for lit in clause:
                self.occ[2 * (abs(lit) - 1) + (1 if lit < 0 else 0)].append(c)
        assign = self.assign
        self.num_true = [
            sum(1 for lit in clause if assign[abs(lit)] == (lit > 0))
            for clause in formula.clauses
        ]
        self.unsat: list[int] = []
        self.pos = [-1] * m
        for c, nt in enumerate(self.num_true):
            if nt == 0:
                self.pos[c] = len(self.unsat)
                self.unsat.append(c)
        self.on_become_unsat = None

    def _true_code(self, v: int) -> int:
        base = 2 * (v - 1)
        return base if self.assign[v] else base + 1

    def delta_e(self, v: int) -> int:
        """Change in the unsatisfied-clause count if v were flipped."""
        tc = self._true_code(v)
        nt = self.num_true
        breaks = 0
        for c in self.occ[tc]:
            if nt[c] == 1:
                breaks += 1
        makes = 0
        for c in self.occ[tc ^ 1]:
            if nt[c] == 0:
                makes += 1
        return breaks - makes

    def critical_clauses(self, v: int) -> list[int]:
        """Clauses currently satisfied by v alone."""
        nt = self.num_true
        return [c for c in self.occ[self._true_code(v)] if nt[c] == 1]

    def flip(self, v: int):
        tc = self._true_code(v)
        nt = self.num_true
        pos = self.pos
        unsat = self.unsat
        callback = self.on_become_unsat
        for c in self.occ[tc]:
            x = nt[c] - 1
            nt[c] = x
            if x == 0:
                pos[c] = len(unsat)
                unsat.append(c)
                if callback is not None:
                    callback(c)
        for c in self.occ[tc ^ 1]:
            if nt[c] == 0:
                i = pos[c]
                last = unsat[-1]
                unsat[i] = last
                pos[last] = i
                unsat.pop()
                pos[c] = -1
            nt[c] += 1
        self.assign[v] = not self.assign[v]


class UniformSelector:
    def __init__(self, engine: Engine):
        pass

    def pick_unsat(self, engine: Engine, rng: random.Random) -> int:
        unsat = engine.unsat
        return unsat[rng.randrange(len(unsat))]

    def pick_critical(self, engine, critical: list[int], rng: random.Random) -> int:
        return critical[rng.randrange(len(critical))]


class OrderedSelector:
    """Heaviest-unvisited clause picks backed by a lazy-deletion heap."""

    def __init__(self, engine: Engine, order: ClauseOrder, shared_bits: bool):
        m = engine.formula.m
        if len(order.rank) != m:
            raise ValueError("clause order length does not match formula")
        self.rank_pos = order.positions()
        self.unsat_bits = bytearray(m)
        self.sat_bits = self.unsat_bits if shared_bits else bytearray(m)
        self.heap: list[tuple[int, int]] = []
        engine.on_become_unsat = self._on_unsat
        for c in engine.unsat:
            self._on_unsat(c)

    def _on_unsat(self, c: int):
        if not self.unsat_bits[c]:
            heappush(self.heap, (self.rank_pos[c], c))

    def pick_unsat(self, engine: Engine, rng: random.Random) -> int:
        heap = self.heap
        bits = self.unsat_bits
        pos = engine.pos
        while heap:
            _, c = heappop(heap)
            if not bits[c] and pos[c] >= 0:
                bits[c] = 1
                return c
        unsat = engine.unsat
        return unsat[rng.randrange(len(unsat))]

    def pick_critical(self, engine, critical: list[int], rng: random.Random) -> int:
        bits = self.sat_bits
        rank_pos = self.rank_pos
        best = -1
        best_rank = len(rank_pos) + 1
        for c in critical:
            if not bits[c] and rank_pos[c] < best_rank:
                best_rank = rank_pos[c]
                best = c
        if best >= 0:
            bits[best] = 1
            return best
        return critical[rng.randrange(len(critical))]


def oracle_run(formula, p1, p2, budget, seed, selector_factory, record_trajectory):
    if budget < 0:
        raise ValueError("budget must be non-negative")
    digest = formula_sha256(formula)
    p1, p2 = flip_probabilities(formula.k, p1, p2)
    if formula.m == 0:
        return SolverResult(
            solved=True,
            satisfied_clauses=0,
            flips=0,
            evaluations=0,
            assignment=(),
            formula_sha256=digest,
            unsat_trajectory=(0,) if record_trajectory else None,
        )
    rng = random.Random(seed)
    engine = Engine(formula, rng)
    selector = selector_factory(engine)
    trajectory = [len(engine.unsat)] if record_trajectory else None
    k = formula.k
    clause_vars = engine.clause_vars
    unsat = engine.unsat
    evaluations = 0
    flips = 0
    chaining = False
    v = 0
    while unsat and evaluations < budget:
        evaluations += 1
        if not chaining:
            c = selector.pick_unsat(engine, rng)
            v = clause_vars[c][rng.randrange(k)]
        de = engine.delta_e(v)
        chaining = False
        if de == 0:
            engine.flip(v)
            flips += 1
            if trajectory is not None:
                trajectory.append(len(unsat))
        elif de < 0:
            if rng.random() < p1:
                engine.flip(v)
                flips += 1
                if trajectory is not None:
                    trajectory.append(len(unsat))
        elif rng.random() < 1.0 - p2:
            critical = engine.critical_clauses(v)
            if critical:
                c2 = selector.pick_critical(engine, critical, rng)
                others = [w for w in clause_vars[c2] if w != v]
                if others:
                    v = others[rng.randrange(len(others))]
                    chaining = True
            # no handoff available: stay unchained, the cycle still counts
    return SolverResult(
        solved=not unsat,
        satisfied_clauses=formula.m - len(unsat),
        flips=flips,
        evaluations=evaluations,
        assignment=tuple(engine.assign[1:]),
        formula_sha256=digest,
        unsat_trajectory=tuple(trajectory) if trajectory is not None else None,
    )


def oracle_solve(
    formula: Formula,
    algo: str,
    order: ClauseOrder | None = None,
    p1: float | None = None,
    p2: float | None = None,
    budget: int = 1_000_000,
    seed: int = 0,
    record_trajectory: bool = False,
) -> SolverResult:
    """``chainsat`` picks uniformly; ``lc`` and ``nlc`` pick by ``order``
    with one shared or two separate visited-bit arrays."""
    if algo == "chainsat":
        factory = UniformSelector
    else:
        shared = algo == "lc"
        factory = lambda engine: OrderedSelector(engine, order, shared_bits=shared)
    return oracle_run(formula, p1, p2, budget, seed, factory, record_trajectory)
