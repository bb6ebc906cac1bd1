"""Circumspect local search with optional network-derived clause ordering.

The base algorithm keeps a running assignment and never accepts a flip that
increases the number of unsatisfied clauses: zero-cost flips are taken
always, strictly improving flips with a small probability p1, and otherwise,
with probability 1 - p2, the walk hands the token to a neighboring variable
chosen from a clause that the current variable alone satisfies (a chain
step).

The ordered variants replace the two uniform clause picks with a
heaviest-first rule.  Clause weight comes from a built network: a lower
energy level, that is a higher raw fitness, is heavier, higher connectivity
breaks ties within a level, and residual ties are settled by a seeded
shuffle.  Each pick marks its clause as visited in a bit array (one shared
array, or two separate ones for the unsat-pick and chain-pick roles); among
eligible clauses only unvisited ones are ranked, and when all are visited
the pick falls back to uniform random.  Bits are never cleared during a
run.

A flip's cost, breaks less makes counted per literal occurrence, is kept per
variable as the walk goes (see ``solve``) rather than scanned per evaluation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter, neg

from .cnf import MAX_COUNT, Formula, evaluate, formula_sha256, is_count, is_real
from .graph import ClauseGraph

SOLVERS = ("chainsat", "lc", "nlc")
# the solvers that pick clauses by a ClauseOrder
ORDERED_SOLVERS = SOLVERS[1:]

DEFAULT_BUDGET = 1_000_000
DESK_BUDGET = 10_000

# circumspection defaults by clause length
FLIP_PROBABILITIES = {3: 0.005, 4: 0.0001, 5: 0.0002}

A_BETTER = "a_better"
B_BETTER = "b_better"
TIE = "tie"


def flip_probabilities(
    k: int, p1: float | None = None, p2: float | None = None
) -> tuple[float | None, float | None]:
    """``p1`` and ``p2``, each None filled from the per-k table; both must
    be reals in [0, 1].  k = 0 is a formula with no clause: it runs no walk,
    so only explicit values are checked and a None stays None."""
    if not is_count(k):
        raise ValueError(f"k must be a non-negative integer, got {k!r}")
    if not all(p is None or (is_real(p) and 0.0 <= p <= 1.0) for p in (p1, p2)):
        raise ValueError("p1 and p2 must be real numbers in [0, 1]")
    if k and (p1 is None or p2 is None):
        try:
            p = FLIP_PROBABILITIES[k]
        except KeyError:
            raise ValueError(
                f"no default flip probabilities for k={k}; pass p1 and p2 explicitly"
            ) from None
        p1 = p if p1 is None else p1
        p2 = p if p2 is None else p2
    return p1, p2


@dataclass(frozen=True)
class ClauseOrder:
    """Clause indices, heaviest first."""

    rank: tuple[int, ...]

    def positions(self) -> list[int]:
        pos = [0] * len(self.rank)
        for position, clause in enumerate(self.rank):
            pos[clause] = position
        return pos


def clause_order(formula: Formula, graph: ClauseGraph, seed: int) -> ClauseOrder:
    """Weight order: raw fitness descending (energy level ascending, at
    every temperature), connectivity descending, then a seeded random
    shuffle for full ties."""
    if graph.formula_sha256 != formula_sha256(formula):
        raise ValueError("graph was not built from this formula")
    if graph.m != formula.m:
        raise ValueError("graph node count does not match formula")
    rng = random.Random(seed)
    tie = [rng.random() for _ in range(formula.m)]
    nodes = graph.nodes
    # one key per node; equal tie draws fall to the lower clause
    keys = sorted(zip(map(neg, nodes.raw_fitness), map(neg, nodes.connectivity),
                      map(tie.__getitem__, nodes.clause), nodes.clause))
    return ClauseOrder(rank=tuple(map(itemgetter(3), keys)))


@dataclass(frozen=True)
class SolverResult:
    solved: bool
    satisfied_clauses: int
    flips: int
    evaluations: int
    assignment: tuple[bool, ...]
    formula_sha256: str
    unsat_trajectory: tuple[int, ...] | None = None


def solve(
    formula: Formula,
    algo: str,
    order: ClauseOrder | None = None,
    p1: float | None = None,
    p2: float | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    record_trajectory: bool = False,
) -> SolverResult:
    """Run the solver named ``algo``, one of ``SOLVERS``, as one loop.
    ``lc`` and ``nlc`` need ``order``; ``chainsat`` ignores it.

    Without an order (``chainsat``) every clause starts out visited, so both
    picks always fall back to uniform; ``lc`` shares one visited-bit array
    between the two picks, ``nlc`` keeps one per pick.  Uniform draws repeat
    what ``rng.randrange(size)`` does in CPython (``getrandbits`` of
    ``size.bit_length()`` bits until the value is below ``size``), so the
    random stream is the one a ``randrange`` call per draw would consume.

    An evaluation reads ``breaks[v] - makes[v]``, which flips keep equal to
    a scan of v's occurrence lists.  ``breaks[v]`` counts the clauses whose
    only true literal occurrence is v's, ``makes[v]`` v's occurrences in
    clauses with none, and ``tsum[c]`` sums the variables of c's true
    occurrences, so it names the sole one when ``nt[c] == 1``.  A flip moves
    a break as ``nt[c]`` leaves or reaches 1 and a make per occurrence as it
    leaves or reaches 0, one occurrence at a time as the scan counts: a true
    literal held twice gives ``nt == 2``, no break, and a clause with x and
    -x passes through 0 between the two loops, its counts netting out as
    the unsat list and the heap do.  So v's true occurrences hold exactly
    ``breaks[v]`` critical clauses, and a chain step's uniform pick draws
    r below that count before it scans, stopping at the r-th.
    """
    if algo not in SOLVERS:
        raise ValueError(f"unknown solver {algo!r}; choose from {', '.join(SOLVERS)}")
    if not is_count(seed):
        raise ValueError("seed must be a non-negative integer")
    if algo not in ORDERED_SOLVERS:
        order = None
    elif order is None:
        raise ValueError(f"solver {algo} needs a clause order")
    if not (is_count(budget) and budget <= MAX_COUNT):
        raise ValueError(f"budget must be a non-negative integer <= {MAX_COUNT}, got {budget!r}")
    digest = formula_sha256(formula)
    m = formula.m
    p1, p2 = flip_probabilities(formula.k, p1, p2)
    if m == 0:
        return SolverResult(
            solved=True,
            satisfied_clauses=0,
            flips=0,
            evaluations=0,
            assignment=(),
            formula_sha256=digest,
            unsat_trajectory=(0,) if record_trajectory else None,
        )
    if order is not None and len(order.rank) != m:
        raise ValueError("clause order length does not match formula")
    rng = random.Random(seed)
    random_ = rng.random
    getrandbits = rng.getrandbits
    n, k = formula.n, formula.k

    # index 0 unused so variables index directly
    assign = [False] + [random_() < 0.5 for _ in range(n)]
    # occ[lit]: the clauses literal lit occurs in, once per occurrence; a
    # negative lit indexes from the end of the list
    occ: list[list[int]] = [[] for _ in range(2 * n + 1)]
    clause_vars: list[tuple[int, ...]] = []
    nt: list[int] = []  # true literal occurrences per clause
    tsum: list[int] = []  # their variables' sum: the sole one when nt is 1
    breaks = [0] * (n + 1)
    makes = [0] * (n + 1)
    for c, clause in enumerate(formula.clauses):
        variables = tuple(map(abs, clause))
        clause_vars.append(variables)
        count = total = 0
        for lit, w in zip(clause, variables):
            occ[lit].append(c)
            if (lit > 0) == assign[w]:
                count += 1
                total += w
        nt.append(count)
        tsum.append(total)
        if count == 0:
            for w in variables:
                makes[w] += 1
        elif count == 1:
            breaks[total] += 1
    unsat = [c for c in range(m) if nt[c] == 0]
    pos = [-1] * m
    for i, c in enumerate(unsat):
        pos[c] = i

    # ordered picks: visited bits, and a lazy-deletion heap of unsat clauses
    # keyed rank * m + c, which orders as the pair (rank, c)
    if order is None:
        rank_pos = None
        unsat_bits = sat_bits = bytearray(b"\x01") * m
    else:
        rank_pos = order.positions()
        unsat_bits = bytearray(m)
        sat_bits = unsat_bits if algo == "lc" else bytearray(m)
    heap = [rank_pos[c] * m + c for c in unsat if not unsat_bits[c]]
    heapify(heap)

    trajectory = [len(unsat)] if record_trajectory else None
    k_bits = k.bit_length()
    chain_p = 1.0 - p2
    evaluations = 0
    flips = 0
    chaining = False
    v = 0
    # the chain step's handoff candidates, by c * n1 + v
    others_of = {}
    n1 = n + 1
    while unsat and evaluations < budget:
        evaluations += 1
        if not chaining:
            # the heaviest unvisited unsat clause, else a uniform one
            while heap:
                c = heappop(heap) % m
                if not unsat_bits[c] and pos[c] >= 0:
                    unsat_bits[c] = 1
                    break
            else:
                size = len(unsat)
                bits = size.bit_length()
                r = getrandbits(bits)
                while r >= size:
                    r = getrandbits(bits)
                c = unsat[r]
            r = getrandbits(k_bits)
            while r >= k:
                r = getrandbits(k_bits)
            v = clause_vars[c][r]
        de = breaks[v] - makes[v]
        chaining = False
        if de == 0 or (de < 0 and random_() < p1):
            lit = v if assign[v] else -v
            for c in occ[lit]:
                x = nt[c] - 1
                nt[c] = x
                t = tsum[c] - v
                tsum[c] = t
                if x == 1:
                    breaks[t] += 1
                elif x == 0:
                    breaks[v] -= 1
                    for w in clause_vars[c]:
                        makes[w] += 1
                    pos[c] = len(unsat)
                    unsat.append(c)
                    if not unsat_bits[c]:
                        heappush(heap, rank_pos[c] * m + c)
            for c in occ[-lit]:
                x = nt[c]
                nt[c] = x + 1
                t = tsum[c]
                tsum[c] = t + v
                if x == 1:
                    breaks[t] -= 1
                elif x == 0:
                    breaks[v] += 1
                    for w in clause_vars[c]:
                        makes[w] -= 1
                    i = pos[c]
                    last = unsat[-1]
                    unsat[i] = last
                    pos[last] = i
                    unsat.pop()
                    pos[c] = -1
            assign[v] = not assign[v]
            flips += 1
            if trajectory is not None:
                trajectory.append(len(unsat))
        elif de > 0 and random_() < chain_p:
            # the clauses v alone satisfies, breaks[v] >= 1 of them among
            # v's true occurrences: the best-ranked unvisited one, else the
            # r-th, found by a scan that stops there
            occurrences = occ[v if assign[v] else -v]
            best = -1
            if rank_pos is not None:
                best_rank = m + 1
                for c in occurrences:
                    if nt[c] == 1 and not sat_bits[c] and rank_pos[c] < best_rank:
                        best_rank = rank_pos[c]
                        best = c
            if best >= 0:
                sat_bits[best] = 1
                c = best
            else:
                size = breaks[v]
                bits = size.bit_length()
                r = getrandbits(bits)
                while r >= size:
                    r = getrandbits(bits)
                left = r
                for c in occurrences:
                    if nt[c] == 1:
                        if not left:
                            break
                        left -= 1
                else:  # the kept counts disagree with the clauses
                    raise RuntimeError(
                        f"variable {v} keeps {size} breaks but no critical clause number {r + 1}"
                    )
            key = c * n1 + v
            others = others_of.get(key)
            if others is None:
                others = others_of[key] = [w for w in clause_vars[c] if w != v]
            if others:
                size = len(others)
                bits = size.bit_length()
                r = getrandbits(bits)
                while r >= size:
                    r = getrandbits(bits)
                v = others[r]
                chaining = True
            # no handoff available: stay unchained, the cycle still counts
    return SolverResult(
        solved=not unsat,
        satisfied_clauses=m - len(unsat),
        flips=flips,
        evaluations=evaluations,
        assignment=tuple(assign[1:]),
        formula_sha256=digest,
        unsat_trajectory=tuple(trajectory) if trajectory is not None else None,
    )


def chainsat(
    formula: Formula,
    p1: float | None = None,
    p2: float | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    record_trajectory: bool = False,
) -> SolverResult:
    """Base algorithm: uniform random clause picks."""
    return solve(formula, "chainsat", None, p1, p2, budget, seed, record_trajectory)


def lc_chainsat(
    formula: Formula,
    order: ClauseOrder,
    p1: float | None = None,
    p2: float | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    record_trajectory: bool = False,
) -> SolverResult:
    """Ordered picks with one visited-bit array shared by both pick sites."""
    return solve(formula, "lc", order, p1, p2, budget, seed, record_trajectory)


def nlc_chainsat(
    formula: Formula,
    order: ClauseOrder,
    p1: float | None = None,
    p2: float | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    record_trajectory: bool = False,
) -> SolverResult:
    """Ordered picks with separate visited-bit arrays per pick site."""
    return solve(formula, "nlc", order, p1, p2, budget, seed, record_trajectory)


def verify_result(formula: Formula, result: SolverResult) -> bool:
    """Independent check: re-evaluate the final assignment clause by clause."""
    satisfied, unsat = evaluate(formula, result.assignment)
    return result.solved == (not unsat) and satisfied == result.satisfied_clauses


def totals(results) -> tuple[int, int, int]:
    """Solved runs, satisfied clauses and flips, each summed over ``results``."""
    return (
        sum(r.solved for r in results),
        sum(r.satisfied_clauses for r in results),
        sum(r.flips for r in results),
    )


def compare(a, b) -> str:
    """Lexicographic verdict over two result sets on the same instances:
    more solved wins, then more clauses satisfied on average, then fewer
    flips; otherwise a tie."""
    a = list(a)
    b = list(b)
    if not a or len(a) != len(b):
        raise ValueError("result sets must be non-empty and the same length")
    for ra, rb in zip(a, b):
        if ra.formula_sha256 != rb.formula_sha256:
            raise ValueError("result sets cover different instances")
    # equal lengths, so more satisfied in total is more on average
    key_a, key_b = ((solved, satisfied, -flips) for solved, satisfied, flips in map(totals, (a, b)))
    if key_a == key_b:
        return TIE
    return A_BETTER if key_a > key_b else B_BETTER
