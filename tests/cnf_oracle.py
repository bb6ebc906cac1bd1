"""Reference random generator kept as a test oracle.

This is the straightforward generation: one ``rng.choice(n, size=k,
replace=False)`` call and one ``rng.random(k)`` call per clause, on the same
``Generator(PCG64(seed))``.  ``satbec.cnf.generate_random`` replays the
draws of these calls with one ``rng.integers`` call and decodes the clauses
itself; the two must give equal formulas.
"""

from __future__ import annotations

import numpy as np

from satbec.cnf import Formula


def reference_generate(seed: int, k: int, n: int, m: int) -> Formula:
    """Random k-SAT formula drawn clause by clause (arguments as checked by
    ``generate_random``)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    variables = np.empty((m, k), dtype=np.int64)
    polarity = np.empty((m, k))
    for c in range(m):
        variables[c] = rng.choice(n, size=k, replace=False) + 1
        polarity[c] = rng.random(k)
    signed = np.where(polarity < 0.5, -variables, variables).tolist()
    return Formula(n=n, clauses=tuple(map(tuple, signed)))


def reference_floyd(draws, k: int, n: int) -> list[int]:
    """One row of ``satbec.cnf._floyd`` step by step: Floyd's sampling by the
    first k draws, then numpy's shuffle of the picks by the other k - 1."""
    picks: list[int] = []
    for t, d in enumerate(draws[:k]):
        picks.append(n - k + t if d in picks else d)
    for i, j in zip(range(k - 1, 0, -1), draws[k:]):
        picks[i], picks[j] = picks[j], picks[i]
    return picks


def reference_tail_shuffle(row, k: int, n: int) -> list[int]:
    """One row of ``satbec.cnf._tail_shuffle`` on the whole range: numpy's
    tail shuffle swaps position n-1-t of ``list(range(n))`` with ``row[t]``;
    its last k positions are the picks."""
    values = list(range(n))
    for t, j in enumerate(row):
        values[n - 1 - t], values[j] = values[j], values[n - 1 - t]
    return values[n - k :]
