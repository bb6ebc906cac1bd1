"""Clause distance, the per-node fitness record, and energy levels.

Distance between equal-length clauses counts how many literal slots cannot
be matched across the two multisets of signed literals; a variable ``x`` and
its negation ``-x`` are distinct literals.  The distance is computed from
each clause's cached set of distinct literals; only a pair in which both
clauses repeat a literal needs the multiset count, and both ways give the
same value.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cnf import Clause

# two energies within this tolerance sit on the same level
ENERGY_LEVEL_TOL = 1e-9


def clause_distance(a: Clause, b: Clause) -> int:
    """k minus the size of the multiset intersection of the literal multisets.

    A shared literal counts min(times in a, times in b), which is 1 whenever
    either clause holds it once.  So when at least one clause repeats no
    literal, the multiset intersection has the size of the intersection of
    the cached literal sets.  Only a pair in which both clauses repeat a
    literal, such as (1, 1, 2) against (1, 1, 3), takes the multiset path.
    A clause that repeats a variable with opposite signs, such as
    (1, -1, 2), holds distinct literals and takes the set path.
    """
    k = a.k
    if k != b.k:
        raise ValueError(f"clause lengths differ: {k} vs {b.k}")
    sa, sb = a.literal_set, b.literal_set
    if len(sa) == k or len(sb) == k:
        return k - len(sa & sb)
    shared = sum((Counter(a.literals) & Counter(b.literals)).values())
    return k - shared


@dataclass(frozen=True)
class FitnessRecord:
    raw: int
    normalized: float
    energy: float


def group_energy_levels(
    energies, tol: float = ENERGY_LEVEL_TOL
) -> list[list[int]]:
    """Group indices of ``energies`` into levels, ascending.

    Values are chained into one level while consecutive sorted values differ
    by at most ``tol``.  Within a level, indices are sorted ascending.
    """
    order = sorted(range(len(energies)), key=lambda i: (energies[i], i))
    groups: list[list[int]] = []
    prev = None
    for idx in order:
        value = energies[idx]
        if prev is None or value - prev > tol:
            groups.append([idx])
        else:
            groups[-1].append(idx)
        prev = value
    for group in groups:
        group.sort()
    return groups
