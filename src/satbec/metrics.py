"""Clause distance and energy levels.

Distance between equal-length clauses counts how many literal slots cannot
be matched across the two multisets of signed literals; a variable ``x`` and
its negation ``-x`` are distinct literals.  It is computed on the clause
tuples themselves, with one exact multiset path for every pair.  A node's
fitness and energy are fields of ``graph.GraphNode``; the levels group those
energies.
"""

from __future__ import annotations

# two energies within this tolerance sit on the same level
ENERGY_LEVEL_TOL = 1e-9


def clause_distance(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """k minus the size of the multiset intersection of the literal multisets.

    Each literal of ``a`` that a copy of ``b`` still holds is struck from the
    copy once, so a shared literal counts min(times in a, times in b); what
    is left of the copy is the distance.  A clause that repeats a variable
    with opposite signs, such as (1, -1, 2), holds distinct literals.
    """
    if len(a) != len(b):
        raise ValueError(f"clause lengths differ: {len(a)} vs {len(b)}")
    rest = list(b)
    for lit in a:
        if lit in rest:
            rest.remove(lit)
    return len(rest)


def group_energy_levels(energies) -> list[list[int]]:
    """Group indices of ``energies`` into levels, ascending.

    Values are chained into one level while consecutive sorted values differ
    by at most ``ENERGY_LEVEL_TOL``.  Within a level, indices are sorted
    ascending.
    """
    order = sorted(range(len(energies)), key=lambda i: (energies[i], i))
    groups: list[list[int]] = []
    prev = None
    for idx in order:
        value = energies[idx]
        if prev is None or value - prev > ENERGY_LEVEL_TOL:
            groups.append([idx])
        else:
            groups[-1].append(idx)
        prev = value
    for group in groups:
        group.sort()
    return groups
