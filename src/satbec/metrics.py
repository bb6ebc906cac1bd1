"""Clause distance.

Distance between equal-length clauses counts how many literal slots cannot
be matched across the two multisets of signed literals; a variable ``x`` and
its negation ``-x`` are distinct literals.  It is computed on the clause
tuples themselves, with one exact multiset path for every pair.  A node's
fitness and energy are columns of ``graph.NodeColumns``, and its energy level
is its raw fitness (see ``graph.particle_spectrum``).
"""

from __future__ import annotations


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

