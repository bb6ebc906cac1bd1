"""CNF data model, DIMACS round-trip, random generation, evaluation.

A formula is its variable count ``n`` and a tuple of clauses, each clause the
tuple of its signed DIMACS ints: ``x`` is the variable x and ``-x`` its
negation.  ``Formula`` checks its clauses once, on construction.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np


# the 32-bit range in which DIMACS solvers read a literal and the header's
# counts, so every formula written stays readable: the cap on n, and on m
# where it is drawn
MAX_COUNT = 2**31 - 1


class DimacsError(ValueError):
    """Raised on malformed DIMACS input."""


def _plain_integers(text: str) -> bool:
    """False when ``text`` holds a character with which ``int`` reads a token
    that is not an ASCII decimal integer: a '+' sign, a '_' digit separator
    or a non-ASCII digit."""
    return text.isascii() and "_" not in text and "+" not in text


def is_count(value, minimum: int = 0) -> bool:
    """Whether ``value`` is an exact ``int`` (a bool does not count) of at
    least ``minimum``: the one test of every count, seed and budget."""
    return type(value) is int and value >= minimum


def is_real(value) -> bool:
    """Whether ``value`` is an ``int`` or a ``float`` (numpy floats count;
    bools and numpy ints do not) that a float holds finitely, so no NaN,
    infinity or huge int: the one test of every real setting and column."""
    big = sys.float_info.max
    return (type(value) is int or isinstance(value, float)) and -big <= value <= big


@dataclass(frozen=True)
class Formula:
    """A CNF formula: n >= 0 variables and a tuple of clause tuples of one
    length k >= 1, whose literals are nonzero ints in [-n, n].

    Its ``formula_sha256`` digest, ``duplicate_vars`` and ``literal_tables``
    are computed on first use and cached on the instance: not fields, and
    dropped when the formula is pickled.  The tables give each distinct
    signed literal an id, the number of distinct literals before its first
    occurrence, scanning the clauses in order.
    """

    n: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, clauses = self.n, self.clauses
        if not (is_count(n) and n <= MAX_COUNT):
            raise ValueError(f"n must be an int >= 0 and <= {MAX_COUNT}, got {n!r}")
        # lists would leave the formula unhashable and unequal to its parse
        if type(clauses) is not tuple or not set(map(type, clauses)) <= {tuple}:
            raise ValueError("clauses must be a tuple of tuples")
        lengths = set(map(len, clauses))
        if len(lengths) > 1:
            raise ValueError("non-uniform clause length")
        if 0 in lengths:
            raise ValueError("clauses must have at least one literal")
        # by type first: a set holds True or 1.0 as the int 1
        if not set(map(type, chain.from_iterable(clauses))) <= {int}:
            raise ValueError("literals must be ints")
        literals = set().union(*clauses)
        if 0 in literals:
            raise ValueError("0 is not a literal")
        lo, hi = min(literals, default=0), max(literals, default=0)
        if lo < -n or hi > n:
            raise ValueError(f"literal {lo if lo < -n else hi} out of range for n={n}")

    @property
    def m(self) -> int:
        return len(self.clauses)

    @property
    def k(self) -> int:
        """Literals per clause; 0 when there is no clause."""
        return len(self.clauses[0]) if self.clauses else 0

    @cached_property
    def duplicate_vars(self) -> bool:
        """Whether some clause repeats a variable, with either sign; parsed
        formulas may, generated formulas never do."""
        return any(len(set(map(abs, clause))) < len(clause) for clause in self.clauses)

    @cached_property
    def literal_tables(self) -> tuple[tuple, tuple]:
        """Each clause's literal ids, one per slot, and per id every clause
        holding that literal with how many times it does, in index order:
        the rows and holders that every build of this formula reads."""
        ids: dict[int, int] = {}
        rows = tuple([tuple([ids.setdefault(x, len(ids)) for x in c]) for c in self.clauses])
        holders = [[] for _ in ids]
        for clause, row in enumerate(rows):
            for literal in row:
                held = holders[literal]
                if held and held[-1][0] == clause:  # the clause repeats it
                    held[-1] = (clause, held[-1][1] + 1)
                else:
                    held.append((clause, 1))
        return rows, tuple(map(tuple, holders))

    @cached_property
    def _sha256(self) -> str:
        return hashlib.sha256(serialize_dimacs(self).encode("utf-8")).hexdigest()

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    Comment lines start with 'c'; a line starting with '%' ends the input.
    Clauses may span lines and are 0-terminated.  Every count and literal is
    an ASCII decimal integer, a literal with an optional leading '-'.  A
    clause that repeats a variable is accepted; the formula's
    ``duplicate_vars`` then reads True.  A formula that ``Formula`` rejects
    is a ``DimacsError``.
    """
    plain = _plain_integers(text)  # then no line needs the check
    n = m = None
    tokens: list[int] = []
    clauses: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if n is not None:
                raise DimacsError("malformed header: duplicate 'p' line")
            parts = line.split()
            if len(parts) != 4 or parts[:2] != ["p", "cnf"] or not _plain_integers(line):
                raise DimacsError(f"malformed header: {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header: {line!r}") from None
            if n < 0 or m < 0:
                raise DimacsError("malformed header: negative counts")
            continue
        if n is None:
            raise DimacsError("malformed header: clause data before 'p' line")
        if not plain and not _plain_integers(line):
            bad = next(c for c in line if not _plain_integers(c))
            raise DimacsError(f"invalid character {bad!r} in clause data")
        for tok in line.split():
            try:
                value = int(tok)
            except ValueError:
                raise DimacsError(f"invalid literal token {tok!r}") from None
            if value == 0:
                clauses.append(tuple(tokens))
                tokens = []
            else:
                tokens.append(value)

    if n is None:
        raise DimacsError("malformed header: missing 'p' line")
    if tokens:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != m:
        raise DimacsError(f"clause count mismatch: header says {m}, found {len(clauses)}")
    try:
        return Formula(n=n, clauses=tuple(clauses))
    except ValueError as exc:
        raise DimacsError(str(exc)) from None


def serialize_dimacs(formula: Formula) -> str:
    """Canonical DIMACS text: header line, one clause per line, no comments."""
    # literals are exact ints, so %d writes each as str does
    body = ("%d " * formula.k + "0\n") * formula.m % tuple(chain.from_iterable(formula.clauses))
    return f"p cnf {formula.n} {formula.m}\n" + body


def formula_sha256(formula: Formula) -> str:
    """sha256 of the canonical DIMACS text."""
    return formula._sha256


def generate_random(seed: int, k: int, n: int, m: int) -> Formula:
    """Uniform random k-SAT formula: each clause draws k distinct variables
    and independent random polarities.

    Stream contract: the formula is the one that clause-by-clause calls of
    ``rng.choice(n, size=k, replace=False)`` and ``rng.random(k)`` give on a
    ``Generator(PCG64(seed))``.  Every draw of those calls is one bounded
    integer draw on the generator, so a single ``rng.integers`` call over the
    same bounds replays them, and the clauses are decoded from its output:

    - n <= 10,000 or k <= n // 50: Floyd's sampling (Bentley and Floyd,
      CACM 30(9), 1987), whose step t draws from [0, n-k+t] and takes n-k+t
      when an earlier pick of the clause equals the draw; then numpy swaps
      pick i with a draw from [0, i] for i = k-1, ..., 1;
    - otherwise: a tail shuffle of range(n), swapping position i with a draw
      from [0, i] for i = n-1, ..., max(n-k, 1); the last k positions are
      the picks;
    - then k 64-bit words, a literal being negative iff its word is below
      2^63, which is ``random() < 0.5``.

    This holds on the installed numpy; under NEP 19 numpy does not promise
    the ``choice`` stream across versions.  The pinned digests and the
    reference generator in the tests catch any drift.
    """
    if not is_count(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if not (is_count(n, 1) and n <= MAX_COUNT):
        raise ValueError(f"n must be an int >= 1 and <= {MAX_COUNT}, got {n!r}")
    if not is_count(k, 1):
        raise ValueError(f"k must be an int >= 1, got {k!r}")
    if k > n:
        raise ValueError(f"cannot draw {k} distinct variables from {n}")
    if not (is_count(m) and m <= MAX_COUNT):
        raise ValueError(f"m must be an int >= 0 and <= {MAX_COUNT}, got {m!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    tail = n > 10_000 and k > n // 50
    if tail:
        pick_bounds = np.arange(n - 1, max(n - k, 1) - 1, -1, dtype=np.uint64)
    else:
        pick_bounds = np.concatenate(
            (np.arange(n - k, n, dtype=np.uint64), np.arange(k - 1, 0, -1, dtype=np.uint64))
        )
    bounds = np.concatenate((pick_bounds, np.full(k, 2**64 - 1, dtype=np.uint64)))
    draws = rng.integers(0, np.tile(bounds, m), dtype=np.uint64, endpoint=True)
    draws = draws.reshape(m, len(bounds))
    pick_draws = draws[:, : len(pick_bounds)].astype(np.int64)
    decode = _tail_shuffle if tail else _floyd
    variables = decode(pick_draws, k, n) + 1
    negative = draws[:, len(pick_bounds) :] < np.uint64(2**63)
    signed = np.where(negative, -variables, variables).tolist()
    return Formula(n=n, clauses=tuple(map(tuple, signed)))


def _floyd(draws: np.ndarray, k: int, n: int) -> np.ndarray:
    """Each row's k Floyd picks from its first k draws, shuffled by the other
    k - 1: step t keeps its draw unless an earlier pick equals it, else takes
    n-k+t; then pick i = k-1, ..., 1 swaps with the pick its draw names."""
    picks = draws[:, :k].copy()
    for t in range(1, k):
        picks[(picks[:, :t] == picks[:, t : t + 1]).any(axis=1), t] = n - k + t
    rows = np.arange(len(picks))
    for i, j in zip(range(k - 1, 0, -1), draws[:, k:].T):
        picks[rows, i], picks[rows, j] = picks[rows, j], picks[rows, i]
    return picks


def _tail_shuffle(draws: np.ndarray, k: int, n: int) -> np.ndarray:
    """The last k entries of range(n) after each row's swaps of position
    n-1-t with position ``draws[:, t]``, by a sparse Fisher-Yates: a dict
    holds the positions the row has swapped, and any other i still holds i."""
    tails = []
    for row in draws.tolist():
        held = {}
        for t, j in enumerate(row):
            i = n - 1 - t
            held[i], held[j] = held.get(j, j), held.get(i, i)
        tails.append([held.get(i, i) for i in range(n - k, n)])
    return np.array(tails, dtype=np.int64).reshape(len(draws), k)


def evaluate(formula: Formula, values) -> tuple[int, list[int]]:
    """Return (number of satisfied clauses, indices of unsatisfied clauses)
    under ``values``, the truth values of variables 1..n in order."""
    if len(values) != formula.n:
        raise ValueError(f"assignment length {len(values)} does not match n={formula.n}")
    true = {v if value else -v for v, value in enumerate(values, 1)}
    unsat = [i for i, clause in enumerate(formula.clauses) if true.isdisjoint(clause)]
    return formula.m - len(unsat), unsat
