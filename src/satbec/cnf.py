"""CNF data model, DIMACS round-trip, random generation, evaluation.

A clause is the tuple of its signed DIMACS ints, the form every kernel reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np


class DimacsError(ValueError):
    """Raised on malformed DIMACS input.  ``kind`` identifies the failure."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class Clause:
    """A clause as the tuple of its signed DIMACS ints: ``x`` is the variable
    x and ``-x`` its negation.

    The set of distinct literals is computed on first use and cached on the
    instance.  The cache is not a field: it takes no part in equality,
    hashing or ``repr``, and it is dropped when the clause is pickled.
    """

    literals: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.literals)

    @cached_property
    def literal_set(self) -> frozenset[int]:
        """Distinct signed literals; smaller than ``k`` when a literal repeats."""
        return frozenset(self.literals)

    def __getstate__(self):
        return {"literals": self.literals}

    def variables(self) -> tuple[int, ...]:
        return tuple(map(abs, self.literals))

    @staticmethod
    def from_signed(values) -> "Clause":
        literals = tuple(values)
        if 0 in literals:
            raise ValueError("0 is not a literal")
        return Clause(literals)

    def __str__(self) -> str:
        return " ".join(map(str, self.literals))


@dataclass(frozen=True)
class Formula:
    """A CNF formula.

    Its ``formula_sha256`` digest and ``duplicate_vars`` are computed on
    first use and cached on the instance, like ``Clause``'s literal set: not
    fields, and dropped when the formula is pickled.
    """

    n: int
    k: int
    clauses: tuple[Clause, ...]

    @property
    def m(self) -> int:
        return len(self.clauses)

    @cached_property
    def duplicate_vars(self) -> bool:
        """Whether some clause repeats a variable, with either sign; parsed
        formulas may, generated formulas never do."""
        return any(len(set(clause.variables())) < clause.k for clause in self.clauses)

    @cached_property
    def _sha256(self) -> str:
        return hashlib.sha256(serialize_dimacs(self).encode("utf-8")).hexdigest()

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def alpha(self) -> float:
        return self.m / self.n


@dataclass(frozen=True)
class Assignment:
    values: tuple[bool, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    def value(self, variable: int) -> bool:
        return self.values[variable - 1]

    def satisfies(self, literal: int) -> bool:
        return self.values[abs(literal) - 1] == (literal > 0)


def parse_dimacs(text) -> Formula:
    """Parse DIMACS CNF text (str or bytes) into a Formula.

    Comment lines start with 'c'; a line starting with '%' ends the input.
    Clauses may span lines and are 0-terminated.  Clause lengths must be
    uniform.  A clause that repeats a variable is accepted; the formula's
    ``duplicate_vars`` then reads True.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = None
    tokens: list[int] = []
    clauses: list[Clause] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if n is not None:
                raise DimacsError("header", "malformed header: duplicate 'p' line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError("header", f"malformed header: {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError("header", f"malformed header: {line!r}") from None
            if n < 0 or m < 0:
                raise DimacsError("header", "malformed header: negative counts")
            continue
        if n is None:
            raise DimacsError("header", "malformed header: clause data before 'p' line")
        for tok in line.split():
            try:
                value = int(tok)
            except ValueError:
                raise DimacsError("token", f"invalid literal token {tok!r}") from None
            if value == 0:
                clauses.append(Clause(tuple(tokens)))
                tokens = []
            else:
                if abs(value) > n:
                    raise DimacsError("range", f"literal {value} out of range for n={n}")
                tokens.append(value)

    if n is None:
        raise DimacsError("header", "malformed header: missing 'p' line")
    if tokens:
        raise DimacsError("unterminated", "unterminated clause at end of input")
    if len(clauses) != m:
        raise DimacsError(
            "count", f"clause count mismatch: header says {m}, found {len(clauses)}"
        )
    k = clauses[0].k if clauses else 0
    if any(c.k != k for c in clauses):
        raise DimacsError("length", "non-uniform clause length")
    return Formula(n=n, k=k, clauses=tuple(clauses))


def serialize_dimacs(formula: Formula) -> str:
    """Canonical DIMACS text: header line, one clause per line, no comments."""
    lines = [f"p cnf {formula.n} {formula.m}"]
    for clause in formula.clauses:
        lines.append(f"{clause} 0")
    return "\n".join(lines) + "\n"


def formula_sha256(formula: Formula) -> str:
    """sha256 of the canonical DIMACS text."""
    return formula._sha256


def generate_random(seed: int, k: int, n: int, m: int) -> Formula:
    """Uniform random k-SAT formula: each clause draws k distinct variables
    and independent random polarities."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"cannot draw {k} distinct variables from {n}")
    if m < 0:
        raise ValueError("m must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    variables = np.empty((m, k), dtype=np.int64)
    polarity = np.empty((m, k))
    for c in range(m):
        variables[c] = rng.choice(n, size=k, replace=False) + 1
        polarity[c] = rng.random(k)
    signed = np.where(polarity < 0.5, -variables, variables).tolist()
    return Formula(n=n, k=k, clauses=tuple(Clause(tuple(lits)) for lits in signed))


def evaluate(formula: Formula, assignment: Assignment) -> tuple[int, list[int]]:
    """Return (number of satisfied clauses, indices of unsatisfied clauses)."""
    if assignment.n != formula.n:
        raise ValueError(
            f"assignment length {assignment.n} does not match n={formula.n}"
        )
    unsat = [
        i
        for i, clause in enumerate(formula.clauses)
        if not any(map(assignment.satisfies, clause.literals))
    ]
    return formula.m - len(unsat), unsat


def clause_code_array(formula: Formula) -> np.ndarray:
    """(m, k) int array of dense literal codes in [0, 2n), used by the numeric
    kernels: x -> 2(x-1) and -x -> 2(x-1)+1, read from the clauses' signed
    ints."""
    signed = np.array(
        [clause.literals for clause in formula.clauses], dtype=np.int64
    ).reshape(formula.m, formula.k)
    return 2 * (np.abs(signed) - 1) + (signed < 0)
