"""CNF data model, DIMACS round-trip, random generation, evaluation."""

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


@dataclass(frozen=True, order=True)
class Literal:
    variable: int
    negated: bool = False

    def __post_init__(self):
        if self.variable < 1:
            raise ValueError("variable index must be >= 1")

    @property
    def signed(self) -> int:
        return -self.variable if self.negated else self.variable

    @staticmethod
    def from_signed(value: int) -> "Literal":
        if value == 0:
            raise ValueError("0 is not a literal")
        return Literal(abs(value), value < 0)

    def __str__(self) -> str:
        return str(self.signed)


@dataclass(frozen=True)
class Clause:
    """A clause as a tuple of literals.

    The signed-int view and the set of distinct literals are computed on
    first use and cached on the instance.  The cache is not a field: it
    takes no part in equality, hashing or ``repr``, and it is dropped when
    the clause is pickled.
    """

    literals: tuple[Literal, ...]

    @property
    def k(self) -> int:
        return len(self.literals)

    @cached_property
    def _signed(self) -> tuple[int, ...]:
        return tuple(lit.signed for lit in self.literals)

    @cached_property
    def literal_set(self) -> frozenset[int]:
        """Distinct signed literals; smaller than ``k`` when a literal repeats."""
        return frozenset(self._signed)

    def signed(self) -> tuple[int, ...]:
        return self._signed

    def __getstate__(self):
        return {"literals": self.literals}

    def variables(self) -> tuple[int, ...]:
        return tuple(lit.variable for lit in self.literals)

    @staticmethod
    def from_signed(values) -> "Clause":
        return Clause(tuple(Literal.from_signed(v) for v in values))

    def __str__(self) -> str:
        return " ".join(str(lit) for lit in self.literals)


@dataclass(frozen=True)
class Formula:
    """A CNF formula.

    Its ``formula_sha256`` digest is computed on first use and cached on
    the instance, like ``Clause``'s signed view: not a field, and dropped
    when the formula is pickled.
    """

    n: int
    k: int
    clauses: tuple[Clause, ...]
    # set by the parser when some clause repeats a variable; generated
    # formulas never do
    duplicate_vars: bool = False

    @property
    def m(self) -> int:
        return len(self.clauses)

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

    def satisfies(self, literal: Literal) -> bool:
        return self.values[literal.variable - 1] != literal.negated


def parse_dimacs(text) -> Formula:
    """Parse DIMACS CNF text (str or bytes) into a Formula.

    Comment lines start with 'c'; a line starting with '%' ends the input.
    Clauses may span lines and are 0-terminated.  Clause lengths must be
    uniform.  A clause that repeats a variable is accepted but flags the
    formula with ``duplicate_vars``.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    n = m = None
    tokens: list[int] = []
    clauses: list[Clause] = []
    duplicate = False

    def close_clause(lits: list[int]):
        nonlocal duplicate
        clause = Clause.from_signed(lits)
        seen = clause.variables()
        if len(set(seen)) != len(seen):
            duplicate = True
        clauses.append(clause)

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
                close_clause(tokens)
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
    return Formula(n=n, k=k, clauses=tuple(clauses), duplicate_vars=duplicate)


def serialize_dimacs(formula: Formula) -> str:
    """Canonical DIMACS text: header line, one clause per line, no comments."""
    lines = [f"p cnf {formula.n} {formula.m}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(v) for v in clause.signed()) + " 0")
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
    clauses = []
    for _ in range(m):
        variables = rng.choice(n, size=k, replace=False) + 1
        negate = rng.random(k) < 0.5
        clauses.append(
            Clause(tuple(Literal(int(v), bool(s)) for v, s in zip(variables, negate)))
        )
    return Formula(n=n, k=k, clauses=tuple(clauses))


def evaluate(formula: Formula, assignment: Assignment) -> tuple[int, list[int]]:
    """Return (number of satisfied clauses, indices of unsatisfied clauses)."""
    if assignment.n != formula.n:
        raise ValueError(
            f"assignment length {assignment.n} does not match n={formula.n}"
        )
    unsat = [
        i
        for i, clause in enumerate(formula.clauses)
        if not any(assignment.satisfies(lit) for lit in clause.literals)
    ]
    return formula.m - len(unsat), unsat


def clause_code_array(formula: Formula) -> np.ndarray:
    """(m, k) int array of dense literal codes in [0, 2n), used by the numeric
    kernels: x -> 2(x-1) and -x -> 2(x-1)+1, from the cached signed view."""
    signed = np.array(
        [clause.signed() for clause in formula.clauses], dtype=np.int64
    ).reshape(formula.m, formula.k)
    return 2 * (np.abs(signed) - 1) + (signed < 0)
