"""Clause network model, its build settings, and its particle-spectrum view.

Nodes are clauses of one formula, added in a recorded insertion order.  A
graph is one frozen record of node and edge columns: per node the clause's
final raw fitness, normalized fitness eta and energy -T ln eta, as in the
Bianconi-Barabasi fitness model, plus a real-valued connectivity and its
link events.  Edges are simple; repeated link events between the same pair
raise a multiplicity counter and keep the weight of the first event.  Every
link event deposits one particle on each endpoint, so a node's particle
count is its total number of endpoint events and the graph conserves 2 x
(link events) particles overall.

The fields of ``NodeColumns``, ``EdgeColumns`` and ``ClauseGraph`` are the
graph JSON keys, and ``BuilderConfig`` is the one check of the build settings
a graph header records.  ``json_text`` is the layout of every JSON artifact,
``json.dumps`` with sorted keys and a two-space indent; ``graph_to_json``
writes the same layout with one template per node and edge row.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, fields
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter, ne
from typing import NamedTuple

import numpy as np

from .cnf import MAX_COUNT, is_count, is_real

MODE_S2G = "s2g"
MODE_S2GPA = "s2gpa"
MODES = (MODE_S2G, MODE_S2GPA)

FIRST_RANDOM = "random"
FIRST_FITTEST = "fittest"
FIRST_CLAUSE_RULES = (FIRST_RANDOM, FIRST_FITTEST)

DEFAULT_THETA = 0.33
DEFAULT_RHO = 1
DEFAULT_TEMPERATURE = 1.0

_SHA256 = re.compile("[0-9a-f]{64}")


@dataclass(frozen=True)
class BuilderConfig:
    """The build settings; construction is the one check of their values."""

    mode: str = MODE_S2G
    temperature: float = DEFAULT_TEMPERATURE
    theta: float = DEFAULT_THETA
    rho: int = DEFAULT_RHO
    seed: int = 0
    first_clause_rule: str = FIRST_RANDOM

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (is_real(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be positive and finite")
        if not (is_real(self.theta) and 0.0 < self.theta < 1.0):
            raise ValueError("theta must lie strictly between 0 and 1")
        if not (is_count(self.rho, 1) and self.rho <= MAX_COUNT):
            raise ValueError(f"rho must be an int >= 1 and <= {MAX_COUNT}, got {self.rho!r}")
        if not is_count(self.seed):
            raise ValueError("seed must be a non-negative integer")
        if self.first_clause_rule not in FIRST_CLAUSE_RULES:
            raise ValueError(f"unknown first-clause rule {self.first_clause_rule!r}")


def fitness_columns(raw: np.ndarray, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized fitness ``raw / max(raw)`` and energy ``-T ln`` of it for a raw
    fitness column; an energy too large for a float is inf, with no warning."""
    normalized = raw / int(raw.max())
    with np.errstate(over="ignore"):
        return normalized, -temperature * np.log(normalized) + 0.0


class NodeColumns(NamedTuple):
    """One tuple per node field, each in insertion order."""

    clause: tuple[int, ...]
    raw_fitness: tuple[int, ...]
    normalized_fitness: tuple[float, ...]
    energy: tuple[float, ...]
    connectivity: tuple[float, ...]
    in_events: tuple[int, ...]
    out_events: tuple[int, ...]


class EdgeColumns(NamedTuple):
    """One tuple per edge field, each sorted by the pair ``(u, v)``."""

    u: tuple[int, ...]
    v: tuple[int, ...]
    weight: tuple[float, ...]
    multiplicity: tuple[int, ...]


@dataclass(frozen=True)
class ClauseGraph:
    mode: str
    temperature: float
    theta: float | None
    rho: int | None
    seed: int
    first_clause_rule: str
    n: int
    k: int
    formula_sha256: str
    nodes: NodeColumns
    edges: EdgeColumns

    @property
    def m(self) -> int:
        return len(self.nodes.clause)

    @property
    def insertion_order(self) -> list[int]:
        return list(self.nodes.clause)

    @property
    def link_events(self) -> int:
        return sum(self.edges.multiplicity)

    @property
    def total_particles(self) -> int:
        return sum(self.nodes.in_events) + sum(self.nodes.out_events)


def _transpose(rows, width: int) -> tuple[tuple, ...]:
    """The ``width`` columns of ``rows``, each a tuple; empty ones for no rows."""
    return tuple(zip(*rows)) or ((),) * width


@dataclass(frozen=True)
class EnergyState:
    """One degeneration state: a node and the particles it holds."""

    clause: int
    particles: int


@dataclass(frozen=True)
class EnergyLevel:
    energy: float
    states: tuple[EnergyState, ...]

    @property
    def particles(self) -> int:
        return sum(state.particles for state in self.states)


@dataclass(frozen=True)
class EnergySpectrum:
    levels: tuple[EnergyLevel, ...]

    @property
    def total_particles(self) -> int:
        return sum(level.particles for level in self.levels)


def particle_spectrum(graph: ClauseGraph) -> EnergySpectrum:
    """Energy levels with their particle loads, one level per raw fitness.

    Energy T ln(max / raw) falls strictly as raw fitness rises, so the levels
    run from the highest fitness (the lowest energy) down at every
    temperature.  A level's states are its nodes sorted by clause, and its
    energy is the least of theirs."""
    nodes = graph.nodes
    raw, clause, energy = nodes.raw_fitness, nodes.clause, nodes.energy
    particles = list(map(add, nodes.in_events, nodes.out_events))
    order = sorted(range(len(clause)), key=lambda i: (-raw[i], clause[i]))
    levels = []
    for _, members in groupby(order, key=raw.__getitem__):
        members = list(members)
        # from a list: tuples grown from generators kept a long run's peak memory rising
        states = tuple([EnergyState(clause[i], particles[i]) for i in members])
        levels.append(EnergyLevel(energy=min(map(energy.__getitem__, members)), states=states))
    return EnergySpectrum(levels=tuple(levels))


def export_dot(graph: ClauseGraph) -> str:
    """Undirected DOT text; node labels carry clause index and energy, edge
    labels carry the establishing weight."""
    lines = ["graph clause_network {"]
    for clause, energy in zip(graph.nodes.clause, graph.nodes.energy):
        lines.append(f'  c{clause} [label="C{clause} E={energy!r}"];')
    for u, v, weight, multiplicity in zip(*graph.edges):
        repeats = f" x{multiplicity}" if multiplicity > 1 else ""
        lines.append(f'  c{u} -- c{v} [label="{weight!r}{repeats}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_ROW_BREAK = "\n    "  # a table row's line break and indent in the text


def _record_rows(keys, columns) -> list[str] | None:
    """The JSON texts of the records whose sorted ``keys`` hold ``columns``,
    each written by one %r template, when every column holds only exact ints
    and finite floats, whose repr is their JSON text; None otherwise."""
    try:
        if not all(set(map(type, c)) <= {int, float} and all(map(math.isfinite, c))
                   for c in columns):
            return None
    except OverflowError:  # an int too large for a float
        return None
    pad = _ROW_BREAK + "  "
    template = ",".join(pad + encode_basestring_ascii(key).replace("%", "%%") + ": %r"
                        for key in keys)
    return list(map(("{" + template + _ROW_BREAK + "}").__mod__, zip(*columns)))


def json_text(payload) -> str:
    """The JSON artifact text of ``payload``: sorted keys, two-space indent,
    ASCII-only, one final newline; the layout of every JSON artifact and
    manifest."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _nested_text(value) -> str:
    """``json.dumps(value, indent=2)`` indented one level, the text of a
    value under a top-level key."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _table_text(table: dict) -> str:
    """The nested JSON text of the list of row dicts whose columns ``table``
    holds by key: one %r template per row, or ``json.dumps`` of the rows when
    ``_record_rows`` cannot write them or there are none."""
    keys, columns = zip(*sorted(table.items()))
    rows = _record_rows(keys, columns)
    if rows:
        return "[" + _ROW_BREAK + ("," + _ROW_BREAK).join(rows) + "\n  ]"
    return _nested_text([dict(zip(keys, row)) for row in zip(*columns)])


def graph_to_json(graph: ClauseGraph) -> str:
    """Stable-order JSON dump; identical graphs serialize byte-identically.

    The text is ``json_text`` of the header with ``m`` and the
    ``insertion_order``, and of the node and edge tables as lists of row
    dicts.  It is written key by key, each table row by one template, with
    no dict per node or edge."""
    nodes = graph.nodes
    particles = list(map(add, nodes.in_events, nodes.out_events))
    payload = {
        **vars(graph),
        "m": graph.m,
        "insertion_order": graph.insertion_order,
        "nodes": {**nodes._asdict(), "particles": particles},
        "edges": graph.edges._asdict(),
    }
    items = (f"\n  {json.dumps(key)}: "
             + (_table_text(value) if key in ("nodes", "edges") else _nested_text(value))
             for key, value in sorted(payload.items()))
    return "{" + ",".join(items) + "\n}\n"


# the graph JSON keys: a header of every graph field but the two tables, and
# in the tables every node column plus its particles, and every edge column
_HEADER_KEYS = tuple(f.name for f in fields(ClauseGraph))[:-2]
_NODE_KEYS = NodeColumns._fields + ("particles",)
_EDGE_KEYS = EdgeColumns._fields
# the table keys that hold floats (the rest hold ints), and each bounded key's least value
_FLOAT_KEYS = {"normalized_fitness", "energy", "connectivity", "weight"}
_LEAST = {"raw_fitness": 1, "in_events": 0, "out_events": 0, "multiplicity": 1}


def _check_numbers(key: str, values, integer: bool = False, minimum=None):
    """Raise ValueError unless every value is a finite number (an int when
    ``integer``) of at least ``minimum``.  Whole columns are checked at once
    so that loading stays cheap."""
    allowed = {int} if integer else {int, float}
    if not set(map(type, values)) <= allowed:
        bad = next(v for v in values if type(v) not in allowed)
        kind = "an integer" if integer else "a number"
        raise ValueError(f"graph JSON field {key!r} is not {kind}: {bad!r}")
    if not (integer or all(map(is_real, values))):
        raise ValueError(f"graph JSON field {key!r} holds a number that is not finite")
    if minimum is not None and values and min(values) < minimum:
        raise ValueError(f"graph JSON field {key!r} holds a value below {minimum}")


def _columns(rows, keys) -> dict[str, tuple]:
    """The columns of ``rows`` by key, each checked: a float key holds finite
    numbers, any other ints, and no key a value below its least."""
    columns = dict(zip(keys, _transpose(rows, len(keys))))
    for key, values in columns.items():
        _check_numbers(key, values, integer=key not in _FLOAT_KEYS, minimum=_LEAST.get(key))
    return columns


def _check_fitness(raw, normalized, energy, temperature):
    """Raise ValueError unless raw fitness gives the other two columns by
    ``fitness_columns``: the normalized fitness exactly, the energy within a
    relative 1e-12, as ``np.log`` may differ by an ulp between machines."""
    if not raw:
        return
    try:
        want_normalized, want_energy = fitness_columns(np.array(raw, np.int64), temperature)
    except OverflowError:
        raise ValueError("graph JSON field 'raw_fitness' holds a value no build writes") from None
    if not np.array_equal(want_normalized, normalized):
        raise ValueError("graph JSON node normalized_fitness differs from raw_fitness / max")
    if not np.isclose(energy, want_energy, rtol=1e-12, atol=0.0).all():
        raise ValueError("graph JSON node energy differs from temperature * ln(max / raw_fitness)")


def graph_from_json(text: str) -> ClauseGraph:
    """Parse graph JSON and check it against itself: numeric fields are
    finite numbers, the header holds settings ``BuilderConfig`` accepts (with
    a null theta and rho in mode s2g) and a sha256 digest, node clause
    indices are distinct and lie in [0, m), raw fitness is at least 1 and
    gives each node's normalized fitness and energy at the header
    temperature, each node's particles equal its in plus out events and the
    summed multiplicity of its edges, and every edge joins two distinct known
    nodes, once.  Raises ValueError otherwise."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"not valid graph JSON: {exc}") from None
    try:
        header = {key: payload[key] for key in _HEADER_KEYS}
        nodes = list(map(itemgetter(*_NODE_KEYS), payload["nodes"]))
        edges = list(map(itemgetter(*_EDGE_KEYS), payload["edges"]))
        declared_m = payload["m"]
        declared_order = payload["insertion_order"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph JSON missing or malformed field: {exc}") from None
    _check_numbers("n", (header["n"],), integer=True, minimum=1)
    _check_numbers("k", (header["k"],), integer=True, minimum=1)
    settings = {f.name: header[f.name] for f in fields(BuilderConfig)}
    if header["mode"] == MODE_S2G:  # s2g graphs carry no theta or rho
        if header["theta"] is not None or header["rho"] is not None:
            raise ValueError("graph JSON of mode 's2g' carries a theta or a rho")
        del settings["theta"], settings["rho"]
    try:
        BuilderConfig(**settings)
    except ValueError as exc:
        raise ValueError(f"graph JSON header holds settings no build writes: {exc}") from None
    digest = header["formula_sha256"]
    if type(digest) is not str or not _SHA256.fullmatch(digest):
        raise ValueError("graph JSON field 'formula_sha256' is not 64 lowercase hex digits")
    columns = _columns(nodes, _NODE_KEYS)
    particles = columns.pop("particles")
    if any(map(ne, particles, map(add, columns["in_events"], columns["out_events"]))):
        raise ValueError("graph JSON node particles differ from in_events + out_events")
    _columns(edges, _EDGE_KEYS)
    m = len(nodes)
    if declared_m != m or declared_order != list(columns["clause"]):
        raise ValueError("graph JSON is inconsistent with its node list")
    _check_numbers("m", (declared_m,), integer=True)
    _check_numbers("insertion_order", declared_order, integer=True)
    _check_fitness(columns["raw_fitness"], columns["normalized_fitness"], columns["energy"],
                   header["temperature"])
    # each node's link events, summed from its edges' multiplicities
    events = dict.fromkeys(columns["clause"], 0)
    if len(events) != m or (events and (min(events) < 0 or max(events) >= m)):
        raise ValueError(f"graph JSON node clause indices are not distinct values in [0, {m})")
    pairs = set()
    for a, b, _, mult in edges:
        if a == b or a not in events or b not in events:
            raise ValueError(f"graph JSON edge ({a}, {b}) does not join two known nodes")
        pair = (a, b) if a < b else (b, a)
        if pair in pairs:
            raise ValueError(f"graph JSON lists edge ({a}, {b}) twice")
        pairs.add(pair)
        events[a] += mult
        events[b] += mult
    if events != dict(zip(columns["clause"], particles)):
        raise ValueError("graph JSON node particles differ from the link events of its edges")
    edges.sort()  # the pairs are distinct, so only they are compared
    return ClauseGraph(**header, nodes=NodeColumns(**columns),
                       edges=EdgeColumns(*_transpose(edges, len(_EDGE_KEYS))))
