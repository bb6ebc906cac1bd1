"""Clause network model and its particle-spectrum view.

Nodes are clauses of one formula, added in a recorded insertion order.  Each
node carries the clause's final fitness record plus a real-valued
connectivity.  Edges are simple; repeated link events between the same pair
raise a multiplicity counter and keep the weight of the first event.  Every
link event deposits one particle on each endpoint, so a node's particle count
is its total number of endpoint events and the graph conserves
2 x (link events) particles overall.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from operator import add, itemgetter, ne

from .metrics import ENERGY_LEVEL_TOL, FitnessRecord, group_energy_levels

MODE_S2G = "s2g"
MODE_S2GPA = "s2gpa"
MODES = (MODE_S2G, MODE_S2GPA)

FIRST_RANDOM = "random"
FIRST_FITTEST = "fittest"
FIRST_CLAUSE_RULES = (FIRST_RANDOM, FIRST_FITTEST)

_SHA256 = re.compile("[0-9a-f]{64}")


@dataclass
class GraphNode:
    clause: int
    fitness: FitnessRecord
    connectivity: float
    in_events: int = 0
    out_events: int = 0

    @property
    def particles(self) -> int:
        return self.in_events + self.out_events


@dataclass(frozen=True)
class GraphEdge:
    u: int
    v: int
    weight: float
    multiplicity: int = 1


@dataclass
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
    nodes: list[GraphNode] = field(default_factory=list)
    edges: dict[tuple[int, int], GraphEdge] = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.nodes)

    @property
    def insertion_order(self) -> list[int]:
        return [node.clause for node in self.nodes]

    @property
    def link_events(self) -> int:
        return sum(edge.multiplicity for edge in self.edges.values())

    @property
    def total_particles(self) -> int:
        return sum(node.particles for node in self.nodes)


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


def particle_spectrum(graph: ClauseGraph, tol: float = ENERGY_LEVEL_TOL) -> EnergySpectrum:
    """Group nodes into energy levels (ascending) with their particle loads."""
    energies = [node.fitness.energy for node in graph.nodes]
    levels = []
    for members in group_energy_levels(energies, tol):
        states = tuple(
            EnergyState(clause=graph.nodes[i].clause, particles=graph.nodes[i].particles)
            for i in sorted(members, key=lambda i: graph.nodes[i].clause)
        )
        levels.append(EnergyLevel(energy=min(energies[i] for i in members), states=states))
    return EnergySpectrum(levels=tuple(levels))


def export_dot(graph: ClauseGraph) -> str:
    """Undirected DOT text; node labels carry clause index and energy, edge
    labels carry the establishing weight."""
    lines = ["graph clause_network {"]
    for node in graph.nodes:
        lines.append(f'  c{node.clause} [label="C{node.clause} E={node.fitness.energy!r}"];')
    for key in sorted(graph.edges):
        edge = graph.edges[key]
        label = f"{edge.weight!r}"
        if edge.multiplicity > 1:
            label += f" x{edge.multiplicity}"
        lines.append(f'  c{edge.u} -- c{edge.v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: ClauseGraph) -> str:
    """Stable-order JSON dump; identical graphs serialize byte-identically."""
    payload = {
        "mode": graph.mode,
        "temperature": graph.temperature,
        "theta": graph.theta,
        "rho": graph.rho,
        "seed": graph.seed,
        "first_clause_rule": graph.first_clause_rule,
        "n": graph.n,
        "k": graph.k,
        "m": graph.m,
        "formula_sha256": graph.formula_sha256,
        "insertion_order": graph.insertion_order,
        "nodes": [
            {
                "clause": node.clause,
                "raw_fitness": node.fitness.raw,
                "normalized_fitness": node.fitness.normalized,
                "energy": node.fitness.energy,
                "connectivity": node.connectivity,
                "in_events": node.in_events,
                "out_events": node.out_events,
                "particles": node.particles,
            }
            for node in graph.nodes
        ],
        "edges": [
            {
                "u": edge.u,
                "v": edge.v,
                "weight": edge.weight,
                "multiplicity": edge.multiplicity,
            }
            for key, edge in sorted(graph.edges.items())
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_NODE_KEYS = (
    "clause",
    "raw_fitness",
    "normalized_fitness",
    "energy",
    "connectivity",
    "in_events",
    "out_events",
    "particles",
)
_EDGE_KEYS = ("u", "v", "weight", "multiplicity")


def _check_numbers(key: str, values, integer: bool = False, minimum=None):
    """Raise ValueError unless every value is a finite number (an int when
    ``integer``) of at least ``minimum``.  Whole columns are checked at once
    so that loading stays cheap."""
    allowed = {int} if integer else {int, float}
    if not set(map(type, values)) <= allowed:
        bad = next(v for v in values if type(v) not in allowed)
        kind = "an integer" if integer else "a number"
        raise ValueError(f"graph JSON field {key!r} is not {kind}: {bad!r}")
    if not integer:
        try:
            finite = all(map(math.isfinite, values))
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ValueError(f"graph JSON field {key!r} holds a number that is not finite")
    if minimum is not None and values and min(values) < minimum:
        raise ValueError(f"graph JSON field {key!r} holds a value below {minimum}")


def graph_from_json(text: str) -> ClauseGraph:
    """Parse graph JSON and check it against itself: numeric fields are
    finite numbers, the header holds values a build can write, node clause
    indices are distinct and lie in [0, m), each node's particles equal its
    in plus out events, and every edge joins two distinct known nodes, once.
    Raises ValueError otherwise."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid graph JSON: {exc}") from None
    try:
        _check_numbers("temperature", (payload["temperature"],))
        _check_numbers("seed", (payload["seed"],), integer=True, minimum=0)
        _check_numbers("n", (payload["n"],), integer=True, minimum=1)
        _check_numbers("k", (payload["k"],), integer=True, minimum=1)
        if payload["temperature"] <= 0:
            raise ValueError("graph JSON field 'temperature' is not positive")
        theta, rho = payload["theta"], payload["rho"]
        if theta is not None:
            _check_numbers("theta", (theta,))
        if rho is not None:
            _check_numbers("rho", (rho,), integer=True)
        if payload["mode"] not in MODES:
            raise ValueError(f"unknown graph mode {payload['mode']!r}")
        if payload["mode"] == MODE_S2G:  # s2g graphs carry no theta or rho
            if theta is not None or rho is not None:
                raise ValueError("graph JSON of mode 's2g' carries a theta or a rho")
        elif theta is None or not 0.0 < theta < 1.0 or rho is None or rho < 1:
            raise ValueError("graph JSON of mode 's2gpa' needs theta in (0, 1) and rho >= 1")
        if payload["first_clause_rule"] not in FIRST_CLAUSE_RULES:
            raise ValueError(
                f"unknown first-clause rule {payload['first_clause_rule']!r} in graph JSON"
            )
        digest = payload["formula_sha256"]
        if type(digest) is not str or not _SHA256.fullmatch(digest):
            raise ValueError("graph JSON field 'formula_sha256' is not 64 lowercase hex digits")
        graph = ClauseGraph(
            mode=payload["mode"],
            temperature=payload["temperature"],
            theta=payload["theta"],
            rho=payload["rho"],
            seed=payload["seed"],
            first_clause_rule=payload["first_clause_rule"],
            n=payload["n"],
            k=payload["k"],
            formula_sha256=payload["formula_sha256"],
        )
        nodes = list(map(itemgetter(*_NODE_KEYS), payload["nodes"]))
        edges = list(map(itemgetter(*_EDGE_KEYS), payload["edges"]))
        declared_m = payload["m"]
        declared_order = payload["insertion_order"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"graph JSON missing or malformed field: {exc}") from None
    clause, raw, normalized, energies, conn, in_events, out_events, particles = (
        zip(*nodes) if nodes else ((),) * len(_NODE_KEYS)
    )
    _check_numbers("clause", clause, integer=True)
    _check_numbers("raw_fitness", raw, integer=True)
    _check_numbers("normalized_fitness", normalized)
    _check_numbers("energy", energies)
    _check_numbers("connectivity", conn)
    _check_numbers("in_events", in_events, integer=True, minimum=0)
    _check_numbers("out_events", out_events, integer=True, minimum=0)
    _check_numbers("particles", particles, integer=True)
    if any(map(ne, particles, map(add, in_events, out_events))):
        raise ValueError("graph JSON node particles differ from in_events + out_events")
    u, v, weight, multiplicity = zip(*edges) if edges else ((),) * len(_EDGE_KEYS)
    _check_numbers("u", u, integer=True)
    _check_numbers("v", v, integer=True)
    _check_numbers("weight", weight)
    _check_numbers("multiplicity", multiplicity, integer=True, minimum=1)
    for c, r, nf, e, cn, i, o, _ in nodes:
        graph.nodes.append(
            GraphNode(
                clause=c,
                fitness=FitnessRecord(raw=r, normalized=nf, energy=e),
                connectivity=cn,
                in_events=i,
                out_events=o,
            )
        )
    if declared_m != graph.m or declared_order != graph.insertion_order:
        raise ValueError("graph JSON is inconsistent with its node list")
    known = set(clause)
    if len(known) != graph.m or (known and (min(known) < 0 or max(known) >= graph.m)):
        raise ValueError(f"graph JSON node clause indices are not distinct values in [0, {graph.m})")
    for a, b, w, mult in edges:
        if a == b or a not in known or b not in known:
            raise ValueError(f"graph JSON edge ({a}, {b}) does not join two known nodes")
        if (a, b) in graph.edges or (b, a) in graph.edges:
            raise ValueError(f"graph JSON lists edge ({a}, {b}) twice")
        graph.edges[(a, b)] = GraphEdge(u=a, v=b, weight=w, multiplicity=mult)
    return graph
