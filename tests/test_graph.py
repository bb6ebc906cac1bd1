"""Graph record type, JSON and DOT serialization, energy spectrum."""

import json
import math
import re
from dataclasses import FrozenInstanceError, fields, replace
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import components, degrees, formula_from_signed, hand_graph
from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import MAX_COUNT, generate_random, parse_dimacs
from satbec.graph import (
    FIRST_CLAUSE_RULES,
    MODE_S2G,
    MODE_S2GPA,
    MODES,
    EdgeColumns,
    EnergyLevel,
    EnergySpectrum,
    EnergyState,
    NodeColumns,
    export_dot,
    graph_from_json,
    graph_header,
    graph_to_json,
    particle_spectrum,
)


def node_row(clause, raw, max_raw, connectivity, in_events=0, out_events=0):
    normalized = raw / max_raw
    return (clause, raw, normalized, -math.log(normalized) + 0.0, connectivity, in_events,
            out_events)


def unlinked_rows(raw_fitness=()):
    """Node rows of a graph with no edges whose node for clause c has raw
    fitness ``raw_fitness[c]``."""
    return [node_row(c, raw, max(raw_fitness), 0.0) for c, raw in enumerate(raw_fitness)]


def unlinked_graph(raw_fitness=()):
    return hand_graph(unlinked_rows(raw_fitness))


# hub 0 with three spokes, insertion order 0,1,2,3
STAR_NODES = [node_row(0, 4, 4, 3.0, in_events=3)] + [
    node_row(spoke, 2, 4, 1.0, out_events=1) for spoke in (1, 2, 3)]
STAR_EDGES = [(0, spoke, 0.5, 1) for spoke in (1, 2, 3)]


def star_graph(extra_nodes=()):
    return hand_graph(STAR_NODES + list(extra_nodes), STAR_EDGES)


def test_modes_tuple():
    assert MODES == (MODE_S2G, MODE_S2GPA)


def test_graph_accessors():
    g = star_graph()
    assert g.m == 4
    assert g.insertion_order == [0, 1, 2, 3]
    assert sorted(zip(g.edges.u, g.edges.v)) == [(0, 1), (0, 2), (0, 3)]
    assert degrees(g) == {0: 3, 1: 1, 2: 1, 3: 1}
    assert g.total_particles == 6
    assert components(g) == [[0, 1, 2, 3]]


def test_connected_components_splits():
    g = star_graph([node_row(4, 1, 4, 0.0)])
    assert components(g) == [[0, 1, 2, 3], [4]]


def test_particle_conservation_on_built_graphs():
    f = generate_random(2, 3, 30, 90)
    for mode in MODES:
        g = build_graph(f, BuilderConfig(mode=mode, seed=5))
        link_events = sum(g.edges.multiplicity)
        assert g.total_particles == 2 * link_events


def test_json_round_trip():
    f = generate_random(9, 3, 25, 80)
    for mode in MODES:
        g = build_graph(f, BuilderConfig(mode=mode, seed=1))
        text = graph_to_json(g)
        back = graph_from_json(text)
        assert back == g
        assert graph_to_json(back) == text


DUPVAR = Path(__file__).resolve().parent / "golden" / "dupvar.cnf"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("source", ["random", "dupvar"])
def test_graphs_are_values(source, mode):
    if source == "dupvar":
        f = parse_dimacs(DUPVAR.read_text(encoding="utf-8"))
    else:
        f = generate_random(9, 3, 25, 80)
    built = build_graph(f, BuilderConfig(mode=mode, rho=2, seed=1))
    loaded = graph_from_json(graph_to_json(built))
    for g in (built, loaded):
        assert graph_from_json(graph_to_json(g)) == g
        assert hash(g) == hash(loaded)
        assert all(type(column) is tuple for column in (*g.nodes, *g.edges))
        for field in fields(g):
            with pytest.raises(FrozenInstanceError):
                setattr(g, field.name, getattr(g, field.name))


def row_payload(g):
    """The graph JSON payload of ``g`` with its tables as lists of row dicts."""
    particles = map(add, g.nodes.in_events, g.nodes.out_events)
    return {
        **vars(g),
        "m": g.m,
        "insertion_order": g.insertion_order,
        "nodes": [dict(zip((*NodeColumns._fields, "particles"), row))
                  for row in zip(*g.nodes, particles)],
        "edges": [dict(zip(EdgeColumns._fields, row)) for row in zip(*g.edges)],
    }


@pytest.mark.parametrize("case", ["infinite-energy", "no-edges", "dupvar"])
def test_graph_json_is_json_dumps_of_its_rows(case):
    # tables are written from the columns; the text must still be json's for
    # the rows, also for a table with no rows, and an energy that overflows
    # to inf is refused, not written as Infinity
    if case == "infinite-energy":
        f = formula_from_signed([(1, 2, 3)] * 10 + [(4, 5, 6)], 6)
        g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, temperature=1e308, seed=1))
        assert math.inf in g.nodes.energy
        with pytest.raises(ValueError, match="'energy'"):
            graph_to_json(g)
        return
    if case == "no-edges":
        g = unlinked_graph([3, 1, 2])
    else:
        f = parse_dimacs(DUPVAR.read_text(encoding="utf-8"))
        g = build_graph(f, BuilderConfig(mode=MODE_S2GPA, rho=2, seed=1))
    assert graph_to_json(g) == json.dumps(row_payload(g), sort_keys=True, indent=2) + "\n"


@st.composite
def small_builds(draw):
    """Graph JSON of a small build, in either mode, under any settings."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, k + 6))
    formula = generate_random(draw(st.integers(0, 2**16)), k, n, draw(st.integers(2, 25)))
    cfg = BuilderConfig(
        mode=draw(st.sampled_from(MODES)),
        temperature=draw(st.one_of(st.integers(1, 5), st.floats(0.01, 100.0))),
        theta=draw(st.floats(0.01, 0.99)),
        rho=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)),
        first_clause_rule=draw(st.sampled_from(FIRST_CLAUSE_RULES)),
    )
    return graph_to_json(build_graph(formula, cfg))


@settings(max_examples=60, deadline=None)
@given(small_builds())
def test_json_round_trip_property(text):
    assert graph_to_json(graph_from_json(text)) == text


INTEGER_FIELDS = {"clause", "raw_fitness", "in_events", "out_events", "particles", "u", "v",
                  "multiplicity"}
NOT_NUMBERS = st.one_of(
    st.text(), st.booleans(), st.none(), st.sampled_from((math.nan, math.inf, -math.inf))
)


@settings(max_examples=200, deadline=None)
@given(small_builds(), st.data())
def test_json_rejects_any_mistyped_node_or_edge_field(text, data):
    payload = json.loads(text)
    entry = data.draw(st.sampled_from(payload[data.draw(st.sampled_from(("nodes", "edges")))]))
    key = data.draw(st.sampled_from(sorted(entry)))
    bad = NOT_NUMBERS
    if key in INTEGER_FIELDS:
        bad = st.one_of(bad, st.floats(), st.just(float(entry[key])))
    entry[key] = data.draw(bad)
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(payload))


def test_json_is_stable_and_readable():
    text = graph_to_json(star_graph())
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["mode"] == MODE_S2G
    assert len(payload["nodes"]) == 4
    assert len(payload["edges"]) == 3
    # stable key order: serializing the parsed payload with sorted keys is a no-op
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text


# what the loader reads back: exact ints in an int column, exact ints or
# finite floats in a float column, whose repr is their JSON text
INT = st.integers(-(2**70), 2**70)
FLOAT = st.one_of(
    INT,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((-0.0, 5e-324, 1e16)),
)
# what it refuses in any column: numpy floats, non-finite floats and bools
NUMPY = st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
REFUSED = st.one_of(NUMPY, st.sampled_from((math.nan, math.inf, -math.inf)), st.booleans())


def rows(keys, min_size):
    return st.lists(st.tuples(*[INT if key in INTEGER_FIELDS else FLOAT for key in keys]),
                    min_size=min_size, max_size=4)


# build settings the loader accepts, at any count, seed and positive temperature
BUILDS = st.builds(
    BuilderConfig,
    mode=st.sampled_from(MODES),
    temperature=st.one_of(st.integers(1, 2**70),
                          st.floats(0.0, exclude_min=True, allow_infinity=False)),
    theta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    rho=st.integers(1, MAX_COUNT),
    seed=st.integers(0, 2**70),
    first_clause_rule=st.sampled_from(FIRST_CLAUSE_RULES),
)


@st.composite
def any_graphs(draw, min_rows=0):
    """Graphs of ``min_rows``-4 nodes and edges whose columns hold any
    numbers the loader reads back and whose header is any header the
    loader accepts."""
    nodes = draw(rows(NodeColumns._fields, min_rows))
    edges = draw(rows(EdgeColumns._fields, min_rows))
    header = graph_header(draw(BUILDS)) | {
        "n": draw(st.integers(1, MAX_COUNT)), "k": draw(st.integers(1, 2**70)),
        "formula_sha256": draw(st.text("0123456789abcdef", min_size=64, max_size=64))}
    return hand_graph(nodes, edges, **header)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(any_graphs())
@example(hand_graph())  # both tables empty
@example(unlinked_graph([3, 1, 2]))  # no edges
@example(hand_graph([(0, 2**1024, 1.0, 0.0, 0.0, 0, 0)]))  # above float max
def test_graph_json_is_json_dumps_of_any_rows(g):
    assert graph_to_json(g) == json.dumps(row_payload(g), sort_keys=True, indent=2) + "\n"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(any_graphs(min_rows=1), st.data())
def test_graph_json_refuses_a_column_the_loader_refuses(g, data):
    table = data.draw(st.sampled_from(("nodes", "edges")))
    columns = getattr(g, table)
    key = data.draw(st.sampled_from(columns._fields))
    column = list(getattr(columns, key))
    # in an int column any float is refused, integral or not
    column[data.draw(st.integers(0, len(column) - 1))] = data.draw(
        REFUSED | st.floats() if key in INTEGER_FIELDS else REFUSED)
    g = replace(g, **{table: columns._replace(**{key: tuple(column)})})
    with pytest.raises(ValueError, match=f"'{key}'"):
        graph_to_json(g)


@pytest.mark.parametrize(
    "text",
    ["not json", "{}", '{"mode": "s2g"}', '{"nodes": [], "edges": []}',
     # json.loads raises RecursionError here, not JSONDecodeError
     pytest.param("[" * 200_000, id="deeply-nested")],
)
def test_json_rejects_malformed(text):
    with pytest.raises(ValueError):
        graph_from_json(text)


def test_json_rejects_inconsistent_counts():
    payload = json.loads(graph_to_json(star_graph()))
    payload["m"] = 99
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(payload))
    payload = json.loads(graph_to_json(star_graph()))
    del payload["m"]
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(payload))


def relabel(payload, old, new):
    """Give node ``old`` the clause index ``new`` everywhere it appears."""
    swap = lambda c: new if c == old else c
    for node in payload["nodes"]:
        node["clause"] = swap(node["clause"])
    payload["insertion_order"] = [swap(c) for c in payload["insertion_order"]]
    for edge in payload["edges"]:
        edge["u"], edge["v"] = swap(edge["u"]), swap(edge["v"])


def set_field(part, index, key, value):
    def edit(payload):
        payload[part][index][key] = value

    return edit


def set_top(key, value):
    def edit(payload):
        payload[key] = value

    return edit


def add_edge(u, v):
    def edit(payload):
        payload["edges"].append({"u": u, "v": v, "weight": 0.5, "multiplicity": 1})

    return edit


def move_edge(index, u, v):
    def edit(payload):
        payload["edges"][index].update(u=u, v=v)

    return edit


# star_graph: nodes 0-3, edges (0, 1), (0, 2), (0, 3)
TAMPERS = {
    "clause_index_m": (lambda p: relabel(p, 3, 4), "distinct values in"),
    "clause_index_negative": (lambda p: relabel(p, 3, -1), "distinct values in"),
    "clause_index_repeated": (lambda p: relabel(p, 3, 2), "distinct values in"),
    "clause_index_float": (lambda p: relabel(p, 3, 3.0), "'clause' is not an integer"),
    "insertion_order_float": (
        lambda p: p.update(insertion_order=list(map(float, p["insertion_order"]))),
        "'insertion_order' is not an integer",
    ),
    "energy_string": (set_field("nodes", 1, "energy", "low"), "'energy' is not a number"),
    "energy_nan": (set_field("nodes", 1, "energy", float("nan")), "'energy' holds a number that is not finite"),
    "connectivity_infinite": (set_field("nodes", 0, "connectivity", float("inf")), "not finite"),
    "raw_fitness_bool": (set_field("nodes", 0, "raw_fitness", True), "'raw_fitness' is not an integer"),
    "particles_mismatch": (set_field("nodes", 0, "particles", 4), "particles differ"),
    "in_events_negative": (set_field("nodes", 1, "in_events", -1), "'in_events' holds a value below 0"),
    "edge_to_unknown_node": (set_field("edges", 0, "v", 9), "does not join two known nodes"),
    "edge_self_loop": (set_field("edges", 0, "v", 0), "does not join two known nodes"),
    "edge_repeated": (add_edge(0, 1), "twice"),
    "edge_repeated_reversed": (add_edge(2, 0), "twice"),
    "weight_string": (set_field("edges", 0, "weight", "0.5"), "'weight' is not a number"),
    "multiplicity_zero": (set_field("edges", 0, "multiplicity", 0), "'multiplicity' holds a value below 1"),
    # each link event puts one particle on each endpoint
    "edge_dropped": (lambda p: p["edges"].pop(0), "link events of its edges"),
    "multiplicity_raised": (set_field("edges", 0, "multiplicity", 2), "link events of its edges"),
    "edge_moved": (move_edge(0, 1, 2), "link events of its edges"),
    "raw_fitness_zero": (set_field("nodes", 1, "raw_fitness", 0), "'raw_fitness' holds a value below 1"),
    "raw_fitness_above_int64": (set_field("nodes", 0, "raw_fitness", 2**70), "no build writes"),
    "normalized_fitness_edited": (set_field("nodes", 1, "normalized_fitness", 7.5),
                                  "normalized_fitness differs"),
    "energy_edited": (set_field("nodes", 1, "energy", -5.0), "energy differs"),
    "energy_off_by_1e-11": (set_field("nodes", 1, "energy", math.log(2) * (1 + 1e-11)), "energy differs"),
    "temperature_edited": (set_top("temperature", 2.0), "energy differs"),
    # each link event runs from the later-inserted endpoint to the earlier one
    "events_swapped": (lambda p: p["nodes"][0].update(in_events=0, out_events=3),
                       "in_events differ from the link events of its edges"),
    "connectivity_edited": (set_field("nodes", 1, "connectivity", 1000.0),
                            "connectivity differs from the link events of its edges"),
}


def test_json_accepts_an_energy_a_few_ulps_off():
    # np.log may round differently on another machine
    payload = json.loads(graph_to_json(star_graph()))
    for node in payload["nodes"][1:]:
        node["energy"] = float(np.nextafter(np.nextafter(node["energy"], 1.0), 1.0))
    assert list(graph_from_json(json.dumps(payload)).nodes.energy[1:]) == [
        node["energy"] for node in payload["nodes"][1:]
    ]


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_json_rejects_payload_inconsistent_with_itself(name):
    edit, message = TAMPERS[name]
    payload = json.loads(graph_to_json(star_graph()))
    graph_from_json(json.dumps(payload))  # untouched: accepted
    edit(payload)
    with pytest.raises(ValueError, match=message):
        graph_from_json(json.dumps(payload))


# header settings only BuilderConfig rejects, with the modes they apply to
# (an s2g header may carry no theta or rho at all)
SETTINGS_TAMPERS = [
    ("temperature", "1.0", MODES),
    ("temperature", math.inf, MODES),
    ("temperature", True, MODES),
    ("temperature", 10**400, MODES),  # an int above the largest float
    ("seed", 1.5, MODES),
    ("seed", True, MODES),
    ("rho", 1.0, (MODE_S2GPA,)),
    ("theta", float("-inf"), (MODE_S2GPA,)),
    ("theta", float("inf"), (MODE_S2GPA,)),
    ("theta", "0.3", (MODE_S2GPA,)),
]


def tamper_id(value):
    """A test id part: the int above the largest float, not its 401 digits."""
    return "1e400" if value == 10**400 else None


# header values no build can write, with the modes they apply to
HEADER_TAMPERS = [
    ("first_clause_rule", None, MODES),
    ("first_clause_rule", "best", MODES),
    ("formula_sha256", 12, MODES),
    ("formula_sha256", "0" * 63, MODES),
    ("formula_sha256", "A" * 64, MODES),
    ("temperature", -1.0, MODES),
    ("temperature", 0, MODES),
    ("n", 0, MODES),
    ("k", 0, MODES),
    ("m", 24.0, MODES),
    ("seed", -3, MODES),
    ("mode", "swap", MODES),
    ("mode", "bogus", MODES),
    ("rho", 0, (MODE_S2GPA,)),
    ("rho", None, (MODE_S2GPA,)),
    ("theta", 1.5, (MODE_S2GPA,)),
    ("theta", 0, (MODE_S2GPA,)),
    ("theta", None, (MODE_S2GPA,)),
    ("theta", 0.5, (MODE_S2G,)),
    ("rho", 4, (MODE_S2G,)),
] + SETTINGS_TAMPERS


@pytest.mark.parametrize(
    "mode, key, value",
    [(mode, key, value) for key, value, modes in HEADER_TAMPERS for mode in modes],
    ids=tamper_id,
)
def test_json_rejects_header_no_build_writes(mode, key, value):
    graph = build_graph(generate_random(2, 3, 12, 24), BuilderConfig(mode=mode, seed=5))
    payload = json.loads(graph_to_json(graph))
    graph_from_json(json.dumps(payload))  # untouched: accepted
    if value == "swap":
        value = MODE_S2GPA if mode == MODE_S2G else MODE_S2G
    payload[key] = value
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(payload))


@pytest.mark.parametrize(
    "mode, key, value",
    [(mode, key, value) for key, value, modes in HEADER_TAMPERS for mode in modes if key != "m"],
    ids=tamper_id,
)
def test_graph_json_refuses_a_header_the_loader_refuses(mode, key, value):
    graph = build_graph(generate_random(2, 3, 12, 24), BuilderConfig(mode=mode, seed=5))
    graph_to_json(graph)  # untouched: written
    if value == "swap":
        value = MODE_S2GPA if mode == MODE_S2G else MODE_S2G
    with pytest.raises(ValueError):
        graph_to_json(replace(graph, **{key: value}))


@pytest.mark.parametrize("key, scale", [("connectivity", 1 + 1e-6), ("in_events", 2)])
def test_json_rejects_node_links_its_edges_do_not_give(key, scale):
    # an s2gpa node's connectivity is theta x out + in; the build sums it
    # event by event, so it may sit an ulp off, but no further
    g = build_graph(generate_random(2, 3, 30, 120), BuilderConfig(mode=MODE_S2GPA, seed=5))
    payload = json.loads(graph_to_json(g))
    node = next(node for node in payload["nodes"] if node["in_events"] and node["out_events"])
    node["connectivity"] = float(np.nextafter(node["connectivity"], math.inf))
    graph_from_json(json.dumps(payload))  # an ulp off: accepted
    node[key] *= scale
    if key == "in_events":
        node["particles"] = node["in_events"] + node["out_events"]
    with pytest.raises(ValueError, match=f"{key} differ"):
        graph_from_json(json.dumps(payload))


def test_export_dot_structure():
    g = star_graph()
    dot = export_dot(g)
    lines = [line.strip() for line in dot.strip().splitlines()]
    assert lines[0] == "graph clause_network {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if l.startswith("c") and "--" not in l]
    edge_lines = [l for l in lines if "--" in l]
    assert len(node_lines) == 4
    assert len(edge_lines) == 3
    assert all(line.endswith(";") for line in node_lines + edge_lines)
    # node labels carry the energy, edge labels the establishing weight
    assert any("E=0.0" in line for line in node_lines)
    assert any('label="0.5"' in line for line in edge_lines)
    assert dot.count("{") == dot.count("}")


def repeated_pair_graph():
    """An s2gpa graph of 134 edges, 32 of them with multiplicity above 1."""
    return build_graph(generate_random(3, 3, 20, 60), BuilderConfig(mode=MODE_S2GPA, rho=3, seed=1))


def test_export_dot_labels_a_repeated_pair_with_its_multiplicity():
    g = repeated_pair_graph()
    labels = dict(re.findall(r'^  (c\d+ -- c\d+) \[label="(.*)"\];$', export_dot(g), re.M))
    assert len(labels) == len(g.edges.u) == 134
    repeated = [multiplicity for multiplicity in g.edges.multiplicity if multiplicity > 1]
    assert len(repeated) == 32
    for u, v, weight, multiplicity in zip(*g.edges):
        suffix = f" x{multiplicity}" if multiplicity > 1 else ""
        assert labels[f"c{u} -- c{v}"] == f"{weight!r}{suffix}"


@pytest.mark.parametrize("edit", ["drop", "empty"])
def test_json_rejects_edges_that_disagree_with_particles(edit):
    g = repeated_pair_graph()
    payload = json.loads(graph_to_json(g))
    assert g.total_particles == 2 * g.link_events == 350
    if edit == "drop":
        payload["edges"].remove(next(e for e in payload["edges"] if e["multiplicity"] > 1))
    else:
        payload["edges"] = []
    with pytest.raises(ValueError, match="link events of its edges"):
        graph_from_json(json.dumps(payload))


def test_spectrum_of_sparse_sample(sample10):
    g = build_graph(sample10, BuilderConfig(mode=MODE_S2G, seed=0))
    spectrum = particle_spectrum(g)
    assert isinstance(spectrum, EnergySpectrum)
    # fitness 5 ground state, a four-state level at fitness 4, five at 3
    members = [[state.clause for state in level.states] for level in spectrum.levels]
    assert members == [[0], [3, 5, 6, 8], [1, 2, 4, 7, 9]]
    energies = [level.energy for level in spectrum.levels]
    assert energies[0] == 0.0
    assert energies[1] == pytest.approx(math.log(5 / 4))
    assert energies[2] == pytest.approx(math.log(5 / 3))
    assert energies == sorted(energies)
    assert spectrum.total_particles == g.total_particles


def test_spectrum_level_is_one_raw_fitness_in_ascending_energy():
    # nodes listed against clause order; clauses 0 and 4 share the lowest
    # fitness, 2 and 3 the middle one, and each level lists its clauses sorted
    rows = unlinked_rows([2, 9, 5, 5, 2])[::-1]
    clause, raw, normalized, energy, *rest = rows[0]  # clause 4, an ulp low
    rows[0] = (clause, raw, normalized, math.nextafter(energy, 0.0), *rest)
    g = hand_graph(rows)
    spectrum = particle_spectrum(g)
    assert [[s.clause for s in level.states] for level in spectrum.levels] == [[1], [2, 3], [0, 4]]
    # a level's energy is the least of its states'
    assert [level.energy for level in spectrum.levels] == [
        0.0, -math.log(5 / 9), math.nextafter(-math.log(2 / 9), 0.0)]


def test_spectrum_of_empty_and_single_node_graphs():
    assert particle_spectrum(unlinked_graph()) == EnergySpectrum(levels=())
    assert particle_spectrum(unlinked_graph([3])) == EnergySpectrum(
        levels=(EnergyLevel(energy=0.0, states=(EnergyState(clause=0, particles=0),)),))


def test_spectrum_level_particles_sum_states():
    g = build_graph(generate_random(4, 3, 20, 60), BuilderConfig(mode=MODE_S2GPA, seed=2))
    spectrum = particle_spectrum(g)
    for level in spectrum.levels:
        assert level.particles == sum(s.particles for s in level.states)
    assert spectrum.total_particles == g.total_particles
