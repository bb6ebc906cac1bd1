"""Golden corpus: sha256 digests of the graph JSON of a fixed set of builds.

The digests in ``golden/graph_sha256.json`` pin the builder's output byte
for byte.  A change that alters them changes what the package produces and
must say so.  To print the digests of the current code, run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os

import pytest

from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import generate_random, parse_dimacs
from satbec.graph import MODE_S2G, MODE_S2GPA, graph_to_json

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS = os.path.join(GOLDEN_DIR, "graph_sha256.json")

# name -> (formula source, builder config); a source is either
# ("random", seed, k, n, m) or ("dimacs", file name under golden/)
CASES = {
    "s2g_k3": (("random", 1, 3, 20, 80), dict(mode=MODE_S2G, seed=1)),
    "s2gpa_k3_rho1": (("random", 1, 3, 20, 80), dict(mode=MODE_S2GPA, seed=1)),
    "s2gpa_k3_rho3": (("random", 2, 3, 25, 100), dict(mode=MODE_S2GPA, rho=3, theta=0.5, seed=2)),
    "s2g_first_fittest": (("random", 3, 3, 20, 85), dict(mode=MODE_S2G, first_clause_rule="fittest", seed=3)),
    "s2gpa_first_fittest_rho3": (
        ("random", 3, 3, 20, 85),
        dict(mode=MODE_S2GPA, rho=3, first_clause_rule="fittest", seed=4),
    ),
    "s2g_dupvar": (("dimacs", "dupvar.cnf"), dict(mode=MODE_S2G, seed=5)),
    "s2gpa_dupvar_rho3": (("dimacs", "dupvar.cnf"), dict(mode=MODE_S2GPA, rho=3, seed=6)),
    "s2g_k4": (("random", 7, 4, 30, 120), dict(mode=MODE_S2G, seed=7)),
    "s2gpa_k5_rho2": (("random", 8, 5, 30, 150), dict(mode=MODE_S2GPA, rho=2, seed=8)),
    "s2g_k1": (("random", 9, 1, 6, 30), dict(mode=MODE_S2G, seed=9)),
    "s2g_t3.7": (("random", 10, 3, 20, 80), dict(mode=MODE_S2G, temperature=3.7, seed=10)),
    "s2gpa_t3.7_rho3": (("random", 10, 3, 20, 80), dict(mode=MODE_S2GPA, temperature=3.7, rho=3, seed=11)),
    "s2gpa_n100_alpha8": (("random", 12, 3, 100, 800), dict(mode=MODE_S2GPA, seed=12)),
}


def case_formula(source):
    if source[0] == "dimacs":
        with open(os.path.join(GOLDEN_DIR, source[1]), encoding="utf-8") as fh:
            return parse_dimacs(fh.read())
    _, seed, k, n, m = source
    return generate_random(seed, k, n, m)


def case_digest(name: str) -> str:
    source, kwargs = CASES[name]
    graph = build_graph(case_formula(source), BuilderConfig(**kwargs))
    return hashlib.sha256(graph_to_json(graph).encode("utf-8")).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_covers_every_case():
    assert sorted(load_digests()) == sorted(CASES)


def test_dupvar_fixture_repeats_variables():
    assert case_formula(("dimacs", "dupvar.cnf")).duplicate_vars


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_json_matches_golden_digest(name):
    assert case_digest(name) == load_digests()[name]


if __name__ == "__main__":
    print(json.dumps({name: case_digest(name) for name in sorted(CASES)}, indent=2, sort_keys=True))
