"""Golden corpus: sha256 digests of ``repr(SolverResult)`` for a fixed set of
solver runs.

The digests in ``golden/solver_sha256.json`` pin every field of the result,
the unsat trajectory included, for all three solvers.  A change that alters
them changes what the solvers produce and must say so.  To print the digests
of the current code, run

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import hashlib
import json
import os

import pytest

from test_golden import GOLDEN_DIR, case_formula
from satbec.builder import BuilderConfig, build_graph
from satbec.cnf import parse_dimacs
from satbec.graph import MODE_S2G
from satbec.solver import ClauseOrder, chainsat, clause_order, lc_chainsat, nlc_chainsat

DIGESTS = os.path.join(GOLDEN_DIR, "solver_sha256.json")

# name -> (formula source, solver keyword arguments); a source is one of
# test_golden's or ("dimacs-text", DIMACS text).  Every case runs all three
# solvers with the unsat trajectory recorded.
CASES = {
    "k3_near_threshold": (("random", 1, 3, 30, 128), dict(budget=5000, seed=1)),
    "k3_loose": (("random", 2, 3, 30, 90), dict(budget=5000, seed=2)),
    "k4": (("random", 3, 4, 20, 180), dict(budget=3000, seed=3)),
    "k5": (("random", 4, 5, 25, 400), dict(budget=3000, seed=4)),
    "p1_0_p2_0": (("random", 5, 3, 20, 85), dict(p1=0.0, p2=0.0, budget=2000, seed=5)),
    "p1_0_p2_1": (("random", 5, 3, 20, 85), dict(p1=0.0, p2=1.0, budget=2000, seed=5)),
    "p1_1_p2_0": (("random", 5, 3, 20, 85), dict(p1=1.0, p2=0.0, budget=2000, seed=5)),
    "p1_1_p2_1": (("random", 5, 3, 20, 85), dict(p1=1.0, p2=1.0, budget=2000, seed=5)),
    "budget_0": (("random", 6, 3, 20, 85), dict(budget=0, seed=6)),
    "empty": (("dimacs-text", "p cnf 3 0\n"), dict(p1=0.5, p2=0.5, budget=100, seed=7)),
    "dupvar": (("dimacs", "dupvar.cnf"), dict(budget=2000, seed=8)),
}


def case_order(formula, seed: int) -> ClauseOrder:
    if formula.m < 2:
        return ClauseOrder(rank=tuple(range(formula.m)))
    graph = build_graph(formula, BuilderConfig(mode=MODE_S2G, seed=seed))
    return clause_order(formula, graph, seed)


def case_results(name: str) -> dict:
    source, kwargs = CASES[name]
    if source[0] == "dimacs-text":
        formula = parse_dimacs(source[1])
    else:
        formula = case_formula(source)
    order = case_order(formula, kwargs["seed"])
    kwargs = dict(kwargs, record_trajectory=True)
    return {
        "chainsat": chainsat(formula, **kwargs),
        "lc": lc_chainsat(formula, order, **kwargs),
        "nlc": nlc_chainsat(formula, order, **kwargs),
    }


def case_digests(name: str) -> dict:
    return {
        algo: hashlib.sha256(repr(result).encode("utf-8")).hexdigest()
        for algo, result in case_results(name).items()
    }


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_covers_every_case():
    assert sorted(load_digests()) == sorted(CASES)


def test_corpus_reaches_both_outcomes():
    results = [r for name in CASES for r in case_results(name).values()]
    assert any(r.solved and r.evaluations > 0 for r in results)
    assert any(not r.solved for r in results)


@pytest.mark.parametrize("name", sorted(CASES))
def test_solver_results_match_golden_digests(name):
    assert case_digests(name) == load_digests()[name]


if __name__ == "__main__":
    print(json.dumps({name: case_digests(name) for name in sorted(CASES)}, indent=2, sort_keys=True))
