"""Golden corpus: sha256 digests of the classification summary and the
particle-spectrum JSON of the builds in ``test_golden``.

The digests in ``golden/analysis_sha256.json`` pin, for each golden build,
the JSON that ``satbec classify`` and ``satbec spectrum`` print for it, both
as this file's own ``json.dumps`` lays it out and as ``satbec.graph.json_text``
does.  A
change that alters them changes what the package produces and must say so.
To print the digests of the current code, run

    PYTHONPATH=src python tests/test_analysis_golden.py
"""

import hashlib
import json
import os

import pytest

from test_golden import CASES, GOLDEN_DIR, case_formula
from satbec.analysis import classify, nonwinner_stats
from satbec.builder import BuilderConfig, build_graph
from satbec.graph import json_text, particle_spectrum

DIGESTS = os.path.join(GOLDEN_DIR, "analysis_sha256.json")


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def classify_payload(graph) -> dict:
    label = classify(graph)
    mean, std = nonwinner_stats(graph)
    return {
        "fraction_winner": label.fraction_winner,
        "label": label.label.value,
        "nonwinner_mean": mean,
        "nonwinner_std": std,
    }


def spectrum_payload(graph) -> dict:
    spectrum = particle_spectrum(graph)
    return {
        "total_particles": spectrum.total_particles,
        "levels": [
            {
                "energy": level.energy,
                "particles": level.particles,
                "states": [
                    {"clause": state.clause, "particles": state.particles}
                    for state in level.states
                ],
            }
            for level in spectrum.levels
        ],
    }


def case_digests(name: str, write=_json_text) -> dict:
    """The digests of the case's ``classify`` and ``spectrum`` JSON, as
    ``write`` lays out their payloads."""
    source, kwargs = CASES[name]
    graph = build_graph(case_formula(source), BuilderConfig(**kwargs))
    return {
        "classify": hashlib.sha256(write(classify_payload(graph)).encode("utf-8")).hexdigest(),
        "spectrum": hashlib.sha256(write(spectrum_payload(graph)).encode("utf-8")).hexdigest(),
    }


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_covers_every_case():
    assert sorted(load_digests()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_analysis_json_matches_golden_digests(name):
    assert case_digests(name) == load_digests()[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_package_json_writer_matches_golden_digests(name):
    """The bytes ``satbec classify`` and ``satbec spectrum`` write, laid out
    by the package's own writer."""
    assert case_digests(name, write=json_text) == load_digests()[name]


if __name__ == "__main__":
    print(json.dumps({name: case_digests(name) for name in sorted(CASES)}, indent=2, sort_keys=True))
