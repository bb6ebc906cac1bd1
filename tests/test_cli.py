"""Command-line pipeline: artifacts, manifests, exit codes, reruns."""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from satbec import __version__, cli
from satbec.cli import main
from satbec.experiments import BenchConfig, BenchReport, SweepConfig
from satbec.solver import DEFAULT_BUDGET, DESK_BUDGET, SOLVERS
from conftest import deadline
from test_graph import SETTINGS_TAMPERS, tamper_id


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_text(encoding="utf-8")


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def cnf(tmp_path):
    path = tmp_path / "f.cnf"
    assert run_cli("gen", "--seed", "7", "--k", "3", "--n", "20", "--m", "60",
                   "--out", str(path)) == 0
    return path


@pytest.fixture
def graph(tmp_path, cnf):
    path = tmp_path / "g.json"
    assert run_cli("build", "--mode", "s2gpa", "--theta", "0.33", "--rho", "1",
                   "--seed", "1", "--in", str(cnf), "--out", str(path)) == 0
    return path


def test_gen_writes_valid_dimacs(cnf):
    text = read(cnf)
    assert text.startswith("p cnf 20 60\n")
    assert text.count(" 0\n") == 60


def test_gen_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "f.cnf"
    args = ("gen", "--seed", "3", "--n", "10", "--m", "30", "--out", str(out))
    assert run_cli(*args) == 0
    first = read(out)
    first_manifest = read(tmp_path / "f.cnf.manifest.json")
    assert run_cli(*args) == 0
    assert read(out) == first
    assert read(tmp_path / "f.cnf.manifest.json") == first_manifest


def test_manifest_contents(tmp_path, cnf, graph):
    manifest = json.loads(read(tmp_path / "g.json.manifest.json"))
    assert manifest["subcommand"] == "build"
    assert manifest["outputs"] == ["g.json"]
    assert manifest["arguments"]["mode"] == "s2gpa"
    assert manifest["arguments"]["theta"] == 0.33
    assert manifest["inputs"]["in"]["sha256"] == sha256(read(cnf))
    assert "time" not in " ".join(manifest)  # nothing volatile inside


def test_manifests_record_default_builder_flags(tmp_path, monkeypatch):
    # recorded before the builder flags were declared in one place: build
    # and bench record concrete defaults, sweep records None for each flag
    # left out so that its config file can apply
    monkeypatch.chdir(tmp_path)
    assert run_cli("gen", "--seed", "7", "--n", "20", "--m", "60", "--out", "f.cnf") == 0
    runs = {
        "g.json": ("build", "--in", "f.cnf", "--out", "g.json"),
        "s.csv": ("sweep", "--n-values", "10", "--alphas", "1.0", "--instances", "1",
                  "--graphs", "1", "--jobs", "1", "--out", "s.csv"),
        "b.csv": ("bench", "--n-values", "10", "--grid", "2.0", "--instances", "1",
                  "--budget", "100", "--jobs", "1", "--out", "b.csv"),
    }
    arguments = {}
    for out, argv in runs.items():
        assert run_cli(*argv) == 0
        arguments[out] = json.loads(read(tmp_path / f"{out}.manifest.json"))["arguments"]
    assert arguments["g.json"] == {
        "command": "build", "first": "random", "in": "f.cnf", "mode": "s2g", "out": "g.json",
        "rho": 1, "seed": 0, "temp": 1.0, "theta": 0.33,
    }
    assert arguments["s.csv"] == {
        "alphas": "1.0", "command": "sweep", "config": None, "first": None, "graphs": 1,
        "instances": 1, "jobs": 1, "k": None, "mode": None, "n_values": "10", "out": "s.csv",
        "rho": None, "seed": None, "temp": None, "theta": None,
    }
    assert arguments["b.csv"] == {
        "budget": 100, "command": "bench", "first": "random", "grid": "2.0", "instances": 1,
        "jobs": 1, "k": 3, "mode": "s2g", "n_values": "10", "out": "b.csv", "p1": None,
        "p2": None, "rho": 1, "seed": 0, "solvers": "chainsat,lc,nlc", "temp": 1.0,
        "theta": 0.33,
    }


def test_build_then_classify_stdout(tmp_path, graph, capsys):
    assert run_cli("classify", "--in", str(graph)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["label"] in ("FullBEC", "PartialBEC", "FitGetRich")
    assert 0.0 <= payload["fraction_winner"] <= 1.0


def test_classify_to_file(tmp_path, graph):
    out = tmp_path / "phase.json"
    assert run_cli("classify", "--in", str(graph), "--out", str(out)) == 0
    payload = json.loads(read(out))
    assert set(payload) >= {"label", "fraction_winner"}
    assert (tmp_path / "phase.json.manifest.json").exists()


def test_spectrum_json_and_dot(tmp_path, graph):
    out = tmp_path / "spectrum.json"
    dot = tmp_path / "g.dot"
    assert run_cli("spectrum", "--in", str(graph), "--out", str(out),
                   "--dot", str(dot)) == 0
    payload = json.loads(read(out))
    assert payload["total_particles"] > 0
    assert payload["levels"][0]["energy"] == 0.0
    text = read(dot)
    assert text.startswith("graph clause_network {")
    assert text.rstrip().endswith("}")


def test_spectrum_with_dot_and_no_out_prints_the_spectrum(tmp_path, graph, capsys):
    out = tmp_path / "spectrum.json"
    assert run_cli("spectrum", "--in", str(graph), "--out", str(out)) == 0
    assert run_cli("spectrum", "--in", str(graph), "--dot", str(tmp_path / "g.dot")) == 0
    assert capsys.readouterr().out == read(out)
    assert read(tmp_path / "g.dot").startswith("graph clause_network {")
    assert json.loads(read(tmp_path / "g.dot.manifest.json"))["outputs"] == ["g.dot"]
    # a failed DOT write prints nothing
    assert run_cli("spectrum", "--in", str(graph), "--dot", str(tmp_path / "missing" / "x.dot")) == 1
    assert capsys.readouterr().out == ""


def test_failed_write_leaves_no_artifact(tmp_path, graph):
    # the DOT path cannot be written, so the spectrum must not appear either
    out = tmp_path / "ok.json"
    assert run_cli("spectrum", "--in", str(graph), "--out", str(out),
                   "--dot", str(tmp_path / "missing" / "x.dot")) == 1
    (tmp_path / "sub.dot").mkdir()
    assert run_cli("spectrum", "--in", str(graph), "--out", str(out),
                   "--dot", str(tmp_path / "sub.dot")) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["f.cnf", "f.cnf.manifest.json", "g.json", "g.json.manifest.json", "sub.dot"]
    )


def test_solve_chainsat_result_file(tmp_path, cnf):
    out = tmp_path / "r.json"
    assert run_cli("solve", "--algo", "chainsat", "--budget", "5000", "--seed", "2",
                   "--in", str(cnf), "--out", str(out)) == 0
    payload = json.loads(read(out))
    (result,) = payload["results"]
    assert result["algo"] == "chainsat"
    assert result["budget"] == 5000
    assert isinstance(result["solved"], bool)
    assert len(result["assignment"]) == 20


@pytest.mark.parametrize("algo", SOLVERS)
def test_solve_rejects_a_negative_seed(tmp_path, cnf, graph, capsys, algo):
    before = sorted(tmp_path.iterdir())
    assert run_cli("solve", "--algo", algo, "--graph", str(graph), "--seed", "-1",
                   "--in", str(cnf), "--out", str(tmp_path / "r.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("flag, value", [("--p1", "5"), ("--p2", "-1"), ("--p1", "nan")])
def test_solve_checks_flip_probabilities_on_an_empty_formula(tmp_path, capsys, flag, value):
    cnf = tmp_path / "empty.cnf"
    cnf.write_text("p cnf 3 0\n", encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert run_cli("solve", "--algo", "chainsat", flag, value,
                   "--in", str(cnf), "--out", str(tmp_path / "r.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "[0, 1]" in err
    assert sorted(tmp_path.iterdir()) == before


def test_solve_lc_needs_graph(tmp_path, cnf):
    out = tmp_path / "r.json"
    assert run_cli("solve", "--algo", "lc", "--in", str(cnf), "--out", str(out)) == 1
    assert not out.exists()


def test_solve_lc_with_graph_and_compare(tmp_path, cnf, graph, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("solve", "--algo", "chainsat", "--budget", "2000", "--seed", "3",
                   "--in", str(cnf), "--out", str(a)) == 0
    assert run_cli("solve", "--algo", "lc", "--graph", str(graph), "--budget", "2000",
                   "--seed", "3", "--in", str(cnf), "--out", str(b)) == 0
    assert run_cli("compare", str(a), str(b)) == 0
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert verdict in ("a_better", "b_better", "tie")
    out = tmp_path / "v.json"
    assert run_cli("compare", str(a), str(b), "--out", str(out)) == 0
    assert json.loads(read(out))["verdict"] == verdict


def test_compare_rejects_results_from_different_instances(tmp_path, cnf):
    other = tmp_path / "other.cnf"
    assert run_cli("gen", "--seed", "8", "--n", "20", "--m", "60", "--out", str(other)) == 0
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("solve", "--budget", "500", "--in", str(cnf), "--out", str(a)) == 0
    assert run_cli("solve", "--budget", "500", "--in", str(other), "--out", str(b)) == 0
    assert run_cli("compare", str(a), str(b)) == 2


@pytest.mark.parametrize(
    "field, value",
    [("flips", "x"), ("flips", float("nan")), ("flips", float("inf")), ("solved", "no"),
     ("flips", 2.7)],
    ids=["flips-str", "flips-nan", "flips-inf", "solved-str", "flips-float"],
)
def test_compare_rejects_mistyped_result_fields(tmp_path, cnf, capsys, field, value):
    good = tmp_path / "good.json"
    assert run_cli("solve", "--budget", "500", "--in", str(cnf), "--out", str(good)) == 0
    payload = json.loads(read(good))
    payload["results"][0][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")  # nan and inf go out as NaN, Infinity
    capsys.readouterr()
    out = tmp_path / "v.json"
    assert run_cli("compare", str(good), str(bad), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert field in err
    assert not out.exists()


def test_sweep_with_config_and_overrides(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(
        "[sweep]\nn_values = 10\nalphas = 1.0 2.0\ninstances = 2\ngraphs = 2\n"
        "[builder]\nmode = s2gpa\ntheta = 0.33\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", str(config), "--jobs", "1", "--out", str(out)) == 0
    rows = read(out).strip().splitlines()
    assert rows[0].startswith("n,alpha,mean_fraction_winner")
    assert len(rows) == 3
    # flag overrides shrink the grid to one alpha
    out2 = tmp_path / "sweep2.csv"
    assert run_cli("sweep", "--config", str(config), "--alphas", "1.5", "--jobs", "1",
                   "--out", str(out2)) == 0
    assert len(read(out2).strip().splitlines()) == 2


def test_sweep_without_grid_is_usage_error(tmp_path):
    assert run_cli("sweep", "--out", str(tmp_path / "s.csv")) == 1


def test_sweep_rejects_malformed_config(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[sweep\nn_values = 10\n", encoding="utf-8")
    assert run_cli("sweep", "--config", str(config), "--out", str(tmp_path / "s.csv")) == 2


SMALL_INI = "[sweep]\nn_values = 10\nalphas = 1.0\ninstances = 1\ngraphs = 1\n"


@pytest.mark.parametrize(
    "ini, key",
    [
        (SMALL_INI + "instance = 1\n", "sweep.instance"),
        (SMALL_INI + "[buildr]\n", "buildr"),
        (SMALL_INI + "[buildr]\nmode = s2gpa\n", "buildr.mode"),
        ("[DEFAULT]\nmode = s2gpa\n" + SMALL_INI, "sweep.mode"),
        ("[DEFAULT]\ninstances = 1\n", "DEFAULT.instances"),
        (SMALL_INI.replace("1.0", "x"), "sweep.alphas"),
        (SMALL_INI.replace("10", ""), "sweep.n_values"),
    ],
    ids=["typo-key", "empty-section", "unknown-section", "default-key", "default-only",
         "bad-list", "empty-list"],
)
def test_sweep_config_errors_are_data_errors(tmp_path, capsys, ini, key):
    config = tmp_path / "sweep.ini"
    config.write_text(ini, encoding="utf-8")
    assert run_cli("sweep", "--config", str(config), "--jobs", "1",
                   "--out", str(tmp_path / "s.csv")) == 2
    assert repr(key) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [config]


SWEEP = ("sweep", "--n-values", "10", "--alphas", "1.0", "--instances", "1", "--graphs", "1",
         "--jobs", "1")
BENCH = ("bench", "--n-values", "10", "--grid", "2.0", "--instances", "1", "--budget", "50",
         "--jobs", "1")


@pytest.mark.parametrize(
    "argv, ini",
    [
        (SWEEP + ("--theta", "2"), None),
        (SWEEP + ("--rho", "0"), None),
        (SWEEP + ("--temp", "nan"), None),
        (SWEEP, "[builder]\nmode = bogus\n"),
        (SWEEP + ("--k", "0"), None),
        (SWEEP + ("--k", "5", "--n-values", "3"), None),
        (SWEEP + ("--alphas", "0.1"), None),
        (SWEEP + ("--alphas", "x"), None),
        (SWEEP + ("--alphas", "inf"), None),
        (SWEEP + ("--alphas", "nan"), None),
        (SWEEP[:3] + SWEEP[5:], "[sweep]\nalphas = inf\n"),
        (SWEEP + ("--alphas", "1e300"), None),
        (SWEEP + ("--n-values", "2147483648"), None),
        (BENCH + ("--theta", "2"), None),
        (BENCH + ("--solvers", "chainsat", "--theta", "2"), None),
        (BENCH + ("--temp", "0"), None),
        (BENCH + ("--budget", "-1"), None),
        (BENCH + ("--p1", "3"), None),
        (BENCH + ("--k", "2", "--grid", "1,2"), None),
        (BENCH + ("--k", "5", "--n-values", "3", "--p1", "0.1", "--p2", "0.1"), None),
        (BENCH + ("--seed", "-1"), None),
        (BENCH + ("--solvers", "chainsat", "--grid", "nan"), None),
        (BENCH + ("--solvers", "chainsat", "--grid", "inf"), None),
        (BENCH + ("--grid", "1e308"), None),
        (BENCH + ("--solvers", "chainsat,bogus"), None),
        (BENCH + ("--solvers", "lc,lc"), None),
        (BENCH + ("--instances", "0"), None),
        (SWEEP + ("--jobs", "-1"), None),
    ],
    ids=["sweep-theta", "sweep-rho", "sweep-temp-nan", "sweep-ini-mode", "sweep-k0",
         "sweep-k-above-n", "sweep-one-clause", "sweep-bad-list", "sweep-alpha-inf",
         "sweep-alpha-nan", "sweep-ini-alpha-inf", "sweep-m-above-cap", "sweep-n-above-cap",
         "bench-theta", "bench-chainsat-theta",
         "bench-temp", "bench-budget", "bench-p1", "bench-k2-defaults", "bench-k-above-n",
         "bench-seed", "bench-chainsat-nan", "bench-chainsat-inf", "bench-m-above-cap",
         "bench-unknown-solver",
         "bench-duplicate-solver", "bench-instances0", "sweep-jobs-negative"],
)
def test_bad_sweep_and_bench_settings_are_usage_errors(tmp_path, capsys, argv, ini):
    out = tmp_path / "out.csv"
    if ini is not None:
        config = tmp_path / "sweep.ini"
        config.write_text(ini, encoding="utf-8")
        argv += ("--config", str(config))
    assert run_cli(*argv, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == ([config] if ini is not None else [])


LARGE = str(2**70)  # above cnf.MAX_COUNT


@pytest.mark.parametrize(
    "argv, ini",
    [
        (("build", "--mode", "s2gpa", "--rho", LARGE), None),
        (("solve", "--budget", LARGE), None),
        (BENCH + ("--budget", LARGE), None),
        (BENCH + ("--instances", LARGE), None),
        (SWEEP + ("--graphs", LARGE), None),
        (("sweep", "--jobs", "1"), SMALL_INI + f"[builder]\nmode = s2gpa\nrho = {LARGE}\n"),
        (("sweep", "--jobs", "1"), SMALL_INI.replace("instances = 1", f"instances = {LARGE}")),
        (("sweep", "--jobs", "1"), SMALL_INI.replace("graphs = 1", f"graphs = {LARGE}")),
    ],
    ids=["build-rho", "solve-budget", "bench-budget", "bench-instances", "sweep-graphs",
         "sweep-ini-rho", "sweep-ini-instances", "sweep-ini-graphs"],
)
def test_a_work_count_above_the_cap_is_a_usage_error(tmp_path, cnf, capsys, argv, ini):
    # each count is work to do, so one this large must be refused before
    # any of it starts
    if argv[0] in ("build", "solve"):
        argv += ("--in", str(cnf))
    if ini is not None:
        config = tmp_path / "sweep.ini"
        config.write_text(ini, encoding="utf-8")
        argv += ("--config", str(config))
    before = sorted(tmp_path.iterdir())
    with deadline(5):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"<= 2147483647, got {LARGE}" in err
    assert sorted(tmp_path.iterdir()) == before


def test_bench_tiny_grid(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli("bench", "--grid", "2.0,3.0", "--n-values", "10", "--instances", "2",
                   "--budget", "200", "--jobs", "1", "--out", str(out)) == 0
    rows = read(out).strip().splitlines()
    assert rows[0] == "row,solver,solved,maxsat,flips,n,alpha,verdict"
    assert sum(1 for r in rows if r.startswith("result,")) == 3


def test_bench_is_the_same_at_every_temperature(tmp_path, monkeypatch):
    # a level is one raw fitness, so the clause order, and with it the bench
    # table, does not move with T, not even at T = 1e-12, where a formula's
    # energies all lie within about 1e-12 of each other
    for temp in ("1", "1e-12"):
        (tmp_path / temp).mkdir()
        monkeypatch.chdir(tmp_path / temp)
        assert run_cli("bench", "--n-values", "25", "--instances", "4", "--budget", "500",
                       "--jobs", "1", "--temp", temp, "--out", "bench.csv") == 0
    assert read(tmp_path / "1" / "bench.csv") == read(tmp_path / "1e-12" / "bench.csv")
    manifests = [json.loads(read(tmp_path / temp / "bench.csv.manifest.json"))
                 for temp in ("1", "1e-12")]
    assert [m["arguments"].pop("temp") for m in manifests] == [1.0, 1e-12]
    assert manifests[0] == manifests[1]


def test_exit_codes_for_usage_errors(tmp_path, cnf, capsys):
    assert run_cli("frobnicate") == 1
    assert run_cli() == 1
    assert run_cli("gen", "--n", "5", "--m", "10", "--k", "9",
                   "--out", str(tmp_path / "x.cnf")) == 1
    # counts above cnf.MAX_COUNT
    assert run_cli("gen", "--n", "5", "--m", str(10**20), "--out", str(tmp_path / "x.cnf")) == 1
    assert run_cli("gen", "--n", str(10**20), "--m", "2", "--out", str(tmp_path / "x.cnf")) == 1
    assert not (tmp_path / "x.cnf").exists()
    assert run_cli("build", "--in", str(tmp_path / "missing.cnf"),
                   "--out", str(tmp_path / "g.json")) == 1
    assert run_cli("build", "--theta", "2.0", "--mode", "s2gpa", "--in", str(cnf),
                   "--out", str(tmp_path / "g.json")) == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_exit_codes_for_data_errors(tmp_path):
    bad_cnf = tmp_path / "bad.cnf"
    out = tmp_path / "g.json"
    for text in (
        "p cnf 3 2\n1 2 3 0\n",  # clause count mismatch
        "p cnf 10 1\n1_0 +2 0\n",  # literals that are not ASCII decimal integers
        "p cnf 3 1\n\u0661 2 3 0\n",
        "p cnf 1_0 1\n1 0\n",  # a count that is not an ASCII decimal integer
        "p cnf -1 3\n",  # a negative count
        "p cnf 3 1\n1 2 3 0\n",  # one clause: no network
        "p cnf 1000000000000 2\n1 2 3 0\n-1 2 3 0\n",  # n above cnf.MAX_COUNT
    ):
        bad_cnf.write_text(text, encoding="utf-8")
        assert run_cli("build", "--in", str(bad_cnf), "--out", str(out)) == 2
        assert not out.exists()  # no partial artifacts on failure
    assert run_cli("solve", "--in", str(bad_cnf), "--out", str(out)) == 2
    assert not out.exists()
    bad_graph = tmp_path / "bad.json"
    bad_graph.write_text("{}", encoding="utf-8")
    assert run_cli("classify", "--in", str(bad_graph)) == 2


def graph_of_another_formula(tmp_path, cnf, graph):
    other = tmp_path / "other.cnf"
    assert run_cli("gen", "--seed", "8", "--n", "20", "--m", "60", "--out", str(other)) == 0
    assert run_cli("build", "--seed", "1", "--in", str(other), "--out", str(tmp_path / "o.json")) == 0
    return ("solve", "--algo", "lc", "--graph", str(tmp_path / "o.json"), "--budget", "100",
            "--in", str(cnf), "--out", str(tmp_path / "r.json"))


def graph_with_no_link_events(tmp_path, cnf, graph):
    payload = json.loads(read(graph))
    payload["edges"] = []
    for node in payload["nodes"]:
        node.update(in_events=0, out_events=0, particles=0)
    (tmp_path / "bare.json").write_text(json.dumps(payload), encoding="utf-8")
    return ("classify", "--in", str(tmp_path / "bare.json"), "--out", str(tmp_path / "c.json"))


def result_file(tmp_path, cnf, edit):
    good = tmp_path / "good.json"
    assert run_cli("solve", "--budget", "500", "--in", str(cnf), "--out", str(good)) == 0
    (tmp_path / "bad.json").write_text(edit(read(good)), encoding="utf-8")
    return ("compare", str(good), str(tmp_path / "bad.json"), "--out", str(tmp_path / "v.json"))


def without_flips(text):
    payload = json.loads(text)
    del payload["results"][0]["flips"]
    return json.dumps(payload)


@pytest.mark.parametrize(
    "setup, message",
    [
        (graph_of_another_formula, "not built from this formula"),
        (graph_with_no_link_events, "graph has no edges"),
        (lambda tmp_path, cnf, graph: result_file(tmp_path, cnf, lambda text: "not json"),
         "not a valid result file"),
        (lambda tmp_path, cnf, graph: result_file(tmp_path, cnf, without_flips),
         "not a valid result file: 'flips'"),
    ],
    ids=["solve-graph-of-another-formula", "classify-no-edges", "compare-not-json",
         "compare-no-flips"],
)
def test_inconsistent_inputs_are_data_errors_that_write_nothing(tmp_path, cnf, graph, capsys,
                                                                setup, message):
    argv = setup(tmp_path, cnf, graph)
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_energy_too_large_for_a_float_is_data_error(tmp_path, capsys):
    # lowest to highest fitness 1/10, so the top energy is 1e308 * ln 10
    formula = tmp_path / "f.cnf"
    formula.write_text("p cnf 6 11\n" + "1 2 3 0\n" * 10 + "4 5 6 0\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("build", "--mode", "s2gpa", "--seed", "1", "--temp", "1e308",
                       "--in", str(formula), "--out", str(tmp_path / "g.json")) == 2
    assert capsys.readouterr().err == (
        "error: temperature 1e+308 gives an energy too large for a float\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["f.cnf"]


def test_empty_clause_is_data_error(tmp_path):
    bad_cnf = tmp_path / "empty-clause.cnf"
    bad_cnf.write_text("p cnf 3 1\n0\n", encoding="utf-8")
    out = tmp_path / "r.json"
    for algo in ("chainsat", "lc"):
        assert run_cli("solve", "--algo", algo, "--p1", "0.5", "--p2", "0.5",
                       "--graph", str(tmp_path / "unused.json"),
                       "--in", str(bad_cnf), "--out", str(out)) == 2
    assert run_cli("build", "--in", str(bad_cnf), "--out", str(tmp_path / "g.json")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty-clause.cnf"]


@pytest.mark.parametrize(
    "argv",
    [
        ("build", "--in", "bad", "--out", "g.json"),
        ("classify", "--in", "bad", "--out", "c.json"),
        ("spectrum", "--in", "bad", "--out", "s.json", "--dot", "s.dot"),
        ("solve", "--in", "bad", "--out", "r.json"),
        ("solve", "--algo", "lc", "--in", "f.cnf", "--graph", "bad", "--out", "r.json"),
        ("compare", "bad", "bad", "--out", "v.json"),
        ("sweep", "--config", "bad", "--jobs", "1", "--out", "s.csv"),
    ],
    ids=["build", "classify", "spectrum", "solve-in", "solve-graph", "compare", "sweep-config"],
)
def test_non_utf8_input_is_data_error(tmp_path, cnf, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b"p cnf 3 1\n1 2 \xff 0\n")
    before = sorted(tmp_path.iterdir())
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--in", "deep.json", "--out", "c.json"),
        ("spectrum", "--in", "deep.json", "--out", "s.json", "--dot", "s.dot"),
        ("solve", "--algo", "lc", "--in", "f.cnf", "--graph", "deep.json", "--out", "r.json"),
        ("compare", "deep.json", "deep.json", "--out", "v.json"),
    ],
    ids=["classify", "spectrum", "solve-graph", "compare"],
)
def test_deeply_nested_json_is_data_error(tmp_path, cnf, monkeypatch, capsys, argv):
    # json.loads raises RecursionError on this, not JSONDecodeError
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 200_000, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: deep.json: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


HUGE = "9" * 5001  # more digits than int() converts from text


@pytest.mark.parametrize(
    "kind, argv",
    [
        ("cnf", ("build", "--in", "huge", "--out", "g2.json")),
        ("cnf", ("solve", "--in", "huge", "--out", "r2.json")),
        ("graph", ("classify", "--in", "huge", "--out", "c.json")),
        ("result", ("compare", "r.json", "huge", "--out", "v.json")),
        ("ini", ("sweep", "--config", "huge", "--jobs", "1", "--out", "s.csv")),
    ],
    ids=["build", "solve", "classify", "compare", "sweep-config"],
)
def test_an_integer_too_long_to_convert_is_data_error(tmp_path, cnf, graph, monkeypatch, capsys,
                                                      kind, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli("solve", "--budget", "100", "--in", "f.cnf", "--out", "r.json") == 0
    text = {
        "cnf": lambda: f"p cnf 3 2\n1 -2 {HUGE} 0\n-1 2 3 0\n",
        "graph": lambda: re.sub(r'"seed": \d+', f'"seed": {HUGE}', read(graph), count=1),
        "result": lambda: re.sub(r'"flips": \d+', f'"flips": {HUGE}', read(tmp_path / "r.json")),
        "ini": lambda: SMALL_INI.replace("instances = 1", f"instances = {HUGE}"),
    }[kind]()
    assert HUGE in text
    (tmp_path / "huge").write_text(text, encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == before


def test_a_failed_write_removes_every_temporary_file(tmp_path, graph, monkeypatch, capsys):
    fdopen, calls = os.fdopen, []

    def failing_fdopen(fd, *args, **kwargs):
        calls.append(fd)
        if len(calls) == 3:  # the DOT file, after the spectrum and its manifest
            os.close(fd)
            raise OSError(errno.ENOSPC, "No space left on device")
        return fdopen(fd, *args, **kwargs)

    monkeypatch.setattr(os, "fdopen", failing_fdopen)
    before = sorted(tmp_path.iterdir())
    dot = tmp_path / "s.dot"
    assert run_cli("spectrum", "--in", str(graph), "--out", str(tmp_path / "s.json"),
                   "--dot", str(dot)) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write to {str(dot)!r}: [Errno 28] No space left on device\n")
    assert sorted(tmp_path.iterdir()) == before


def test_a_failed_rename_leaves_the_files_renamed_before_it(tmp_path, graph, monkeypatch,
                                                            capsys):
    replace, calls = os.replace, []

    def failing_replace(src, dst):
        calls.append(dst)
        if len(calls) == 3:  # the DOT file, after the spectrum and its manifest
            raise OSError(errno.EACCES, "Permission denied")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    before = [p.name for p in tmp_path.iterdir()]
    dot = tmp_path / "s.dot"
    assert run_cli("spectrum", "--in", str(graph), "--out", str(tmp_path / "s.json"),
                   "--dot", str(dot)) == 1
    assert capsys.readouterr() == (
        "", f"error: cannot write to {str(dot)!r}: [Errno 13] Permission denied\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        before + ["s.json", "s.json.manifest.json"])


def tampered_graph_exits(tmp_path, cnf, graph, edit):
    """Exit codes of classify, spectrum and solve --algo lc on an edited copy
    of ``graph``; none of them may write a file."""
    payload = json.loads(read(graph))
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    codes = [
        run_cli("classify", "--in", str(bad), "--out", str(tmp_path / "phase.json")),
        run_cli("spectrum", "--in", str(bad), "--out", str(tmp_path / "spectrum.json"),
                "--dot", str(tmp_path / "g.dot")),
        run_cli("solve", "--algo", "lc", "--graph", str(bad), "--budget", "100",
                "--in", str(cnf), "--out", str(tmp_path / "r.json")),
    ]
    assert sorted(tmp_path.iterdir()) == before
    return codes


def test_graph_with_clause_index_out_of_range_is_data_error(tmp_path, cnf, graph):
    def edit(payload):
        # the last inserted node takes index m, in the order and its edges too
        m = payload["m"]
        old = payload["insertion_order"][-1]
        payload["insertion_order"][-1] = m
        payload["nodes"][-1]["clause"] = m
        for edge in payload["edges"]:
            edge["u"] = m if edge["u"] == old else edge["u"]
            edge["v"] = m if edge["v"] == old else edge["v"]

    assert tampered_graph_exits(tmp_path, cnf, graph, edit) == [2, 2, 2]


def test_graph_with_non_numeric_energy_is_data_error(tmp_path, cnf, graph):
    def edit(payload):
        payload["nodes"][0]["energy"] = "low"

    assert tampered_graph_exits(tmp_path, cnf, graph, edit) == [2, 2, 2]


def test_graph_with_edge_to_unknown_node_is_data_error(tmp_path, cnf, graph):
    def edit(payload):
        payload["edges"][0]["v"] = payload["m"] + 5

    assert tampered_graph_exits(tmp_path, cnf, graph, edit) == [2, 2, 2]


def test_graph_with_unwritable_header_is_data_error(tmp_path, cnf, graph):
    def edit(payload):
        payload["first_clause_rule"] = None

    assert tampered_graph_exits(tmp_path, cnf, graph, edit) == [2, 2, 2]


@pytest.mark.parametrize(
    "key, value",
    [(key, value) for key, value, _ in SETTINGS_TAMPERS],  # every case applies to s2gpa
    ids=tamper_id,
)
def test_graph_with_setting_no_build_writes_is_data_error(tmp_path, cnf, graph, key, value):
    def edit(payload):
        payload[key] = value

    assert tampered_graph_exits(tmp_path, cnf, graph, edit) == [2, 2, 2]


@pytest.mark.parametrize(
    "dot",
    ["s.json", "s.json.manifest.json", os.path.join("sub", "..", "s.json")],
    ids=["artifact", "manifest", "same-file-other-spelling"],
)
def test_outputs_on_one_path_are_usage_errors(tmp_path, graph, monkeypatch, capsys, dot):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert run_cli("spectrum", "--in", str(graph), "--out", "s.json", "--dot", dot) == 1
    assert "are the same file" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_no_output_for_unknown_flag(tmp_path):
    out = tmp_path / "f.cnf"
    assert run_cli("gen", "--n", "5", "--m", "10", "--frumious", "--out", str(out)) == 1
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        run_cli("--version")
    assert info.value.code == 0


def flag_help(capsys, subcommand):
    """The --help text of ``subcommand``, one whitespace-normalized entry per
    option flag."""
    with pytest.raises(SystemExit) as info:
        run_cli(subcommand, "--help")
    assert info.value.code == 0
    options = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
    entries = re.split(r" (?=--[a-z])", options)
    return {entry.split()[0][2:]: entry for entry in entries if entry.startswith("--")}


def test_help_shows_each_config_default_once(capsys):
    def builder(cfg):
        return {"theta": cfg.theta, "rho": cfg.rho, "temp": cfg.temperature,
                "first": cfg.first_clause_rule}

    sweep_cfg = SweepConfig(n_values=(10,), alphas=(1.0,))
    bench_cfg = BenchConfig()
    expected = {
        "sweep": {"instances": sweep_cfg.instances, "graphs": sweep_cfg.graphs_per_instance,
                  "k": sweep_cfg.k, "seed": sweep_cfg.seed_root, "mode": sweep_cfg.mode,
                  **builder(sweep_cfg)},
        "bench": {"k": bench_cfg.k, "grid": "auto", "solvers": ",".join(SOLVERS),
                  "n-values": ",".join(map(str, bench_cfg.n_values)),
                  "instances": bench_cfg.instances, "budget": DESK_BUDGET,
                  "p1": "per-k table", "p2": "per-k table", "mode": bench_cfg.graph_mode,
                  "seed": bench_cfg.seed_root, **builder(bench_cfg)},
    }
    for subcommand, defaults in expected.items():
        entries = flag_help(capsys, subcommand)
        for flag, value in defaults.items():
            entry = entries[flag]
            assert entry.endswith(f"(default: {value})"), entry
            assert entry.count("default") == 1, entry
        assert not any("(default: None)" in entry for entry in entries.values())
    assert flag_help(capsys, "solve")["budget"].endswith(f"(default: {DEFAULT_BUDGET})")


def test_sweep_and_bench_defaults_come_from_the_configs(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "sweep", lambda cfg, jobs: seen.append(cfg) or [])
    monkeypatch.setattr(cli, "benchmark",
                        lambda cfg, jobs: seen.append(cfg) or BenchReport((), {}))
    assert run_cli("sweep", "--n-values", "10", "--alphas", "1.0",
                   "--out", str(tmp_path / "s.csv")) == 0
    assert run_cli("bench", "--out", str(tmp_path / "b.csv")) == 0
    assert seen == [SweepConfig(n_values=(10,), alphas=(1.0,)), BenchConfig()]


def test_module_entry_point_exit_codes():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "satbec", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    version = run_module("--version")
    assert version.returncode == 0
    assert version.stdout.strip() == f"satbec {__version__}"
    unknown = run_module("frobnicate")
    assert unknown.returncode == 1
    assert unknown.stderr.startswith("error:")


def test_full_pipeline_rerun_identical(tmp_path):
    cnf = tmp_path / "f.cnf"
    g = tmp_path / "g.json"
    phase = tmp_path / "p.json"

    def pipeline():
        assert run_cli("gen", "--seed", "5", "--n", "15", "--m", "40", "--out", str(cnf)) == 0
        assert run_cli("build", "--mode", "s2g", "--seed", "6", "--in", str(cnf),
                       "--out", str(g)) == 0
        assert run_cli("classify", "--in", str(g), "--out", str(phase)) == 0
        return read(cnf) + read(g) + read(phase)

    assert pipeline() == pipeline()


def test_every_json_artifact_and_manifest_has_one_layout(tmp_path, capsys):
    """Each JSON file the CLI writes, manifests included, is laid out as
    ``json.dumps(sort_keys=True, indent=2)`` plus a newline, also where it
    records non-ASCII paths."""
    work = tmp_path / "fórmulas ☃"
    work.mkdir()

    def path(name):
        return str(work / name)

    runs = [
        ("gen", "--seed", "5", "--n", "15", "--m", "40", "--out", path("f.cnf")),
        ("build", "--mode", "s2gpa", "--seed", "6", "--in", path("f.cnf"), "--out", path("g.json")),
        ("classify", "--in", path("g.json"), "--out", path("c.json")),
        ("spectrum", "--in", path("g.json"), "--out", path("s.json"), "--dot", path("s.dot")),
        ("solve", "--algo", "chainsat", "--budget", "500", "--seed", "3", "--in", path("f.cnf"),
         "--out", path("a.json")),
        ("solve", "--algo", "lc", "--graph", path("g.json"), "--budget", "500", "--seed", "3",
         "--in", path("f.cnf"), "--out", path("b.json")),
        ("compare", path("a.json"), path("b.json"), "--out", path("v.json")),
        ("sweep", "--n-values", "10", "--alphas", "2.0", "--instances", "1", "--graphs", "2",
         "--jobs", "1", "--out", path("sweep.csv")),
        ("bench", "--grid", "2.0", "--n-values", "10", "--instances", "1", "--budget", "200",
         "--jobs", "1", "--out", path("bench.csv")),
    ]
    for argv in runs:
        assert run_cli(*argv) == 0, argv
    texts = [read(p) for p in sorted(work.iterdir()) if p.suffix == ".json"]
    assert len(texts) == 6 + 10  # six JSON artifacts, one manifest per output
    assert run_cli("classify", "--in", path("g.json")) == 0
    texts.append(capsys.readouterr().out)
    for text in texts:
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# sha256 of every file the runs below write, and of classify on stdout: the
# bytes each artifact keeps however its payload is built
PINNED_SHA256 = {
    "a.json":
        "a170453dd728b88a88a415b8753fc39fe8021f861abbcb11db57eff59a7e320d",
    "a.json.manifest.json":
        "6b4eafd589fa963294b6eab16fbf10f730cecd092d1c53c4ea921984808a9f9e",
    "b.json":
        "7b47cbd25b82489a3cd8ff7b23618582e9ed237b39db9604b10936682eb39b8b",
    "b.json.manifest.json":
        "65389cae32b936dba2ae4c9b2370b6cac489ee5a37200bf364049183c92980ce",
    "bench.csv":
        "937a8011cd2785f5f4212bc24fc91a601277bf5d8c5a75d9fef41e92dd464cf4",
    "bench.csv.manifest.json":
        "a68e97407bcbbfc5ea55b06c97dca6335f043a87ed72c927bb7e79615c9bf10b",
    "c.json":
        "04c782561dda87f504817e951a32c3d5b3596e0c3b77f3f49a1a9f8e783701ec",
    "c.json.manifest.json":
        "e6036d4509ab7af5503d41d20932457e272d40b60f0f0311c3c585385c69173f",
    "classify stdout":
        "04c782561dda87f504817e951a32c3d5b3596e0c3b77f3f49a1a9f8e783701ec",
    "f.cnf":
        "bdcb633feb305c6cdfbe0ea5ae3600ff508115cf8827e1a0ba765ec6b4062bb7",
    "f.cnf.manifest.json":
        "be366ab31e6b92276a463a26d0c7c246209979e6a4775c2e43540764dbd7ada8",
    "g.json":
        "0af5769bb28080b25fcde0b99c14985b5d89141c23707d291bf09863673e63f8",
    "g.json.manifest.json":
        "b3f68f04f3f290f6d2d08eda762e3bf7e70679441df371d8698ba248aad7528b",
    "s.dot":
        "a90013c33923d27b1d39a8469ff47319b47c60b1046a7b0aa0d330c3467a05a4",
    "s.dot.manifest.json":
        "fa3da3e6b55bdaa99c652044b08a3ff948b25440c781377c4b4f0e6b150a1946",
    "s.json":
        "9636ada8851da0545f4be0e877fcd2c255ccfdfc086b8d93afcd781a01110667",
    "s.json.manifest.json":
        "fa3da3e6b55bdaa99c652044b08a3ff948b25440c781377c4b4f0e6b150a1946",
    "sweep.csv":
        "9057291f65724963b95d6e9701eb5457b6e91f5192dabc6e47ec53aad5b2f613",
    "sweep.csv.manifest.json":
        "05a4dd91a6defa304dab21d5dc92cc34cc88de94a4e29060943d6dca028f1bdf",
    "sweep.ini":
        "f7c3d708bd8a956774a7fed19b1b4ee707be1b72cddac7f2cb3582290ed351fc",
    "sweep_ini.csv":
        "a47bcc94b8f4b600705222169e186f0f1e22821d875d25a5a69774527ef88be0",
    "sweep_ini.csv.manifest.json":
        "690755ca35a11ebacee1476740428287c2ac4c1c4e5bd6d3f9eb9cc7d5d1f95a",
    "v.json":
        "4f5141ed1f128d81fce2c6c3c68d7b59c705119d07aa2fcd7c86c8f2e29f19a8",
    "v.json.manifest.json":
        "59a220d1a9e5a5e567b7a62a84d29e4e7b553474b4318b4bd8da8b4f0ff8325b",
}


def test_artifact_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("sweep.ini").write_text(
        "[sweep]\nn_values = 10 12\nalphas = 1.0 2\ninstances = 1\ngraphs = 2\n"
        "[builder]\nmode = s2g\nfirst = fittest\n",
        encoding="utf-8",
    )
    runs = [
        ("gen", "--seed", "5", "--n", "15", "--m", "40", "--out", "f.cnf"),
        ("build", "--mode", "s2gpa", "--seed", "6", "--in", "f.cnf", "--out", "g.json"),
        ("classify", "--in", "g.json", "--out", "c.json"),
        ("spectrum", "--in", "g.json", "--out", "s.json", "--dot", "s.dot"),
        ("solve", "--algo", "chainsat", "--budget", "500", "--seed", "3", "--in", "f.cnf",
         "--out", "a.json"),
        ("solve", "--algo", "lc", "--graph", "g.json", "--budget", "500", "--seed", "3",
         "--in", "f.cnf", "--out", "b.json"),
        ("compare", "a.json", "b.json", "--out", "v.json"),
        ("sweep", "--n-values", "10", "--alphas", "1.0,2.0", "--instances", "1", "--graphs",
         "2", "--jobs", "1", "--out", "sweep.csv"),
        ("sweep", "--config", "sweep.ini", "--jobs", "1", "--out", "sweep_ini.csv"),
        ("bench", "--grid", "2.0,3.0", "--n-values", "10", "--instances", "1", "--budget",
         "200", "--jobs", "1", "--out", "bench.csv"),
    ]
    for argv in runs:
        assert run_cli(*argv) == 0, argv
    digests = {p.name: sha256(read(p)) for p in sorted(tmp_path.iterdir())}
    assert run_cli("classify", "--in", "g.json") == 0
    digests["classify stdout"] = sha256(capsys.readouterr().out)
    assert digests == PINNED_SHA256
