"""The CLI's input contract, checked by generators: a subcommand run on a
mutated input file, or with one flag value swapped for an extreme one,
either exits 0 and writes a manifest beside every artifact, or exits 1 or 2
with an ``error:`` line and writes nothing."""

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import deadline
from satbec.cli import main

# 2**70 is above cnf.MAX_COUNT, which bounds every count that is work to
# do, so no swapped-in token starts work that does not end
TOKENS = ("0", "-1", str(2**70), "1e308", "nan", "9" * 5001)
SWEEP_INI = ("[sweep]\nn_values = 10\nalphas = 2.0\ninstances = 1\ngraphs = 1\nk = 3\nseed = 0\n"
             "[builder]\nmode = s2gpa\ntheta = 0.33\nrho = 1\ntemperature = 1.0\n")

# (the input file a run reads that is mutated, the run's argv); every other
# file it reads is valid
RUNS = [
    ("f.cnf", ("build", "--seed", "1", "--in", "f.cnf", "--out", "g2.json")),
    ("f.cnf", ("solve", "--budget", "100", "--in", "f.cnf", "--out", "r2.json")),
    ("f.cnf", ("solve", "--algo", "lc", "--budget", "100", "--graph", "g.json", "--in", "f.cnf",
               "--out", "r2.json")),
    ("g.json", ("classify", "--in", "g.json", "--out", "c.json")),
    ("g.json", ("spectrum", "--in", "g.json", "--out", "s.json", "--dot", "s.dot")),
    ("g.json", ("solve", "--algo", "nlc", "--budget", "100", "--graph", "g.json", "--in", "f.cnf",
                "--out", "r2.json")),
    ("r.json", ("compare", "q.json", "r.json", "--out", "v.json")),
    ("s.ini", ("sweep", "--config", "s.ini", "--jobs", "1", "--out", "s.csv")),
]


def input_files(directory) -> dict:
    """The bytes of ``directory``'s f.cnf and of the graph (g.json) and
    solver result (r.json, and as q.json) built from it, by name."""
    cnf, graph, result = (str(directory / name) for name in ("f.cnf", "g.json", "r.json"))
    assert main(["build", "--seed", "1", "--in", cnf, "--out", graph]) == 0
    assert main(["solve", "--budget", "100", "--in", cnf, "--out", result]) == 0
    files = {name: (directory / name).read_bytes() for name in ("f.cnf", "g.json", "r.json")}
    return {**files, "q.json": files["r.json"]}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid input file of each kind, by name, at n = 12."""
    directory = tmp_path_factory.mktemp("valid")
    assert main(["gen", "--seed", "7", "--n", "12", "--m", "30",
                 "--out", str(directory / "f.cnf")]) == 0
    return {**input_files(directory), "s.ini": SWEEP_INI.encode()}


def mutate(data: bytes, draw) -> bytes:
    """``data`` truncated, with one byte flipped, with a non-UTF-8 byte put
    in, or with one token swapped for a value from ``TOKENS``."""
    kind = draw(st.sampled_from(["truncate", "flip", "non-utf8", "token"]))
    at = draw(st.integers(0, len(data) - 1))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "non-utf8":
        return data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    token = draw(st.sampled_from(list(re.finditer(rb'[^\s,:=\[\]{}"]+', data))))
    return data[:token.start()] + draw(st.sampled_from(TOKENS)).encode() + data[token.end():]


def run_in(files: dict, argv) -> tuple[int, set, str]:
    """Run ``argv`` under ``deadline(5)`` in a new directory holding ``files``
    (name -> bytes): its exit code, the names it added and its stderr.  The
    run must remove no file."""
    with tempfile.TemporaryDirectory() as directory:
        for name, data in files.items():
            with open(os.path.join(directory, name), "wb") as fh:
                fh.write(data)
        before = set(os.listdir(directory))
        stderr = io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stderr(stderr), deadline(5):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
        after = set(os.listdir(directory))
        assert after >= before
    return code, after - before, stderr.getvalue()


def assert_artifacts_with_manifests(written: set, stderr: str):
    artifacts = {p for p in written if not p.endswith(".manifest.json")}
    assert artifacts and written == artifacts | {p + ".manifest.json" for p in artifacts}
    assert stderr == ""


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from(RUNS), st.data())
def test_a_mutated_input_file_yields_its_artifacts_or_an_error_and_nothing(valid, run, data):
    name, argv = run
    files = {other: mutate(text, data.draw) if other == name else text
             for other, text in valid.items()}
    code, written, stderr = run_in(files, argv)
    if code == 0:
        assert_artifacts_with_manifests(written, stderr)
    else:
        assert code in (1, 2)
        assert stderr.startswith("error: ") and "Traceback" not in stderr
        assert written == set()


# flag values swapped in one at a time: zero, negative, above every count
# cap, above every float, not a number, infinite, empty and not ASCII
VALUES = ("0", "-1", str(2**70), "1e308", "nan", "inf", "", "é€", "\u2028")

# a small valid argv of each subcommand, setting every flag it takes but
# --jobs, which stays 1 so that no worker pool starts; no swap takes n above
# 20, the instances above 2 or a budget above 100
ARGVS = [
    ("gen", "--seed", "1", "--k", "3", "--n", "12", "--m", "30", "--out", "f2.cnf"),
    ("build", "--mode", "s2gpa", "--theta", "0.5", "--rho", "2", "--temp", "1.0", "--first",
     "fittest", "--seed", "1", "--in", "f.cnf", "--out", "g2.json"),
    ("classify", "--in", "g.json", "--out", "c.json"),
    ("spectrum", "--in", "g.json", "--out", "s.json", "--dot", "s.dot"),
    ("solve", "--algo", "lc", "--p1", "0.1", "--p2", "0.2", "--budget", "100", "--seed", "1",
     "--in", "f.cnf", "--graph", "g.json", "--out", "r2.json"),
    ("compare", "q.json", "r.json", "--out", "v.json"),
    ("sweep", "--n-values", "10", "--alphas", "2.0", "--instances", "2", "--graphs", "1", "--k",
     "3", "--seed", "0", "--mode", "s2gpa", "--theta", "0.33", "--rho", "1", "--temp", "1.0",
     "--first", "random", "--jobs", "1", "--out", "s.csv"),
    ("bench", "--k", "3", "--grid", "2.0", "--solvers", "chainsat", "--n-values", "10",
     "--instances", "1", "--budget", "100", "--p1", "0.1", "--p2", "0.2", "--mode", "s2g",
     "--theta", "0.33", "--rho", "1", "--temp", "1.0", "--first", "random", "--seed", "0",
     "--jobs", "1", "--out", "b.csv"),
]


def swap(argv, flag: str, value: str) -> list:
    """``argv`` with the value of ``flag`` swapped for ``value``."""
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


@st.composite
def swapped_argvs(draw) -> list:
    argv = draw(st.sampled_from(ARGVS))
    flags = [arg for arg in argv if arg.startswith("--") and arg != "--jobs"]
    return swap(argv, draw(st.sampled_from(flags)), draw(st.sampled_from(VALUES)))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The input files the argvs read.  The last clause of f.cnf has a tenth
    of the others' fitness, so at --temp 1e308 its energy overflows."""
    directory = tmp_path_factory.mktemp("argv")
    (directory / "f.cnf").write_bytes(b"p cnf 6 11\n" + b"1 2 3 0\n" * 10 + b"4 5 6 0\n")
    return input_files(directory)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(swapped_argvs())
@example(swap(ARGVS[1], "--temp", "1e308"))  # an energy too large for a float
def test_a_swapped_flag_value_yields_its_artifacts_or_one_error_line_and_nothing(argv_files,
                                                                                  argv):
    code, written, stderr = run_in(argv_files, argv)
    if code == 0:
        assert_artifacts_with_manifests(written, stderr)
    else:
        assert code in (1, 2)
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr
        assert written == set()
