"""The CLI's file contract, checked by a generator: a subcommand run on a
mutated input file either exits 0 and writes a manifest beside every
artifact, or exits 1 or 2 with an ``error:`` line and writes nothing."""

import contextlib
import io
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satbec.cli import main

LARGE = str(2**70)
TOKENS = ("0", "-1", LARGE, "1e308", "nan", "9" * 5001)
# sweep INI keys whose accepted value is work to do, so LARGE is never
# swapped in for their value
WORK = {b"instances", b"graphs", b"rho"}
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


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The bytes of one valid input file of each kind, by name, at n = 12."""
    directory = tmp_path_factory.mktemp("valid")
    cnf, graph, result = (str(directory / name) for name in ("f.cnf", "g.json", "r.json"))
    assert main(["gen", "--seed", "7", "--n", "12", "--m", "30", "--out", cnf]) == 0
    assert main(["build", "--seed", "1", "--in", cnf, "--out", graph]) == 0
    assert main(["solve", "--budget", "100", "--in", cnf, "--out", result]) == 0
    files = {name: (directory / name).read_bytes() for name in ("f.cnf", "g.json", "r.json")}
    return {**files, "q.json": files["r.json"], "s.ini": SWEEP_INI.encode()}


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
    key = data[data.rfind(b"\n", 0, token.start()) + 1:token.start()].partition(b"=")[0].strip()
    value = draw(st.sampled_from([t for t in TOKENS if not (t == LARGE and key in WORK)]))
    return data[:token.start()] + value.encode() + data[token.end():]


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.sampled_from(RUNS), st.data())
def test_a_mutated_input_file_yields_its_artifacts_or_an_error_and_nothing(valid, run, data):
    name, argv = run
    with tempfile.TemporaryDirectory() as directory:
        for other, text in valid.items():
            with open(os.path.join(directory, other), "wb") as fh:
                fh.write(mutate(text, data.draw) if other == name else text)
        before = set(os.listdir(directory))
        stderr = io.StringIO()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
        written = set(os.listdir(directory)) - before
        assert set(os.listdir(directory)) >= before
    if code == 0:
        artifacts = {p for p in written if not p.endswith(".manifest.json")}
        assert artifacts and written == artifacts | {p + ".manifest.json" for p in artifacts}
        assert stderr.getvalue() == ""
    else:
        assert code in (1, 2)
        assert stderr.getvalue().startswith("error: ") and "Traceback" not in stderr.getvalue()
        assert written == set()
