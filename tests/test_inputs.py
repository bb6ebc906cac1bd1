"""The API's input contract: every public constructor and entry point either
returns or refuses a bad value with a ``ValueError``, never a ``TypeError``
or an ``OverflowError``."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satbec.builder import BuilderConfig
from satbec.cnf import Formula, generate_random
from satbec.experiments import BenchConfig, SweepConfig, benchmark, sweep
from satbec.seeding import derive_seed
from satbec.solver import ClauseOrder, flip_probabilities, solve

# a valid seed or budget this large would start real work, so it is never
# drawn for one
LARGE = 2**70
HOSTILE = (0, -1, LARGE, 1e308, math.nan, math.inf, -math.inf, "", "x", None, True, 1.5,
           np.int64(3), np.float32(0.5))
WORK = {"seed", "seed_root", "budget", "root"}

FORMULA = generate_random(1, 3, 10, 20)
ORDER = ClauseOrder(rank=tuple(range(FORMULA.m)))
SETTINGS = {"temperature": 1.0, "theta": 0.33, "rho": 1, "first_clause_rule": "random"}
# one grid point of one small build or bench group, so any accepted jobs
# runs in this process
SWEEP = SweepConfig(n_values=(10,), alphas=(2.0,), instances=1, graphs_per_instance=1)
BENCH = BenchConfig(n_values=(10,), alphas=(2.0,), solvers=("chainsat",), instances=1, budget=100)

# (entry point, valid small keyword arguments, the fields that are tuples, whose
# one item a hostile value replaces)
CALLS = [
    (lambda n, literal: Formula(n, ((literal, 2),)), {"n": 3, "literal": 1}, ()),
    (generate_random, {"seed": 1, "k": 3, "n": 10, "m": 20}, ()),
    (BuilderConfig, {**SETTINGS, "mode": "s2gpa", "seed": 0}, ()),
    (SweepConfig, {**SETTINGS, "mode": "s2gpa", "n_values": (10,), "alphas": (2.0,),
                   "instances": 1, "graphs_per_instance": 1, "k": 3, "seed_root": 0},
     ("n_values", "alphas")),
    (BenchConfig, {**SETTINGS, "graph_mode": "s2g", "n_values": (10,), "alphas": (2.0,),
                   "solvers": ("chainsat", "lc"), "instances": 1, "budget": 100, "p1": None,
                   "p2": None, "k": 3, "seed_root": 0},
     ("n_values", "alphas", "solvers")),
    (flip_probabilities, {"k": 3, "p1": 0.5, "p2": None}, ()),
    (lambda **kwargs: solve(FORMULA, order=ORDER, **kwargs),
     {"algo": "lc", "p1": None, "p2": 0.5, "budget": 100, "seed": 0}, ()),
    (lambda root, entry: derive_seed(root, 1, entry), {"root": 1, "entry": 2}, ()),
    (lambda jobs: sweep(SWEEP, jobs=jobs), {"jobs": 1}, ()),
    (lambda jobs: benchmark(BENCH, jobs=jobs), {"jobs": 1}, ()),
]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.sampled_from(CALLS), st.data())
def test_a_hostile_value_is_returned_or_refused_with_a_value_error(call, data):
    fn, valid, tuples = call
    field = data.draw(st.sampled_from(sorted(valid)), label="field")
    value = data.draw(st.sampled_from(
        [v for v in HOSTILE if not (field in WORK and v is LARGE)]), label="value")
    kwargs = {**valid, field: (value,) if field in tuples else value}
    try:
        fn(**kwargs)
    except ValueError:
        pass


@pytest.mark.parametrize("root, path", [(1.5, (0,)), (True, (0,)), (1, (1.5,)), ("a", (0,)),
                                        (-1, ()), (1, (2, -1)), (np.int64(1), ())])
def test_derive_seed_rejects_bad_values(root, path):
    with pytest.raises(ValueError):
        derive_seed(root, *path)
