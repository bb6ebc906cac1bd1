"""Formula model, DIMACS round trips, random generation, evaluation."""

import dataclasses
import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builder_oracle import literal_code
from cnf_oracle import reference_floyd, reference_generate, reference_tail_shuffle
from conftest import SAMPLE_10, SAMPLE_20, formula_from_signed
from satbec import cnf
from satbec.cnf import (
    DimacsError,
    Formula,
    evaluate,
    formula_sha256,
    generate_random,
    parse_dimacs,
    serialize_dimacs,
)


@pytest.mark.parametrize(
    "n, clauses, message",
    [
        (3, ((1, 0, 2),), "0 is not a literal"),
        (3, ((1, 2, 4),), "literal 4 out of range for n=3"),
        (3, ((1, -4, 2),), "literal -4 out of range for n=3"),
        (3, ((1, 2), (True, 3)), "must be ints"),  # a set would hold True as 1
        (3, ((1, 2), (1.0, 3)), "must be ints"),
        (4, ((1, 2, 3), (1, 2)), "non-uniform clause length"),
        (3, ((),), "at least one literal"),
        (-1, (), "n must be a non-negative integer <= 2147483647, got -1"),
        (2.5, ((1,),), "n must be a non-negative integer <= 2147483647, got 2.5"),
        (2**31, (), "n must be a non-negative integer <= 2147483647, got"),  # above cnf.MAX_COUNT
        (3, ([1, 2],), "tuple of tuples"),
        (3, [(1, 2)], "tuple of tuples"),
    ],
    ids=["zero", "above-n", "below-minus-n", "bool", "float", "unequal-lengths",
         "empty-clause", "negative-n", "float-n", "n-above-cap", "list-clause",
         "list-of-clauses"],
)
def test_formula_rejects_invalid_clauses(n, clauses, message):
    with pytest.raises(ValueError, match=message):
        Formula(n=n, clauses=clauses)


def test_parse_reports_formula_errors_as_dimacs_errors():
    with pytest.raises(DimacsError, match="literal 4 out of range for n=3"):
        parse_dimacs("p cnf 3 1\n1 2 4 0\n")


def test_formula_pickle_round_trip_ignores_cache(sample20):
    fresh = pickle.dumps(sample20)
    formula_sha256(sample20)
    assert not sample20.duplicate_vars
    assert pickle.dumps(sample20) == fresh
    back = pickle.loads(fresh)
    assert back == sample20
    assert hash(back) == hash(sample20)
    assert back.clauses == SAMPLE_20


def test_formula_digest_cache_leaves_identity_alone(sample20):
    fresh = formula_from_signed(SAMPLE_20, 20)
    before = (pickle.dumps(sample20), repr(sample20), hash(sample20))
    digest = formula_sha256(sample20)
    assert digest == "64a82e6fead7910b820b0611d07f1108832fddc653d41617c6a346effb7c4b6c"
    assert formula_sha256(sample20) is digest  # computed once, then cached
    assert (pickle.dumps(sample20), repr(sample20), hash(sample20)) == before
    assert sample20 == fresh and fresh == sample20
    back = pickle.loads(pickle.dumps(sample20))
    assert "_sha256" not in vars(back)
    assert formula_sha256(back) == digest


@pytest.mark.parametrize(
    "signed, n, digest",
    [
        (SAMPLE_10, 60, "b86ebd551854f5ba581f2a65e8c2666fbc45a133849498b0c1eb4232e3c1c6f7"),
        (SAMPLE_20, 20, "64a82e6fead7910b820b0611d07f1108832fddc653d41617c6a346effb7c4b6c"),
    ],
)
def test_sample_dimacs_and_digest_are_pinned(signed, n, digest):
    f = formula_from_signed(signed, n)
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in signed)
    assert serialize_dimacs(f) == f"p cnf {n} {len(signed)}\n" + body
    assert formula_sha256(f) == digest


def test_formula_counts():
    f = generate_random(0, 3, 10, 42)
    assert (f.n, f.k, f.m) == (10, 3, 42)
    assert (Formula(n=4, clauses=()).k, Formula(n=4, clauses=()).m) == (0, 0)


BASIC = """c example
p cnf 4 3
1 -2 3 0
-1 2 4 0
2 -3 -4 0
"""


def test_parse_basic():
    f = parse_dimacs(BASIC)
    assert (f.n, f.k, f.m) == (4, 3, 3)
    assert f.clauses[0] == (1, -2, 3)
    assert not f.duplicate_vars


def test_parse_accepts_multiline_and_percent_footer():
    # a comment may hold any character, '+', '_' and non-ASCII ones included
    text = "c x_1 + \u00fc\np cnf 3 2\n1 2\n3 0 -1\n-2 -3 0\n%\n0\nnoise after footer\n"
    f = parse_dimacs(text)
    assert f.m == 2
    assert f.clauses == ((1, 2, 3), (-1, -2, -3))


def test_parse_flags_repeated_variable():
    f = parse_dimacs("p cnf 3 1\n1 -1 2 0\n")
    assert f.duplicate_vars


@pytest.mark.parametrize("signed", [(1, 1, 2), (1, -1, 2)])
def test_duplicate_vars_is_read_from_the_clauses(signed):
    hand_built = Formula(n=3, clauses=(signed,))
    assert hand_built.duplicate_vars
    assert parse_dimacs(serialize_dimacs(hand_built)) == hand_built
    assert not generate_random(0, 3, 3, 5).duplicate_vars
    assert {f.name for f in dataclasses.fields(Formula)} == {"n", "clauses"}


@pytest.mark.parametrize(
    "text",
    [
        "1 2 3 0\n",  # clause before header
        "p cnf 3 1\np cnf 3 1\n1 2 3 0\n",  # duplicate header
        "p dnf 3 1\n1 2 3 0\n",  # wrong format tag
        "p cnf 3 one\n1 2 3 0\n",  # non-integer count
        "p cnf 3 2\n1 2 3 0\n",  # count mismatch
        "p cnf 3 1\n1 2 x 0\n",  # bad token
        "p cnf 3 1\n1 2 4 0\n",  # literal out of range
        "p cnf 3 1\n1 2 3\n",  # unterminated clause
        "p cnf 4 2\n1 2 3 0\n1 2 0\n",  # non-uniform length
        "",  # missing header
        "p cnf 10 1\n1_0 +2 0\n",  # underscore and plus sign in literals
        "p cnf 3 1\n1 +2 3 0\n",  # plus sign
        "p cnf 3 1\n\u0661 2 3 0\n",  # non-ASCII digit
        "p cnf 1_0 1\n1 0\n",  # underscore in a count
        "p cnf 3 \u0661\n1 2 3 0\n",  # non-ASCII digit in a count
        "p cnf 3 +1\n1 2 3 0\n",  # plus sign in a count
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


def test_dimacs_error_is_value_error():
    assert issubclass(DimacsError, ValueError)


def test_serialize_round_trip():
    f = generate_random(3, 3, 12, 30)
    text = serialize_dimacs(f)
    assert text.startswith("p cnf 12 30\n")
    assert text.endswith(" 0\n")
    assert parse_dimacs(text) == f
    assert serialize_dimacs(parse_dimacs(text)) == text


def test_formula_sha256_tracks_content():
    f = generate_random(1, 3, 10, 20)
    g = generate_random(2, 3, 10, 20)
    assert formula_sha256(f) == formula_sha256(parse_dimacs(serialize_dimacs(f)))
    assert formula_sha256(f) != formula_sha256(g)


def test_generate_random_shape_and_determinism():
    f = generate_random(11, 4, 9, 25)
    assert (f.n, f.k, f.m) == (9, 4, 25)
    for clause in f.clauses:
        variables = tuple(map(abs, clause))
        assert len(set(variables)) == f.k  # distinct variables per clause
        assert all(1 <= v <= 9 for v in variables)
    assert generate_random(11, 4, 9, 25) == f
    assert generate_random(12, 4, 9, 25) != f


def test_generate_random_polarity_balance():
    f = generate_random(5, 3, 30, 400)
    assert {type(lit) for c in f.clauses for lit in c} == {int}
    negs = sum(lit < 0 for c in f.clauses for lit in c)
    assert 0.45 < negs / (3 * 400) < 0.55


# digests of the per-clause choice + random stream, one case on each side of
# numpy's switch from Floyd's algorithm to a tail shuffle (n > 10,000 and
# k > n // 50), and the edges k = n, n = 1 and m = 0
GENERATED = {
    (0, 3, 100, 800): "f0ba680f65aae0d3c3a137545eccd4ea02ef7f8ba0db1d6da131e332851816c4",
    (1, 3, 10**4, 42_560): "72c8ec2b72623cb1d28d32a9dbc99379dc0bee4f56ad954737c53fdc28403f51",
    (2, 200, 10_001, 3): "b404df0a9e02862850ed9c219c66306ee02df5f1a9a8dfae4c0e12b0584c87d5",
    (3, 202, 10_001, 3): "5f3a3a20cd0d01442ea426044f992c63154e556287c58666f439a11710b0f185",
    (4, 10_001, 10_001, 1): "52de7461ce80888ec60d3f3ab0c39460788ca9dece93684c9b9a3c2a1cb1afc0",
    (5, 1, 1, 4): "43f7a59973db194c6582508f20734e5c407ea28890b11e8ef14c53d2a097b80b",
    (6, 3, 50, 0): "a60fa42e2e4f71d874246d0348c0d7c72acf02fc4cf739cd1299624efcdfbe2b",
}


@pytest.mark.parametrize("args", GENERATED, ids=map(str, GENERATED))
def test_generate_random_stream_is_pinned(args):
    assert formula_sha256(generate_random(*args)) == GENERATED[args]


@st.composite
def generator_args(draw):
    """(seed, k, n, m) with k 1-6 and n up to 12, so k = n is common."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k, 12))
    return draw(st.integers(0, 2**32)), k, n, draw(st.integers(0, 30))


@settings(max_examples=300, deadline=None)
@given(generator_args())
@example((0, 1, 1, 5))
@example((1, 4, 4, 9))
@example((2, 3, 7, 0))
def test_generate_random_matches_reference(args):
    assert generate_random(*args) == reference_generate(*args)


@pytest.mark.parametrize(
    "args",
    [(2, 200, 10_001, 3), (3, 202, 10_001, 3), (4, 10_001, 10_001, 1), (9, 10_001, 10_001, 2),
     (10, 9_000, 10_001, 2), (12, 401, 20_000, 5)],
)
def test_generate_random_tail_shuffle_matches_reference(args):
    """On both sides of numpy's switch to a tail shuffle, including clauses
    whose swap partners below the last k positions repeat."""
    assert generate_random(*args) == reference_generate(*args)


@pytest.mark.parametrize(
    "args", [(7, 1000, 5000, 4), (8, 64, 64, 40), (9, 100, 1000, 30), (10, 3000, 10_000, 2)]
)
def test_generate_random_floyd_matches_reference_at_large_k(args):
    """Floyd's sampling at large k and few clauses; at k = n most steps
    collide."""
    assert generate_random(*args) == reference_generate(*args)


@pytest.mark.parametrize("k", [2, 3, 7, 11, 19, 35])
def test_floyd_follows_the_longest_collision_chain(k):
    """At k = n, draws 0, 0, 1, ..., k - 2 make step 1 repeat step 0's draw
    and each later step t draw the top value t - 1 that step t - 1 took, so
    one chain of collisions runs through every step.  Other rows are random."""
    rng = np.random.default_rng(k)
    floyd = [rng.integers(0, t + 1) for t in range(k)]
    shuffle = [rng.integers(0, i + 1) for i in range(k - 1, 0, -1)]
    rows = [[0, 0, *range(1, k - 1)] + shuffle, floyd + shuffle, floyd + [0] * (k - 1)]
    expected = [reference_floyd(row, k, k) for row in rows]
    assert cnf._floyd(np.array(rows, dtype=np.int64), k, k).tolist() == expected


@st.composite
def floyd_rows(draw):
    """(rows, k, n) with k up to 40 and n from k to 2k: each row holds k Floyd
    draws, step t's in [0, n-k+t], then k - 1 shuffle draws, the one for
    pick i in [0, i]; with n near k, collisions and chains of them abound."""
    k = draw(st.integers(1, 40))
    n = draw(st.integers(k, 2 * k))
    bounds = [*range(n - k, n), *range(k - 1, 0, -1)]
    row = st.tuples(*(st.integers(0, b) for b in bounds))
    return draw(st.lists(row, min_size=1, max_size=6)), k, n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(floyd_rows())
@example(([(0,) * 79, (*range(40), *range(39, 0, -1))], 40, 40))
def test_floyd_matches_the_step_by_step_reference(case):
    rows, k, n = case
    expected = [reference_floyd(row, k, n) for row in rows]
    assert cnf._floyd(np.array(rows, dtype=np.int64), k, n).tolist() == expected


@st.composite
def tail_rows(draw):
    """(rows, k, n) with 1 <= k <= n <= 30: each row holds the swap draws of
    positions n-1, ..., max(n-k, 1), the one for position i in [0, i]; a
    small pool of partners per row makes repeated partners common."""
    n = draw(st.integers(1, 30))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    positions = range(n - 1, max(n - k, 1) - 1, -1)
    pool = draw(st.integers(0, n - 1))
    row = st.tuples(*(st.integers(0, min(i, pool)) for i in positions))
    return draw(st.lists(row, min_size=0, max_size=6)), k, n


@settings(max_examples=200, derandomize=True, deadline=None)
@given(tail_rows())
@example(([(0,) * 29, (1,) * 29], 30, 30))
@example(([()], 1, 1))
def test_tail_shuffle_matches_the_whole_range_reference(case):
    rows, k, n = case
    draws = np.array(rows, dtype=np.int64).reshape(len(rows), min(k, n - 1))
    expected = [reference_tail_shuffle(row, k, n) for row in rows]
    assert cnf._tail_shuffle(draws, k, n).tolist() == expected


@pytest.mark.parametrize(
    "args",
    [(0, 3, 2, 5), (0, 0, 5, 5), (0, 3, 0, 5), (0, 3, 5, -1), (0, 3, 10, 2.5), (0, True, 10, 5),
     (-1, 3, 10, 5), (1.5, 3, 10, 5), (True, 3, 10, 5),
     (0, 3, 2**31, 5), (0, 3, 10, 10**20)],  # above cnf.MAX_COUNT
)
def test_generate_random_rejects_bad_args(args):
    with pytest.raises(ValueError):
        generate_random(*args)


BIG = sys.float_info.max


@pytest.mark.parametrize(
    "value, real",
    [(0, True), (-1.5, True), (np.float64(2.0), True), (BIG, True), (-BIG, True),
     (int(BIG), True), (int(BIG) + 1, False), (-int(BIG) - 1, False), (10**400, False),
     (float("nan"), False), (float("inf"), False), (-float("inf"), False), (True, False),
     (np.int64(1), False), (np.float32(0.5), False), ("1", False), (None, False)],
)
def test_is_real_accepts_exactly_the_finite_ints_and_floats(value, real):
    assert bool(cnf.is_real(value)) is real


def test_evaluate_counts_and_indices():
    f = parse_dimacs("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n")
    satisfied, unsat = evaluate(f, (True, False))
    assert satisfied == 2
    assert unsat == [1]
    satisfied, unsat = evaluate(f, (True, True))  # variable 2 flipped
    assert satisfied == 3
    assert unsat == []
    with pytest.raises(ValueError):
        evaluate(f, (True,))


def test_literal_codes_are_dense():
    assert literal_code(1) == 0
    assert literal_code(-1) == 1
    assert literal_code(3) == 4
    rows, holders = generate_random(0, 3, 8, 15).literal_tables
    assert len(rows) == 15 and {len(row) for row in rows} == {3}
    # one id per literal that occurs, of at most 2n, numbered as first met
    assert list(dict.fromkeys(i for row in rows for i in row)) == list(range(len(holders)))
    assert len(holders) <= 16


@st.composite
def repeating_formulas(draw):
    """Formulas of k 0-5 and m 0-12 whose clauses may repeat a literal with
    the same or the opposite sign."""
    k = draw(st.integers(0, 5))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 12)) if k else 0
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=k, max_size=k), min_size=m, max_size=m))
    if clauses and k >= 2 and draw(st.booleans()):
        first = clauses[0][0]
        clauses[0][1] = draw(st.sampled_from((first, -first)))
    return Formula(n=n, clauses=tuple(map(tuple, clauses)))


@given(repeating_formulas())
@example(Formula(n=2, clauses=((2, -2), (-1, 2), (1, -1))))
def test_literal_ids_follow_first_occurrence(formula):
    rows, holders = formula.literal_tables
    assert len(rows) == formula.m
    # each id names one signed literal, x and -x apart
    literal_of = {}
    for row, clause in zip(rows, formula.clauses):
        assert len(row) == len(clause)
        for literal, signed in zip(row, clause):
            assert literal_of.setdefault(literal, signed) == signed
    assert len(set(literal_of.values())) == len(literal_of)
    # the ids run 0..d-1 as the literals are first met, clause by clause
    assert list(dict.fromkeys(i for row in rows for i in row)) == list(range(len(holders)))
    for literal, held in enumerate(holders):
        assert held == tuple((c, row.count(literal)) for c, row in enumerate(rows)
                             if literal in row)


@given(repeating_formulas())
@example(Formula(n=4, clauses=()))
@example(Formula(n=4, clauses=((2, -2, 3), (1, 1, 1))))
def test_dimacs_round_trip(formula):
    """parse_dimacs inverts serialize_dimacs on every formula."""
    assert parse_dimacs(serialize_dimacs(formula)) == formula
