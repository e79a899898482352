import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcubes.errors import ParseError
from bruhatcubes.permutations import (
    all_perms,
    bruhat_leq,
    compose,
    conjugate_by_longest,
    direct_sum,
    format_perm,
    identity,
    incomparable,
    inverse,
    is_reduced_word,
    length,
    longest_element,
    parse_perm,
    reflections,
    right_multiply_reflection,
)

from oracles import interval_elements_brute, root, subword_leq, tableau_leq


def test_compose_examples():
    assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    w = (3, 1, 4, 2)
    assert compose(w, identity(4)) == w
    assert compose((3, 2, 1), (3, 2, 1)) == (1, 2, 3)


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_length_examples():
    assert length((1, 2, 3)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 3, 1)) == 2


def test_longest_element():
    assert longest_element(2) == (2, 1)
    assert longest_element(3) == (3, 2, 1)
    assert longest_element(4) == (4, 3, 2, 1)
    assert length(longest_element(5)) == 10


def test_right_multiply_reflection():
    assert right_multiply_reflection((1, 2, 3), (1, 3)) == (3, 2, 1)
    assert right_multiply_reflection((2, 3, 1), (1, 2)) == (3, 2, 1)
    x = (4, 1, 3, 2)
    for t in reflections(4):
        assert right_multiply_reflection(right_multiply_reflection(x, t), t) == x


def test_bruhat_identity_is_minimum():
    e = identity(3)
    assert all(bruhat_leq(e, w) for w in all_perms(3))


def test_bruhat_examples():
    assert not bruhat_leq((2, 1, 3), (1, 3, 2))
    assert not bruhat_leq((1, 3, 2), (2, 1, 3))
    assert bruhat_leq((1, 3, 2), (3, 1, 2))


@pytest.mark.parametrize("n", [4, 5])
def test_bruhat_matches_subword_oracle(n):
    group = list(all_perms(n))
    for x in group:
        for y in group:
            assert bruhat_leq(x, y) == subword_leq(x, y), (x, y)


def _edge_perms(n):
    """Windows whose rank matrices reach the extreme entries (w0 has entry
    n - 1 at i = n - 1, j = 2): e and w0, each also with its first or last
    two entries swapped."""
    e, w0 = identity(n), longest_element(n)
    ends = ((1, 2), (n - 1, n)) if n > 1 else ()
    return [e, w0] + [right_multiply_reflection(w, t) for w in (e, w0) for t in ends]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 16])
def test_bruhat_edge_ranks_match_tableau_oracle(n):
    # the field width n.bit_length() grows from 7 to 8 and from 15 to 16
    ws = _edge_perms(n)
    for x in ws:
        for y in ws:
            assert bruhat_leq(x, y) == tableau_leq(x, y), (x, y)
    assert bruhat_leq(identity(n), longest_element(n))
    assert bruhat_leq(longest_element(n), identity(n)) == (n == 1)


def test_bruhat_rank_mismatch():
    with pytest.raises(ValueError, match="rank mismatch"):
        bruhat_leq((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="rank mismatch"):
        bruhat_leq((3, 2, 1), (2, 1))


@pytest.mark.parametrize(
    "x, y",
    [
        ((1, 1, 2), (3, 2, 1)),
        ((0, 1, 2), (3, 2, 1)),
        ((1, 2, 3), (3, 3, 1)),
        ((1, 2, 4), (3, 2, 1)),
    ],
)
def test_bruhat_rejects_non_permutations(x, y):
    with pytest.raises(ValueError, match="not a permutation window"):
        bruhat_leq(x, y)


def test_bruhat_length_monotone_s4():
    for x in all_perms(4):
        for y in all_perms(4):
            if x != y and bruhat_leq(x, y):
                assert length(x) < length(y)


def test_reflection_always_comparable_s4():
    for x in all_perms(4):
        for t in reflections(4):
            y = right_multiply_reflection(x, t)
            below = bruhat_leq(x, y)
            above = bruhat_leq(y, x)
            assert below != above
            assert below == (length(x) < length(y))


def test_direct_sum_examples():
    assert direct_sum((2, 1), (2, 1)) == (2, 1, 4, 3)
    assert direct_sum((1, 2, 3), (2, 1)) == (1, 2, 3, 5, 4)


def test_direct_sum_interval_size():
    u = direct_sum(identity(3), identity(2))
    v = direct_sum((3, 2, 1), (2, 1))
    assert len(interval_elements_brute(u, v)) == 12


def test_direct_sum_respects_order_componentwise():
    s2 = list(all_perms(2))
    s3 = list(all_perms(3))
    for a, c in itertools.product(s2, s2):
        for b, d in itertools.product(s3, s3):
            lhs = bruhat_leq(direct_sum(a, b), direct_sum(c, d))
            rhs = bruhat_leq(a, c) and bruhat_leq(b, d)
            assert lhs == rhs, (a, b, c, d)


def test_reflection_roots():
    assert root((1, 3), 3) == (1, 0, -1)
    assert root((2, 4), 5) == (0, 1, 0, -1, 0)


def test_parse_and_format():
    assert parse_perm("2143") == (2, 1, 4, 3)
    assert parse_perm("2,1,4,3") == (2, 1, 4, 3)
    assert format_perm((2, 1, 4, 3)) == "2143"
    long = tuple(range(10, 0, -1))
    assert parse_perm(format_perm(long)) == long
    for bad in ("", "1223", "12,3", "abc"):
        with pytest.raises(ParseError):
            parse_perm(bad)


def test_words():
    assert is_reduced_word(3, (1, 2, 1))
    assert not is_reduced_word(3, (1, 1))
    assert not is_reduced_word(3, (3,))


def test_conjugate_by_longest():
    w0 = longest_element(4)
    for w in all_perms(4):
        assert conjugate_by_longest(w) == compose(compose(w0, w), w0)


def perms(n):
    return st.permutations(list(range(1, n + 1))).map(tuple)


@given(w=perms(n=6))
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(w):
    assert inverse(inverse(w)) == w
    assert compose(w, inverse(w)) == identity(6)
    assert length(w) == length(inverse(w))


@given(x=perms(n=5), y=perms(n=5))
@settings(max_examples=60, deadline=None)
def test_bruhat_antisymmetry(x, y):
    if bruhat_leq(x, y) and bruhat_leq(y, x):
        assert x == y
    if x != y and not incomparable(x, y):
        assert bruhat_leq(x, y) != bruhat_leq(y, x)


@st.composite
def mostly_comparable_pair(draw):
    """A pair (x, y) of rank 6-12 windows with x <= y about half the time.
    lo and hi are a window with one segment of two or more entries sorted
    ascending and descending, so lo < hi; the pair is (lo, hi), (hi, lo) or
    lo with an independent window.  Hypothesis favours the first choice of
    ``sampled_from``, so "below" is listed twice but not first."""
    n = draw(st.integers(min_value=6, max_value=12))
    x = draw(perms(n))
    i = draw(st.integers(min_value=0, max_value=n - 2))
    j = draw(st.integers(min_value=i + 2, max_value=n))
    lo = x[:i] + tuple(sorted(x[i:j])) + x[j:]
    hi = x[:i] + tuple(sorted(x[i:j], reverse=True)) + x[j:]
    kind = draw(st.sampled_from(("above", "below", "independent", "below")))
    if kind == "below":
        return lo, hi
    return (hi, lo) if kind == "above" else (lo, draw(perms(n)))


@given(pair=mostly_comparable_pair())
@settings(max_examples=300, deadline=None)
def test_bruhat_matches_tableau_oracle_ranks_6_to_12(pair):
    x, y = pair
    assert bruhat_leq(x, y) == tableau_leq(x, y)
