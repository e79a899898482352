import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcubes.errors import OrderError, WordError
from bruhatcubes.interval import MAX_RANK, comparable_pairs, interval, rank_index
from bruhatcubes.permutations import identity, longest_element, reflections
from bruhatcubes.polynomials import ONE, ZERO, degree, monomial, padd, pmul, poly_str, pshift
from bruhatcubes.rpoly import (
    ReflectionOrder,
    all_reflection_orders,
    canonical_orders,
    constrained_orders,
    increasing_path_counts,
    is_reflection_order,
    reflection_order_from_word,
    rtilde,
    rtilde_dyer,
    staircase_word,
)

from oracles import (
    increasing_paths_brute,
    interval_elements_brute,
    rtilde_brute_by_hand_s3,
    subword_leq,
)
from strategies import comparable_pair

E3 = identity(3)
W3 = longest_element(3)


# ---------------------------------------------------------------------------
# polynomials


def test_poly_arithmetic():
    assert padd((0, 1), (1,)) == (1, 1)
    assert padd((0, 1), ()) == (0, 1)
    assert pmul((0, 1), (0, 1)) == (0, 0, 1)
    assert pmul((1, 1), (1, 1)) == (1, 2, 1)
    assert pmul(ZERO, (5,)) == ZERO
    assert pshift((1,), 3) == (0, 0, 0, 1)
    assert pshift(ZERO, 3) == ZERO
    assert monomial(2, 3) == (0, 0, 3)
    assert degree(ZERO) == -1 and degree((0, 1)) == 1


def test_poly_str():
    assert poly_str(()) == "0"
    assert poly_str((1,)) == "1"
    assert poly_str((0, 1, 0, 1)) == "q^3+q"
    assert poly_str((0, 2, 0, 3, 0, 1)) == "q^5+3q^3+2q"


# ---------------------------------------------------------------------------
# recurrence


def test_rtilde_examples():
    assert rtilde((2, 3, 1), (2, 3, 1)) == ONE
    assert rtilde(E3, (1, 3, 2)) == (0, 1)
    assert rtilde(E3, W3) == (0, 1, 0, 1)
    assert rtilde((2, 1, 3), (1, 3, 2)) == ZERO


def test_rtilde_matches_hand_unfolded_values():
    for (u, v), expect in rtilde_brute_by_hand_s3().items():
        assert rtilde(u, v) == expect, (u, v)


def test_rtilde_above_the_index_rank():
    # the recurrence needs no rank index, so it runs where the index stops
    with pytest.raises(OrderError):
        rank_index(MAX_RANK + 1)
    p = rtilde(identity(8), longest_element(8))
    assert degree(p) == 28 and sum(p) == 31033
    assert p == (
        0, 0, 0, 0, 1, 0, 18, 0, 177, 0, 1110, 0, 3711, 0, 7105, 0, 8361, 0,
        6292, 0, 3076, 0, 970, 0, 190, 0, 21, 0, 1,
    )


def test_rtilde_shape_s4():
    from bruhatcubes.permutations import length

    for u, v in comparable_pairs(4):
        p = rtilde(u, v)
        gap = length(v) - length(u)
        assert degree(p) == gap
        assert p[-1] == 1 if p else u == v
        if u != v:
            assert not p or p[0] == 0
        # only degrees of the right parity occur
        for d, c in enumerate(p):
            if c:
                assert (gap - d) % 2 == 0


# ---------------------------------------------------------------------------
# reflection orders


def test_order_from_word_examples():
    o = reflection_order_from_word(3, (1, 2, 1))
    assert o.sequence == ((1, 2), (1, 3), (2, 3))
    o = reflection_order_from_word(3, (2, 1, 2))
    assert o.sequence == ((2, 3), (1, 3), (1, 2))


def test_order_from_word_rejects_bad_words():
    with pytest.raises(WordError):
        reflection_order_from_word(3, (1, 1, 2))
    with pytest.raises(WordError):
        reflection_order_from_word(3, (1, 2))
    with pytest.raises(WordError):
        reflection_order_from_word(4, (1, 2, 1))


def test_is_reflection_order():
    assert is_reflection_order(ReflectionOrder(((1, 2), (1, 3), (2, 3))))
    assert not is_reflection_order(ReflectionOrder(((1, 2), (2, 3), (1, 3))))
    valid = [
        perm
        for perm in itertools.permutations(reflections(3))
        if is_reflection_order(ReflectionOrder(perm))
    ]
    assert len(valid) == 2


def test_reflection_order_equality_hash_position_and_repr():
    seq = ((1, 2), (1, 3), (2, 3))
    order, same = ReflectionOrder(seq), ReflectionOrder(tuple(list(seq)))
    assert order == same and hash(order) == hash(same) and {order: 1}[same] == 1
    assert order != ReflectionOrder(seq[::-1]) and order != seq
    assert order.position == {(1, 2): 0, (1, 3): 1, (2, 3): 2}
    assert order.position is order.position
    assert repr(order) == "ReflectionOrder(sequence=((1, 2), (1, 3), (2, 3)))"
    assert str(order) == "t(1,2) < t(1,3) < t(2,3)"
    assert (len(order), order.n) == (3, 3)
    assert canonical_orders(3) == [order, ReflectionOrder(seq[::-1])]


def test_all_reflection_orders_counts():
    assert len(all_reflection_orders(3)) == 2
    assert len(all_reflection_orders(4)) == 16
    for o in all_reflection_orders(4):
        assert is_reflection_order(o)


def test_canonical_orders_are_built_once_and_handed_out_fresh():
    first = canonical_orders(4, 2)
    first.clear()
    again = canonical_orders(4, 2)
    assert len(again) == 2
    assert again[0] is canonical_orders(4, 2)[0]


def test_staircase_word_is_reduced():
    for n in (2, 3, 4, 5):
        orders = canonical_orders(n, 3)
        for o in orders:
            assert is_reflection_order(o)
    assert staircase_word(4) == (1, 2, 1, 3, 2, 1)


# ---------------------------------------------------------------------------
# increasing paths


def test_dyer_examples():
    I = interval(E3, (1, 3, 2))
    for o in all_reflection_orders(3):
        assert rtilde_dyer(I, o) == (0, 1)
    I = interval(E3, W3)
    for o in all_reflection_orders(3):
        assert rtilde_dyer(I, o) == (0, 1, 0, 1)


def test_dyer_rejects_wrong_rank():
    I = interval(identity(4), longest_element(4))
    with pytest.raises(OrderError):
        rtilde_dyer(I, all_reflection_orders(3)[0])


def test_dyer_equals_recurrence_s3_all_orders():
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        for o in all_reflection_orders(3):
            assert rtilde_dyer(I, o) == rtilde(u, v), (u, v, str(o))


@given(pair=comparable_pair())
@settings(max_examples=40, deadline=None)
def test_dyer_matches_recurrence_s5_s6(pair):
    u, v = pair
    I = interval(u, v)
    expected = rtilde(u, v)
    orders = canonical_orders(I.n, 3)
    assert len(orders) == 3
    for order in orders:
        assert rtilde_dyer(I, order) == expected, order


def test_dyer_order_invariance_all_s4_orders():
    orders = all_reflection_orders(4)
    assert len(orders) == 16
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        expected = rtilde(u, v)
        for o in orders:
            assert rtilde_dyer(I, o) == expected, (u, v, str(o))


def test_increasing_path_counts_examples():
    I = interval(E3, W3)
    o = reflection_order_from_word(3, (2, 1, 2))
    table = increasing_path_counts(I, (2, 3, 1), o)
    assert table[(2, 3, 1)] == {2: 1}
    assert table[W3] == {1: 1}
    # z at the top: the table row reproduces the polynomial coefficients
    for order in all_reflection_orders(3):
        row = increasing_path_counts(I, W3, order)[W3]
        poly = rtilde(E3, W3)
        assert row == {d: c for d, c in enumerate(poly) if c}
    # z at the bottom: a single empty path
    assert increasing_path_counts(I, E3, o) == {
        p: ({0: 1} if p == E3 else {}) for p in I.elements
    }


def test_increasing_path_counts_zero_below_distance():
    I = interval(identity(4), longest_element(4))
    o = canonical_orders(4, 1)[0]
    z = (2, 3, 4, 1)
    table = increasing_path_counts(I, z, o)
    for p, row in table.items():
        for k in row:
            assert k >= I.distance(I.u, p)


def _path_polynomial(paths) -> tuple[int, ...]:
    coeffs = [0] * max((len(p) for p in paths), default=0)
    for path in paths:
        coeffs[len(path) - 1] += 1
    return tuple(coeffs)


def _paths_match_brute(u, v, orders, zs) -> None:
    """rtilde_dyer and increasing_path_counts against the increasing paths
    of the oracle: for every p in [z, v], those from u to p inside [u, p]
    that meet [z, v] only at p."""
    I = interval(u, v)
    members = interval_elements_brute(u, v)
    below = {p: interval_elements_brute(u, p) for p in members}
    for o in orders:
        paths = {p: increasing_paths_brute(below[p], u, p, o) for p in members}
        assert rtilde_dyer(I, o) == _path_polynomial(paths[v]), (u, v, str(o))
        for z in zs:
            table = {}
            for p in members:
                if subword_leq(z, p):
                    row = table[p] = {}
                    for path in paths[p]:
                        if not any(subword_leq(z, x) for x in path[:-1]):
                            row[len(path) - 1] = row.get(len(path) - 1, 0) + 1
            assert increasing_path_counts(I, z, o) == table, (u, v, z, str(o))


def test_increasing_paths_match_brute_s4_all_orders():
    orders = all_reflection_orders(4)
    for u, v in comparable_pairs(4):
        _paths_match_brute(u, v, orders, interval(u, v).elements)


@given(pair=comparable_pair(max_size=60), data=st.data())
@settings(max_examples=20, deadline=None)
def test_increasing_paths_match_brute_s5_s6(pair, data):
    u, v = pair
    z = data.draw(st.sampled_from(interval(u, v).elements), label="z")
    _paths_match_brute(u, v, canonical_orders(len(u), 3), [z])


# ---------------------------------------------------------------------------
# constrained search


def test_constrained_orders_examples():
    hits = constrained_orders(3, {((2, 3), (1, 2))})
    assert [o.sequence for o in hits] == [((2, 3), (1, 3), (1, 2))]
    assert constrained_orders(3, {((1, 2), (2, 3)), ((2, 3), (1, 2))}) == []
    assert len(constrained_orders(3)) == 2


def test_constrained_orders_limit():
    assert len(constrained_orders(4, limit=5)) == 5


def test_constrained_orders_all_valid():
    for o in constrained_orders(4, {((3, 4), (1, 2))}):
        assert is_reflection_order(o)
        assert o.position[(3, 4)] < o.position[(1, 2)]


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_random_reduced_words_give_valid_orders(seed):
    import random

    rng = random.Random(seed)
    n = rng.choice([3, 4, 5])
    sigma = identity(n)
    word = []
    while True:
        ascents = [i for i in range(1, n) if sigma[i - 1] < sigma[i]]
        if not ascents:
            break
        i = rng.choice(ascents)
        word.append(i)
        from bruhatcubes.permutations import right_multiply_simple

        sigma = right_multiply_simple(sigma, i)
    order = reflection_order_from_word(n, word)
    assert is_reflection_order(order)
