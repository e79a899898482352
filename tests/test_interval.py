import itertools

import pytest
from hypothesis import given, settings

from bruhatcubes.errors import OrderError
from bruhatcubes.interval import (
    Interval,
    comparable_pairs,
    dual_element,
    interval,
    interval_size,
)
from bruhatcubes.permutations import (
    bruhat_leq,
    identity,
    length,
    longest_element,
)

from oracles import (
    bruhat_edges_brute,
    geodesics_brute,
    interval_elements_brute,
    is_diamond_complete_brute,
    subword_leq,
)
from strategies import comparable_pair

E3 = identity(3)
W3 = longest_element(3)


def test_build_full_s3():
    I = interval(E3, W3)
    assert len(I) == 6
    assert I.elements[0] == E3 and I.elements[-1] == W3


def test_build_small():
    assert set(interval((2, 3, 1), W3).elements) == {(2, 3, 1), W3}
    assert set(interval(E3, (2, 3, 1)).elements) == {
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
    }


def test_build_requires_comparable():
    with pytest.raises(OrderError):
        interval((2, 1, 3), (1, 3, 2))


def test_elements_match_subword_oracle_s4():
    for u, v in [
        (identity(4), longest_element(4)),
        ((1, 2, 4, 3), (4, 2, 3, 1)),
        ((2, 1, 3, 4), (3, 4, 1, 2)),
    ]:
        assert set(interval(u, v).elements) == interval_elements_brute(u, v)


def test_distance_examples():
    I = interval(E3, W3)
    for x in I:
        assert I.distance(x, x) == 0
    assert I.distance(E3, W3) == 1
    assert I.distance(E3, (2, 3, 1)) == 2


def test_distance_requires_membership():
    I = interval((2, 3, 1), W3)
    with pytest.raises(OrderError):
        I.distance(E3, W3)


def test_geodesics_examples():
    I = interval(E3, W3)
    assert [len(p.labels) for p in I.geodesics(E3, E3)] == [0]
    assert len(I.geodesics(E3, W3)) == 1
    via = {p.vertices[1] for p in I.geodesics(E3, (2, 3, 1))}
    assert via == {(1, 3, 2), (2, 1, 3)}


def test_geodesics_match_brute_force_s4():
    I = interval(identity(4), longest_element(4))
    members = set(I.elements)
    for x, y in [
        (identity(4), (3, 4, 1, 2)),
        ((2, 1, 3, 4), (4, 3, 2, 1)),
        ((1, 3, 2, 4), (4, 2, 3, 1)),
    ]:
        fast = {(p.vertices) for p in I.geodesics(x, y)}
        brute = {tuple(p) for p in geodesics_brute(members, x, y)}
        assert fast == brute


def test_paths_supported_inside_endpoints():
    I = interval(identity(4), longest_element(4))
    for x, y in [(identity(4), (2, 4, 1, 3)), ((1, 3, 2, 4), (4, 3, 2, 1))]:
        for p in I.geodesics(x, y):
            for w in p.vertices:
                assert bruhat_leq(x, w) and bruhat_leq(w, y)


def test_edges_match_pairwise_scan_s4():
    for u, v in [((1, 2, 4, 3), (4, 2, 3, 1)), (identity(4), (3, 4, 2, 1))]:
        I = interval(u, v)
        got = {(x, y, t) for (x, y), t in I.labels.items()}
        assert got == bruhat_edges_brute(set(I.elements))


def test_distance_parity_and_finiteness_s4():
    I = interval(identity(4), longest_element(4))
    for x in I:
        for y in I:
            d = I.dist[x].get(y)
            if bruhat_leq(x, y):
                assert d is not None
                assert (d - (length(y) - length(x))) % 2 == 0
            else:
                assert d is None


def test_diamond_complete_examples():
    I = interval(E3, W3)
    assert I.is_diamond_complete(E3)
    assert I.is_diamond_complete(W3)
    assert I.is_diamond_complete((2, 3, 1))
    assert not I.is_diamond_complete((1, 3, 2))
    assert not I.is_diamond_complete((2, 1, 3))


def test_coatom_reflections():
    I = interval(E3, W3)
    assert I.coatom_reflections(E3, W3) == {(1, 2), (2, 3)}
    assert I.coatom_reflections(W3, W3) == frozenset()
    assert I.coatom_reflections((2, 3, 1), W3) == {(1, 2)}


def test_dual_interval():
    I = interval(E3, W3)
    D = I.dual()
    assert set(D.elements) == set(I.elements)
    assert len(D) == len(I)
    # covers reverse under x -> x*w0
    for (x, y), _ in I.labels.items():
        if length(y) - length(x) == 1:
            dx, dy = dual_element(x), dual_element(y)
            assert (dy, dx) in D.labels
    J = interval((1, 3, 2), W3)
    DJ = J.dual()
    assert DJ.u == dual_element(W3) and DJ.v == dual_element((1, 3, 2))
    assert len(DJ) == len(J)


def test_edge_convention_independent_of_side():
    # inversion carries the right-labeled graph on [u,v] onto the
    # left-labeled graph on [u^-1,v^-1]; edge sets and results must match
    from bruhatcubes.permutations import compose, inverse
    from bruhatcubes.rpoly import rtilde

    for u, v in comparable_pairs(3):
        I = interval(u, v)
        J = interval(inverse(u), inverse(v))
        mapped = {
            (inverse(x), inverse(y)): compose(y, inverse(x))
            for (x, y) in I.labels
        }
        # same arrows, and the left label y*x^-1 is the right label of the
        # inverted arrow (transpositions are involutions)
        assert set(mapped) == set(J.labels)
        for edge, left_label in mapped.items():
            i, j = J.labels[edge]
            expect = list(identity(3))
            expect[i - 1], expect[j - 1] = expect[j - 1], expect[i - 1]
            assert left_label == tuple(expect)
        assert rtilde(u, v) == rtilde(inverse(u), inverse(v))
        assert len(I.elements) == interval_size(u, v)


def test_lower_decompositions_via_dual():
    # lower-decomposition queries are answered on the dual: z is a lower
    # decomposition of [u,v] exactly when z*w0 is an upper one of the dual
    from bruhatcubes.hcd import enumerate_hcds

    I = interval(E3, W3)
    dual_uppers = enumerate_hcds(I.dual())
    lowers = sorted(dual_element(z) for z in dual_uppers)
    # the flip of {e, 231, 312} under x -> x*w0
    assert lowers == [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
    for z in dual_uppers:
        assert bruhat_leq(I.dual().u, z)


def test_interval_caching_shares_instances():
    a = interval(E3, W3)
    b = interval(E3, W3)
    assert a is b
    assert a == Interval(E3, W3)


def test_rank_bound():
    with pytest.raises(OrderError):
        Interval(identity(8), longest_element(8))


def test_element_order_is_length_then_window():
    I = interval(identity(4), longest_element(4))
    assert list(I.elements) == sorted(I.elements, key=lambda x: (length(x), x))
    assert I.elements[0] == I.u and I.elements[-1] == I.v


# ---------------------------------------------------------------------------
# the walk down the Bruhat graph against the subword oracles


def _oracle_order_matches(I):
    """Every up-set and down-set of I equals the subword-oracle cone."""
    for x in I:
        assert I.up[x] == {y for y in I if subword_leq(x, y)}
        assert I.down[x] == {y for y in I if subword_leq(y, x)}


def test_order_matches_subword_oracle_on_every_s4_interval():
    for u, v in comparable_pairs(4):
        _oracle_order_matches(interval(u, v))


def test_interval_size_matches_subword_oracle_on_every_s4_pair():
    s4 = list(itertools.permutations(range(1, 5)))
    for u in s4:
        for v in s4:
            assert interval_size(u, v) == len(interval_elements_brute(u, v))


@given(pair=comparable_pair())
@settings(max_examples=40, deadline=None)
def test_walk_matches_subword_oracle_s5_s6(pair):
    u, v = pair
    brute = interval_elements_brute(u, v)
    I = interval(u, v)
    assert I.elements == tuple(sorted(brute, key=lambda x: (length(x), x)))
    assert interval_size(u, v) == len(brute)
    for x in I:
        assert I.up[x] == {y for y in brute if subword_leq(x, y)}
    assert set(I.edges) == bruhat_edges_brute(brute)


# ---------------------------------------------------------------------------
# the position masks and the one pass from the bottom


def test_bottom_distances_and_geodesic_masks_match_oracles_s4():
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        members = set(I.elements)
        for k, x in enumerate(I.elements):
            geodesics = geodesics_brute(members, u, x)
            assert I.depth[k] == I.depth_of(x) == I.dist[u][x] == len(geodesics[0]) - 1
            on_geodesics = {w for path in geodesics for w in path}
            assert set(I.members(I.geo_mask[k])) == on_geodesics, (u, v, x)


def test_arrow_masks_and_leq_match_the_graph_s4():
    # the up- and down-set views are read off the masks, and
    # test_order_matches_subword_oracle_on_every_s4_interval checks them
    I = interval(identity(4), longest_element(4))
    for k, x in enumerate(I.elements):
        assert set(I.members(I.in_mask[k])) == I.in_nbrs[x]
        assert set(I.members(I.out_mask[k])) == I.out_nbrs[x]
    for x in I:
        for y in I:
            assert I.leq(x, y) == bruhat_leq(x, y)


def test_least_finds_the_minimum_or_none():
    I = interval(E3, W3)
    position = I.position
    assert I.least(0) is None
    assert I.least(I.up_mask[position[(2, 3, 1)]]) == position[(2, 3, 1)]
    both = (1 << position[(1, 3, 2)]) | (1 << position[(2, 1, 3)])
    assert I.least(both) is None
    assert I.least(both | 1) == 0


@given(pair=comparable_pair(max_size=60))
@settings(max_examples=30, deadline=None)
def test_diamond_completeness_matches_oracle_s5_s6(pair):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    for z in sorted(members):
        assert I.is_diamond_complete(z) == is_diamond_complete_brute(members, z), z
