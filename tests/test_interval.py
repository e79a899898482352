import gc
import importlib
import itertools
import random

import pytest
from hypothesis import given, settings

from bruhatcubes.errors import OrderError
from bruhatcubes.interval import (
    Interval,
    RankIndex,
    bits,
    comparable_pairs,
    dual_element,
    interval,
    interval_size,
    rank_index,
)
from bruhatcubes.permutations import (
    bruhat_leq,
    identity,
    length,
    longest_element,
)

from oracles import (
    bruhat_edges_brute,
    coatom_labels_brute,
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


@pytest.mark.parametrize(
    "call, u, v",
    [
        (interval_size, (1, 1, 2), (3, 2, 1)),
        (interval, (1, 1, 2), (1, 2, 3)),
        (interval, (1, 2, 3), (0, 2, 1)),
    ],
)
def test_non_permutations_raise_order_error(call, u, v):
    with pytest.raises(OrderError, match="not a permutation window"):
        call(u, v)


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


def test_coatom_reflections_match_brute_s4():
    """The labels read by id off the rank index, for every comparable pair
    x <= y of a few S4 intervals, against the tableau criterion."""
    e, w0 = identity(4), longest_element(4)
    for u, v in [(e, w0), ((2, 1, 3, 4), (4, 3, 1, 2)), ((1, 3, 2, 4), (3, 4, 1, 2))]:
        I = interval(u, v)
        for x, y in itertools.product(I.elements, repeat=2):
            if I.leq(x, y):
                assert I.coatom_reflections(x, y) == set(coatom_labels_brute(x, y)), (x, y)
    with pytest.raises(OrderError):
        interval(e, w0).coatom_reflections(w0, e)


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
    sizes = [interval_size(u, v) for u in s4 for v in s4]
    assert sizes == [len(interval_elements_brute(u, v)) for u in s4 for v in s4]
    assert sizes.count(0) == 24 * 24 - 213  # 0 on every incomparable pair


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
# the rank index and the per-bottom tables


@pytest.mark.parametrize("n", [4, 5])
def test_rank_index_matches_oracles(n):
    index = rank_index(n)
    group = set(itertools.permutations(range(1, n + 1)))
    assert index.perms == tuple(sorted(group, key=lambda x: (length(x), x)))
    assert index.length == tuple(length(x) for x in index.perms)
    assert all(index.id[x] == i for i, x in enumerate(index.perms))
    for i, x in enumerate(index.perms):
        assert {index.perms[k] for k in bits(index.up[i])} == {y for y in group if subword_leq(x, y)}
        assert {index.perms[k] for k in bits(index.down[i])} == {y for y in group if subword_leq(y, x)}
    arrows = {
        (index.perms[x], index.perms[y], t)
        for x, targets in enumerate(index.arrows)
        for y, t in targets.items()
    }
    assert arrows == bruhat_edges_brute(group)
    for i in range(len(index.perms)):
        assert bits(index.out_mask[i]) == sorted(index.arrows[i])
        assert bits(index.in_mask[i]) == [x for x, targets in enumerate(index.arrows) if i in targets]


def test_comparable_pairs_counts_and_order():
    for n, count in [(1, 1), (2, 3), (3, 19), (4, 213), (5, 3781)]:
        group = sorted(itertools.permutations(range(1, n + 1)), key=lambda x: (length(x), x))
        pairs = comparable_pairs(n)
        assert len(pairs) == count
        assert pairs == [(u, v) for u in group for v in group if subword_leq(u, v)]


def test_rank_above_the_bound_is_refused_before_building(monkeypatch):
    # the package's interval() shadows the submodule of the same name
    interval_mod = importlib.import_module("bruhatcubes.interval")

    def refuse(n):
        raise AssertionError(f"rank {n} index built")

    monkeypatch.setattr(interval_mod, "RankIndex", refuse)
    u, v = identity(8), longest_element(8)
    for call in (lambda: Interval(u, v), lambda: interval_size(u, v), lambda: comparable_pairs(8)):
        with pytest.raises(OrderError, match="rank 8"):
            call()


def test_bottom_distances_and_geodesic_masks_match_oracles_s4():
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        ids = I.index.id
        geo = I.index.distances(I.uid, I.vid)[1]
        members = set(I.elements)
        for x in I.elements:
            geodesics = geodesics_brute(members, u, x)
            assert I.depth[ids[x]] == I.dist[u][x] == len(geodesics[0]) - 1
            on_geodesics = {w for path in geodesics for w in path}
            assert set(I.members(geo[ids[x]])) == on_geodesics, (u, v, x)
            # every path from x stays above x, so the oracle searches that cone
            cone = {y for y in members if subword_leq(x, y)}
            for y in I.elements:
                brute = geodesics_brute(cone, x, y) if y in cone else []
                assert I.dist[x].get(y) == (len(brute[0]) - 1 if brute else None), (u, v, x, y)


def test_arrow_masks_and_leq_match_the_graph_s4():
    # the up- and down-set views are read off the masks, and
    # test_order_matches_subword_oracle_on_every_s4_interval checks them
    for I in (interval(identity(4), longest_element(4)), interval((1, 2, 4, 3), (4, 2, 3, 1))):
        index = I.index
        for x in I:
            k = index.id[x]
            assert set(I.members(index.in_mask[k] & I.mask)) == I.in_nbrs[x]
            assert set(I.members(index.out_mask[k] & I.mask)) == I.out_nbrs[x]
        for x in I:
            for y in I:
                assert I.leq(x, y) == bruhat_leq(x, y)


def test_least_finds_the_minimum_or_none():
    I = interval((1, 3, 2), W3)
    ids = I.index.id
    assert I.least(0) is None
    assert I.least(I.upper((2, 3, 1))) == ids[(2, 3, 1)]
    both = (1 << ids[(2, 3, 1)]) | (1 << ids[(3, 1, 2)])
    assert I.least(both) is None
    assert I.least(both | 1 << ids[(1, 3, 2)]) == ids[(1, 3, 2)]
    assert I.least(I.mask) == ids[I.u]


def test_bottom_tables_stay_exact_in_any_extension_order():
    # eight seeded orders extend one index's per-bottom tables piece by
    # piece; every table read must equal the one that a single extension
    # over the bottom's whole cone gives
    shared, whole = RankIndex(5), RankIndex(5)
    top = whole.id[longest_element(5)]
    pairs = [(shared.id[u], shared.id[v]) for u, v in comparable_pairs(5)]

    def read(index, u, v):
        depth, geo = index.distances(u, v)
        return [(p, depth[p], geo[p]) for p in bits(index.up[u] & index.down[v])]

    for k in range(8):
        for u, v in random.Random(k).sample(pairs, len(pairs) // 4):
            whole.distances(u, top)
            assert read(shared, u, v) == read(whole, u, v), (k, u, v)


@given(pair=comparable_pair(max_size=60))
@settings(max_examples=30, deadline=None)
def test_diamond_completeness_matches_oracle_s5_s6(pair):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    for z in sorted(members):
        assert I.is_diamond_complete(z) == is_diamond_complete_brute(members, z), z


def test_interval_factory_holds_a_bounded_number_along_a_sweep(capsys):
    from bruhatcubes.cli import main

    def live() -> int:
        gc.collect()
        return sum(isinstance(x, Interval) for x in gc.get_objects())

    interval.cache_clear()
    before = live()
    argv = ["verify", "--n", "5", "--checks", "dyer", "--mode", "exhaustive", "--no-cache"]
    assert main(argv) == 0
    capsys.readouterr()
    bound = interval.cache_info().maxsize
    # room for the 361 product intervals of rank 6 and their 19 factors
    assert bound is not None and bound >= 361 + 19
    assert live() - before <= bound


class _Memo(dict):
    """The memo of one bottom, recording (bottom, key) for each store."""

    def __init__(self, stored: list, bottom: int):
        super().__init__()
        self.stored, self.bottom = stored, bottom

    def __setitem__(self, key, value):
        self.stored.append((self.bottom, key))
        super().__setitem__(key, value)


class _Memos(dict):
    """``RankIndex.memos`` that makes a recording memo for each bottom."""

    def __init__(self, stored: list):
        super().__init__()
        self.stored = stored

    def __missing__(self, bottom):
        memo = self[bottom] = _Memo(self.stored, bottom)
        return memo


@pytest.mark.parametrize(
    "n, checks",
    [
        (4, "dyer,standard-hcd,congettura,em0,strong-ds,bologna,product,cosimple-dh,hw-bijection"),
        (5, "dyer,standard-hcd,congettura,em0,strong-ds"),
    ],
)
def test_exhaustive_sweep_evaluates_each_bottom_memo_once(clear_memos, monkeypatch, n, checks):
    """An exhaustive sweep forgets the memos of the bottoms below each new
    bottom.  From cold memos, no per-bottom entry is stored twice, so no
    forgotten entry is read again, and after each check no memo of a bottom
    below the interval's remains."""
    from bruhatcubes import sweep

    clear_memos()
    index = rank_index(n)
    stored: list = []
    monkeypatch.setattr(index, "memos", _Memos(stored))
    left = []
    for name, check in list(sweep._CHECK_FUNCS.items()):

        def watched(I, check=check):
            records = check(I)
            left.extend((I.uid, k) for k in index.memos if k < I.uid)
            return records

        monkeypatch.setitem(sweep._CHECK_FUNCS, name, watched)
    cfg = sweep.SweepConfig(n=n, checks=tuple(checks.split(",")), mode="exhaustive")
    assert sweep.run_sweep(cfg)[2] == 0
    assert stored
    assert len(set(stored)) == len(stored)
    assert not left
