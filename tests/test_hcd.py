import importlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhatcubes.errors import OrderError
from bruhatcubes.hcd import (
    HypercubeEmbedding,
    count_hypercube_assignments,
    enumerate_hcds,
    inflow,
    is_amazing,
    is_amazing_r_element,
    is_r_element,
    is_upper_hcd,
    join,
    lower_neighbors,
    rtilde_z,
    shortcuts,
    shortcuts_by_cover_distance,
    spans_cluster,
    spans_hypercube,
    standard_hcd_kinds,
    standard_hcds,
)
from bruhatcubes.doubles import verify_bologna
from bruhatcubes.interval import RankIndex, comparable_pairs, interval, interval_size
from bruhatcubes.permutations import identity, longest_element
from bruhatcubes.polynomials import ONE
from bruhatcubes.rpoly import rtilde

from oracles import (
    amazing_brute,
    amazing_r_element_brute,
    bruhat_edges_brute,
    count_cube_assignments_brute,
    interval_elements_brute,
    join_brute,
    r_element_brute,
    shortcuts_brute,
    subword_leq,
    upper_hcd_brute,
)
from strategies import comparable_pair

# the package exports the function ``interval``, which hides the submodule
hcd = importlib.import_module("bruhatcubes.hcd")

E3 = identity(3)
W3 = longest_element(3)
I3 = interval(E3, W3)


# ---------------------------------------------------------------------------
# spanning


def test_spans_hypercube_examples():
    emb = spans_hypercube((2, 3, 1), ((1, 3, 2), (2, 1, 3)))
    assert emb is not None
    assert emb.bottom == E3
    assert emb.rank == 2
    assert emb.image == {E3, (1, 3, 2), (2, 1, 3), (2, 3, 1)}
    assert spans_hypercube(W3, ((2, 3, 1), (3, 1, 2))) is None
    empty = spans_hypercube((2, 3, 1), ())
    assert empty is not None and empty.rank == 0 and empty.image == {(2, 3, 1)}


def test_hypercube_embedding_fields_and_properties():
    emb = spans_hypercube((2, 3, 1), ((2, 1, 3), (1, 3, 2)))
    table = (E3, (2, 1, 3), (1, 3, 2), (2, 3, 1))
    assert emb == HypercubeEmbedding(top=(2, 3, 1), sources=((1, 3, 2), (2, 1, 3)), table=table)
    assert (emb.top, emb.sources, emb.table) == ((2, 3, 1), ((1, 3, 2), (2, 1, 3)), table)
    assert hash(emb) == hash(HypercubeEmbedding((2, 3, 1), emb.sources, table))
    assert (emb.rank, emb.bottom, emb.image) == (2, E3, frozenset(table))
    assert repr(emb) == "Hypercube(rank=2, top=231, image={123,132,213,231})"
    with pytest.raises(AttributeError):
        emb.top = E3


def test_spans_hypercube_rejects_non_edges():
    # not a single swap apart
    with pytest.raises(OrderError):
        spans_hypercube((2, 3, 1), ((1, 2, 3),))
    # one swap apart but length-decreasing
    with pytest.raises(OrderError):
        spans_hypercube(E3, ((3, 2, 1),))
    # not a permutation of the top's rank
    with pytest.raises(OrderError):
        spans_hypercube((2, 3, 1), ((1, 2),))


def test_assignment_counts_match_brute_force():
    cases = [
        ((2, 3, 1), ((1, 3, 2), (2, 1, 3))),
        (W3, ((2, 3, 1), (3, 1, 2))),
        (W3, ((1, 2, 3),)),
        ((4, 3, 2, 1), ((3, 4, 2, 1), (4, 2, 3, 1), (4, 3, 1, 2))),
        ((3, 4, 1, 2), ((3, 1, 4, 2), (1, 4, 3, 2))),
        ((2, 4, 1, 3), ((2, 1, 4, 3), (1, 4, 2, 3))),
    ]
    for top, sources in cases:
        assert count_hypercube_assignments(top, sources) == count_cube_assignments_brute(
            top, sources
        ), (top, sources)


def test_assignment_counts_match_brute_force_full_s4_inflows():
    I = interval(identity(4), longest_element(4))
    for z in ((2, 1, 3, 4), (1, 3, 2, 4), (2, 3, 4, 1)):
        zv = I.up[z]
        for p in sorted(zv):
            sources = tuple(sorted(I.in_nbrs[p] - zv))
            if 2 <= len(sources) <= 3:
                assert count_hypercube_assignments(p, sources) == (
                    count_cube_assignments_brute(p, sources)
                ), (z, p, sources)


def test_assignment_counts_match_brute_force_all_s4_pairs():
    # every two-arrow family inside the full rank-4 interval
    from bruhatcubes.permutations import incomparable

    I = interval(identity(4), longest_element(4))
    checked = 0
    for p in I.elements:
        nbrs = sorted(I.in_nbrs[p])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if not incomparable(a, b):
                    continue
                got = count_hypercube_assignments(p, (a, b))
                assert got == count_cube_assignments_brute(p, (a, b)), (p, a, b)
                checked += 1
    assert checked == 65


@given(pair=comparable_pair(max_size=24), data=st.data())
@settings(max_examples=20, deadline=None)
def test_assignment_counts_match_brute_force_s5_s6(pair, data):
    # families of 2 or 3 pairwise incomparable interval arrows into one p
    u, v = pair
    members = interval_elements_brute(u, v)
    edges = bruhat_edges_brute(members)
    families = [
        (p, family)
        for p in sorted(members)
        for k in (2, 3)
        for family in itertools.combinations(sorted(x for x, y, _ in edges if y == p), k)
        if not any(subword_leq(a, b) or subword_leq(b, a) for a, b in itertools.combinations(family, 2))
    ]
    assume(families)
    p, family = data.draw(st.sampled_from(families))
    brute = count_cube_assignments_brute(p, family)
    assert count_hypercube_assignments(p, family) == brute, (p, family)
    assert (spans_hypercube(p, family) is not None) == (brute == 1), (p, family)


def test_lower_neighbors():
    assert lower_neighbors(E3) == {}
    assert lower_neighbors((2, 3, 1)) == {(1, 3, 2): (1, 3), (2, 1, 3): (2, 3)}
    with pytest.raises(TypeError):
        lower_neighbors((2, 3, 1))[(1, 2, 3)] = (1, 2)


def test_spans_cluster_examples():
    assert spans_cluster(W3, frozenset())
    assert spans_cluster(W3, frozenset({(1, 2, 3)}))
    assert spans_cluster(W3, frozenset({(1, 2, 3), (3, 1, 2)}))  # comparable sources
    assert spans_cluster((2, 3, 1), frozenset({(1, 3, 2), (2, 1, 3)}))
    assert not spans_cluster(W3, frozenset({(2, 3, 1), (3, 1, 2)}))


# ---------------------------------------------------------------------------
# decompositions


def test_inflow_examples():
    z = (2, 3, 1)
    assert inflow(I3, E3, W3) == frozenset()
    assert inflow(I3, z, W3) == {E3, (3, 1, 2)}
    assert inflow(I3, z, z) == {(1, 3, 2), (2, 1, 3)}
    with pytest.raises(OrderError):
        inflow(I3, z, (1, 3, 2))


def test_is_upper_hcd_examples():
    assert is_upper_hcd(I3, E3)
    assert is_upper_hcd(I3, (2, 3, 1))
    assert is_upper_hcd(I3, (3, 1, 2))
    assert not is_upper_hcd(I3, W3)
    assert not is_upper_hcd(I3, (1, 3, 2))


def test_standard_hcds_examples():
    assert standard_hcds(I3) == ((2, 3, 1), (3, 1, 2))
    kinds = standard_hcd_kinds(I3)
    assert kinds["left-drop-top"] == (3, 1, 2)
    assert kinds["left-drop-bottom"] == (2, 3, 1)
    assert kinds["right-drop-top"] == (2, 3, 1)
    assert kinds["right-drop-bottom"] == (3, 1, 2)
    Iv = interval(W3, W3)
    assert standard_hcds(Iv) == (W3,)


def test_standard_hcds_are_decompositions_s4():
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        for z in standard_hcds(I):
            assert is_upper_hcd(I, z), (u, v, z)


def test_join_examples():
    z = (2, 3, 1)
    assert join(I3, z, E3) == z
    assert join(I3, z, (1, 3, 2)) == z
    assert join(I3, z, (3, 1, 2)) == W3
    # no minimum: [132,321] and [213,321] meet in the two coatoms
    assert join(I3, (1, 3, 2), (2, 1, 3)) is None


def test_is_amazing_examples():
    assert is_amazing(I3, E3)
    assert is_amazing(I3, (2, 3, 1))
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        for z in standard_hcds(I):
            assert is_amazing(I, z)


def test_upper_but_not_amazing_witness():
    # the single rank-4 instance where an upper decomposition fails to be
    # amazing: the joint cone has two minimal members, so the join is absent
    I = interval((1, 2, 3, 4), (3, 4, 1, 2))
    z = (2, 1, 4, 3)
    assert is_upper_hcd(I, z)
    assert join(I, z, (1, 3, 2, 4)) is None
    cone = I.up[z] & I.up[(1, 3, 2, 4)]
    minimal = {m for m in cone if not any(c in I.down[m] for c in cone if c != m)}
    assert minimal == {(2, 4, 1, 3), (3, 1, 4, 2)}
    assert not is_amazing(I, z)


def test_amazing_join_is_amazing_s4_exhaustive():
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        for z in enumerate_hcds(I, amazing_only=True):
            for x in I.elements:
                j = join(I, z, x)
                assert j is not None
                assert is_amazing(interval(x, v), j), (u, v, z, x)


# ---------------------------------------------------------------------------
# shortcuts


def test_shortcuts_examples():
    z = (2, 3, 1)
    assert shortcuts(I3, E3) == {E3}
    assert shortcuts(I3, z) == {z, W3}
    assert shortcuts(I3, W3) == {W3}


def test_shortcuts_match_brute_force_s3():
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        members = set(I.elements)
        for z in I.elements:
            assert shortcuts(I, z) == shortcuts_brute(members, u, v, z), (u, v, z)


def test_shortcut_definitions_agree_on_decompositions_s4():
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        for z in I.elements:
            if is_upper_hcd(I, z):
                assert shortcuts(I, z) == shortcuts_by_cover_distance(I, z), (u, v, z)


def test_rtilde_z_examples():
    z = (2, 3, 1)
    assert rtilde_z(I3, E3) == rtilde(E3, W3)
    assert rtilde_z(I3, z) == (0, 1, 0, 1)
    Iv = interval(W3, W3)
    assert rtilde_z(Iv, W3) == ONE


def test_r_element_examples():
    assert is_r_element(I3, E3)
    assert is_r_element(I3, (2, 3, 1))
    for z in standard_hcds(I3):
        assert is_amazing_r_element(I3, z)


def test_enumerate_hcds_examples():
    Iv = interval(W3, W3)
    assert enumerate_hcds(Iv) == (W3,)
    assert enumerate_hcds(I3) == (E3, (2, 3, 1), (3, 1, 2))
    assert enumerate_hcds(I3, amazing_only=True) == (E3, (2, 3, 1), (3, 1, 2))
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        assert set(standard_hcds(I)) <= set(enumerate_hcds(I))


@given(pair=comparable_pair(max_size=60), data=st.data())
@settings(max_examples=40, deadline=None)
def test_join_matches_brute_force_s5_s6(pair, data):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    z = data.draw(st.sampled_from(sorted(members)), label="z")
    for x in sorted(members):
        assert join(I, z, x) == join_brute(members, z, x), x


@given(pair=comparable_pair(max_size=24))
@settings(max_examples=30, deadline=None)
def test_shortcuts_match_brute_force_s5_s6(pair):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    for z in sorted(members):
        assert shortcuts(I, z) == shortcuts_brute(members, u, v, z), z


# ---------------------------------------------------------------------------
# the four predicates against their definitions

PREDICATES = (is_upper_hcd, is_amazing, is_r_element, is_amazing_r_element)
ORACLES = (upper_hcd_brute, amazing_brute, r_element_brute, amazing_r_element_brute)


def _predicates_match_oracles(u, v):
    I = interval(u, v)
    for z in I.elements:
        got = tuple(test(I, z) for test in PREDICATES)
        assert got == tuple(brute(u, v, z) for brute in ORACLES), (u, v, z)


def test_predicates_match_oracles_s4():
    for u, v in comparable_pairs(4):
        _predicates_match_oracles(u, v)


@given(pair=comparable_pair(max_size=24))
@settings(max_examples=15, deadline=None)
def test_predicates_match_oracles_s5_s6(pair):
    _predicates_match_oracles(*pair)


def test_join_rows_match_oracle_s4():
    # the row of joins that is_amazing, is_amazing_r_element and bologna read
    missing = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        members, index = set(I.elements), I.index
        for z in I.elements:
            row = [(x, join_brute(members, z, x)) for x in I.elements]
            got = [(x, hcd._join_id(index.up, I.upper(z), index.id[x])) for x in I.elements]
            assert [(x, index.perms[k] if k >= 0 else None) for x, k in got] == row, (u, v, z)
            missing += sum(j is None for _, j in row)
    assert missing == 504


def test_predicates_reject_z_outside_interval():
    I = interval((1, 3, 2), W3)
    for test in PREDICATES:
        for z in (E3, (2, 1, 3, 4), (1, 1, 3)):
            with pytest.raises(OrderError):
                test(I, z)


def test_amazing_r_element_builds_no_sub_intervals(built_intervals):
    e, w0 = identity(4), longest_element(4)
    I = interval(e, w0)
    assert [is_amazing_r_element(I, z) for z in I.elements].count(True) == 3
    assert built_intervals == [(e, w0)]


# ---------------------------------------------------------------------------
# join rows: two per (n, v, z) table, shared by every bottom u

ROW_TOPS = ((4, 5, 1, 2, 3), (2, 5, 4, 3, 1))
ROW_PAIRS = [p for p in comparable_pairs(5) if p[1] in ROW_TOPS and interval_size(*p) <= 24]


def _row_readings(pairs) -> dict:
    """is_amazing and is_amazing_r_element of every z, and bologna's h2 of
    every pair of amazing z != z', for the pairs in the order given."""
    out = {}
    for u, v in pairs:
        I = interval(u, v)
        amazing = []
        for z in I.elements:
            out[u, v, z] = (is_amazing(I, z), is_amazing_r_element(I, z))
            if out[u, v, z][0]:
                amazing.append(z)
        for z, zp in itertools.permutations(amazing, 2):
            out[u, v, z, zp] = verify_bologna(I, z, zp)["hypotheses"]["h2"]
    return out


def test_row_tables_do_not_depend_on_visit_order(clear_memos):
    assert len(ROW_PAIRS) == 84
    clear_memos()
    bottom_major = _row_readings(ROW_PAIRS)
    for key, got in bottom_major.items():
        if len(key) == 3:
            assert got == (amazing_brute(*key), amazing_r_element_brute(*key)), key
        else:
            u, v, _, zp = key
            members = interval_elements_brute(u, v)
            h2 = all(r_element_brute(x, v, join_brute(members, zp, x)) for x in members - {u})
            assert got == h2, key
    shuffled = list(ROW_PAIRS)
    random.Random(5).shuffle(shuffled)
    for pairs in (ROW_PAIRS[::-1], shuffled):
        clear_memos()
        assert _row_readings(pairs) == bottom_major


@pytest.fixture
def kernel_calls(clear_memos, monkeypatch):
    """The calls that the join rows make of ``_upper_hcd`` and
    ``_r_element``, from cleared memos."""
    clear_memos()
    calls = []
    for name in ("_upper_hcd", "_r_element"):

        def counted(*key, kernel=getattr(hcd, name)):
            calls.append(key)
            return kernel(*key)

        monkeypatch.setattr(hcd, name, counted)
    return calls


def test_rows_answer_covered_bits_without_kernel_calls(kernel_calls):
    w0 = longest_element(5)
    top = interval(identity(5), w0)
    z = standard_hcds(top)[-1]
    assert is_amazing_r_element(top, z)
    # one per x outside [z, v] for each row; the x in [z, v] are their own join
    outside = (top.mask & ~top.upper(z)).bit_count()
    assert outside == 96 and len(kernel_calls) == 2 * outside
    kernel_calls.clear()
    below_z = [u for u in top.elements if top.leq(u, z)]
    for u in below_z:
        I = interval(u, w0)
        assert is_amazing(I, z) and is_amazing_r_element(I, z)
    assert len(below_z) > 1 and kernel_calls == []


def test_rows_answer_a_known_bad_bit_without_kernel_calls(kernel_calls):
    index = interval(identity(4), identity(4)).index
    up = index.up
    found = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        for z in I.elements:
            if is_amazing(I, z):
                continue
            zid = index.id[z]
            bad = (hcd._table(4, I.vid, zid)[hcd._HCD_ROW + 1] & I.mask).bit_length() - 1
            assert bad >= 0
            # another bottom below z and the bad bit, with the same (v, z)
            for w in range(len(index.perms)):
                if w != I.uid and up[w] >> bad & 1 and up[w] >> zid & 1 and up[w] >> I.vid & 1:
                    kernel_calls.clear()
                    assert not is_amazing(interval(index.perms[w], v), z)
                    assert kernel_calls == []
                    found += 1
    assert found


def test_r_element_evaluates_once_per_triple(clear_memos, monkeypatch):
    """From cleared memos, reading every predicate of every z of ROW_PAIRS
    twice evaluates ``_r_element`` once per distinct (u, v, z): the answer
    is a bit of the (v, z) table, kept for its own bottom only."""
    clear_memos()
    evaluated = []
    level = hcd._shortcut_level

    def counted(*key):
        evaluated.append(key)
        return level(*key)

    monkeypatch.setattr(hcd, "_shortcut_level", counted)
    readings = []
    for _ in range(2):
        for u, v in ROW_PAIRS:
            I = interval(u, v)
            readings.append([test(I, z) for z in I.elements for test in PREDICATES])
    assert readings[: len(ROW_PAIRS)] == readings[len(ROW_PAIRS) :]
    assert evaluated and len(evaluated) == len(set(evaluated))


def test_r_element_answers_stay_with_their_bottom(clear_memos):
    """z = 14352 is an R-element of [12435, 45132] but not of [12453, 45132],
    a bottom one cover higher, so a result of ``_r_element`` cannot pass to
    other bottoms as one of ``_upper_hcd`` does.  Either visit order reads
    both right."""
    u, w, v, z = (1, 2, 4, 3, 5), (1, 2, 4, 5, 3), (4, 5, 1, 3, 2), (1, 4, 3, 5, 2)
    assert r_element_brute(u, v, z) and not r_element_brute(w, v, z)
    for order in ((u, w), (w, u)):
        clear_memos()
        assert [is_r_element(interval(b, v), z) for b in order] == [b == u for b in order]


# ---------------------------------------------------------------------------
# bottom masks: the [good, bad] pair of _upper_hcd per (n, v, z), shared by
# every bottom u


def _passes_to_higher_bottoms(u, v, z) -> bool:
    """If z is an upper decomposition of [u, v], it is one of [w, v] for
    every w in [u, z], by the oracle."""
    if not upper_hcd_brute(u, v, z):
        return True
    members = interval_elements_brute(u, v)
    return all(upper_hcd_brute(w, v, z) for w in members if subword_leq(w, z))


def test_oracle_decompositions_pass_to_higher_bottoms_s4():
    triples = 0
    for u, v in comparable_pairs(4):
        # z = u is its own join: both kernels hold there
        assert upper_hcd_brute(u, v, u) and r_element_brute(u, v, u), (u, v)
        for z in interval_elements_brute(u, v):
            assert _passes_to_higher_bottoms(u, v, z), (u, v, z)
            triples += 1
    assert triples == 1_088


@given(pair=comparable_pair(max_size=24), data=st.data())
@settings(max_examples=15, deadline=None)
def test_oracle_decompositions_pass_to_higher_bottoms_s5_s6(pair, data):
    u, v = pair
    members = sorted(interval_elements_brute(u, v))
    x = data.draw(st.sampled_from(members), label="x")
    assert upper_hcd_brute(x, v, x) and r_element_brute(x, v, x)
    for z in members:
        assert _passes_to_higher_bottoms(u, v, z), z


@pytest.mark.parametrize("order", ["bottom-major", "top-down", "shuffled"])
def test_bottom_masks_do_not_depend_on_visit_order(clear_memos, order):
    pairs = {
        "bottom-major": ROW_PAIRS,
        "top-down": ROW_PAIRS[::-1],
        "shuffled": random.Random(7).sample(ROW_PAIRS, len(ROW_PAIRS)),
    }[order]
    clear_memos()
    for u, v in pairs:
        I = interval(u, v)
        for z in I.elements:
            assert is_upper_hcd(I, z) == upper_hcd_brute(u, v, z), (u, v, z)


@pytest.fixture
def evaluations(clear_memos, monkeypatch):
    """The masks of [u, v] at which ``_upper_hcd`` evaluates, from cleared
    memos: every evaluation starts with one diamond test."""
    clear_memos()
    seen = []
    diamond_complete = RankIndex.diamond_complete

    def counted(index, mask, zv):
        seen.append(mask)
        return diamond_complete(index, mask, zv)

    monkeypatch.setattr(RankIndex, "diamond_complete", counted)
    return seen


def test_one_evaluation_that_holds_answers_every_higher_bottom(evaluations):
    w0 = longest_element(5)
    top = interval(identity(5), w0)
    z = standard_hcds(top)[-1]
    below_z = [u for u in top.elements if top.leq(u, z)]
    assert all(is_upper_hcd(interval(u, w0), z) for u in below_z)
    assert len(below_z) == 16 and evaluations == [top.mask]


def test_one_evaluation_that_fails_answers_every_lower_bottom(evaluations):
    w0 = longest_element(4)
    top = interval(identity(4), w0)
    u = (3, 2, 4, 1)
    assert not is_upper_hcd(interval(u, w0), w0)
    below_u = [x for x in top.elements if top.leq(x, u)]
    assert not any(is_upper_hcd(interval(x, w0), w0) for x in below_u)
    assert len(below_u) == 12 and len(evaluations) == 1
