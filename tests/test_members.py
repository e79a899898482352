"""Windows enter an interval through ``Interval.member``, and arrow families
through ``hcd._edge_family``: every public function that takes a member or
an arrow family raises ``OrderError`` for anything else."""

import pytest

from bruhatcubes.appendix import (
    antichain_hypercubes,
    coatom_precedence_constraints,
    crossing_precedence_constraints,
    dh_multiset,
    dh_symmetric,
    is_cosimple,
    verify_dh_symmetry,
    verify_hw_projection,
    verify_lemma_incpaths,
)
from bruhatcubes.doubles import (
    bologna_chain,
    ds_multiset,
    ds_symmetric,
    verify_bologna,
    verify_product,
    verify_strong_ds_pair,
)
from bruhatcubes.errors import OrderError
from bruhatcubes.hcd import (
    count_hypercube_assignments,
    inflow,
    is_amazing,
    is_amazing_r_element,
    is_r_element,
    is_upper_hcd,
    join,
    rtilde_z,
    shortcuts,
    shortcuts_by_cover_distance,
    spans_cluster,
    spans_hypercube,
)
from bruhatcubes.interval import comparable_pairs, interval, rank_index
from bruhatcubes.permutations import bruhat_leq
from bruhatcubes.rpoly import constrained_orders, increasing_path_counts

I = interval((1, 2, 4, 3), (1, 4, 3, 2))  # co-simple; its top is not amazing
U, V = I.u, I.v
NOT_COSIMPLE = interval((1, 2, 3, 4), (3, 4, 1, 2))
F1, F2 = interval((1, 2, 3), (2, 3, 1)), interval((1, 2), (1, 2))
ORDER = constrained_orders(4, limit=1)[0]
TOP = (1, 4, 3, 2)  # the top of the arrow families below


def _product(slot: int):
    """verify_product of F1 x F2 on one pair, x in ``slot`` of (z1, z2, z1', z2')."""

    def call(x):
        parts = [F1.u, F2.u, F1.u, F2.u]
        parts[slot] = x
        return verify_product(F1, F2, [((parts[0], parts[1]), (parts[2], parts[3]))])

    return call


# (name, interval, call): call(x) passes x in one member slot, the other
# slots holding members
MEMBER_SLOTS = [
    ("Interval.member", I, lambda x: I.member(x)),
    ("Interval.upper", I, I.upper),
    ("Interval.leq/x", I, lambda x: I.leq(x, V)),
    ("Interval.leq/y", I, lambda x: I.leq(U, x)),
    ("Interval.distance/x", I, lambda x: I.distance(x, V)),
    ("Interval.distance/y", I, lambda x: I.distance(U, x)),
    ("Interval.coatom_reflections/x", I, lambda x: I.coatom_reflections(x, V)),
    ("Interval.coatom_reflections/y", I, lambda x: I.coatom_reflections(U, x)),
    ("Interval.is_diamond_complete", I, I.is_diamond_complete),
    ("inflow/z", I, lambda x: inflow(I, x, V)),
    ("inflow/p", I, lambda x: inflow(I, U, x)),
    ("is_upper_hcd", I, lambda x: is_upper_hcd(I, x)),
    ("is_amazing", I, lambda x: is_amazing(I, x)),
    ("join/z", I, lambda x: join(I, x, V)),
    ("join/x", I, lambda x: join(I, U, x)),
    ("shortcuts", I, lambda x: shortcuts(I, x)),
    ("shortcuts_by_cover_distance", I, lambda x: shortcuts_by_cover_distance(I, x)),
    ("rtilde_z", I, lambda x: rtilde_z(I, x)),
    ("is_r_element", I, lambda x: is_r_element(I, x)),
    ("is_amazing_r_element", I, lambda x: is_amazing_r_element(I, x)),
    ("ds_multiset/z", I, lambda x: ds_multiset(I, x, U)),
    ("ds_multiset/z2", I, lambda x: ds_multiset(I, U, x)),
    ("ds_symmetric/z", I, lambda x: ds_symmetric(I, x, U)),
    ("ds_symmetric/z2", I, lambda x: ds_symmetric(I, U, x)),
    ("bologna_chain/z", I, lambda x: bologna_chain(I, x, U)),
    ("bologna_chain/z2", I, lambda x: bologna_chain(I, U, x)),
    ("verify_bologna/z", I, lambda x: verify_bologna(I, x, U)),
    ("verify_bologna/z2", I, lambda x: verify_bologna(I, U, x)),
    # z = v is not amazing in I, so the pair is skipped unless z' is checked first
    ("verify_bologna/z2-after-non-amazing-z", I, lambda x: verify_bologna(I, V, x)),
    ("verify_strong_ds_pair/z", I, lambda x: verify_strong_ds_pair(I, x, U)),
    ("verify_strong_ds_pair/z2", I, lambda x: verify_strong_ds_pair(I, U, x)),
    ("verify_product/z1", F1, _product(0)),
    ("verify_product/z2", F2, _product(1)),
    ("verify_product/z1'", F1, _product(2)),
    ("verify_product/z2'", F2, _product(3)),
    ("antichain_hypercubes", I, lambda x: antichain_hypercubes(I, x)),
    ("dh_multiset/z", I, lambda x: dh_multiset(I, x, U)),
    ("dh_multiset/z2", I, lambda x: dh_multiset(I, U, x)),
    ("dh_symmetric/z", I, lambda x: dh_symmetric(I, x, U)),
    ("dh_symmetric/z2", I, lambda x: dh_symmetric(I, U, x)),
    ("verify_dh_symmetry/z", I, lambda x: verify_dh_symmetry(I, x, U)),
    ("verify_dh_symmetry/z2", I, lambda x: verify_dh_symmetry(I, U, x)),
    ("verify_hw_projection", I, lambda x: verify_hw_projection(I, x)),
    ("coatom_precedence_constraints", I, lambda x: coatom_precedence_constraints(I, x)),
    ("crossing_precedence_constraints", I, lambda x: crossing_precedence_constraints(I, x)),
    ("verify_lemma_incpaths", I, lambda x: verify_lemma_incpaths(I, x)),
    # not co-simple, so the call skips unless z is checked first
    (
        "verify_lemma_incpaths/not-co-simple",
        NOT_COSIMPLE,
        lambda x: verify_lemma_incpaths(NOT_COSIMPLE, x),
    ),
    ("increasing_path_counts", I, lambda x: increasing_path_counts(I, x, ORDER)),
]

# (name, call(top, source)) for the functions taking an arrow family
FAMILIES = [
    ("spans_hypercube", lambda top, *s: spans_hypercube(top, tuple(s))),
    ("count_hypercube_assignments", lambda top, *s: count_hypercube_assignments(top, tuple(s))),
    ("spans_cluster", lambda top, *s: spans_cluster(top, frozenset(s))),
]


def _non_members(J):
    """A tuple that is not a window, a window of another rank, and the
    first window of the rank outside J."""
    outside = next(x for x in rank_index(J.n).perms if x not in J)
    return {
        "not-a-window": J.u[:-1] + J.u[:1],
        "other-rank": J.u + (J.n + 1,),
        "outside": outside,
    }


CASES = [
    pytest.param(call, x, id=f"{name}-{kind}")
    for name, J, call in MEMBER_SLOTS
    for kind, x in _non_members(J).items()
]
# a non-window top, then sources that are no arrow into TOP
BAD_SOURCES = {
    "source-not-a-window": (1, 1, 2, 3),
    "source-other-rank": (1, 2, 3),
    "source-no-arrow": (4, 3, 2, 1),
}
for name, call in FAMILIES:
    CASES.append(pytest.param(call, (1, 1, 2), id=f"{name}-top-not-a-window"))
    for kind, x in BAD_SOURCES.items():
        CASES.append(pytest.param(lambda x, call=call: call(TOP, x), x, id=f"{name}-{kind}"))


def test_the_guarded_cases_hold_their_premises():
    assert is_cosimple(I) and not is_amazing(I, V) and not is_cosimple(NOT_COSIMPLE)
    assert spans_hypercube(TOP, ()) is not None  # an empty family spans
    for J in {I, F1, F2, NOT_COSIMPLE}:
        for x in _non_members(J).values():
            assert x not in J


@pytest.mark.parametrize("call, x", CASES)
def test_non_member_raises_order_error(call, x):
    with pytest.raises(OrderError):
        call(x)


DEFECTS = [
    pytest.param(
        lambda: crossing_precedence_constraints(
            interval((1, 2, 4, 3), (1, 4, 3, 2)), (1, 3, 2, 4)
        ),
        id="crossing-window-outside",
    ),
    pytest.param(
        lambda: crossing_precedence_constraints(
            interval((1, 2, 3, 4), (2, 3, 1, 4)), (1, 1, 2, 3)
        ),
        id="crossing-not-a-window",
    ),
    pytest.param(
        lambda: interval((1, 2, 3, 4), (2, 3, 1, 4)).upper((1, 1, 2, 3)),
        id="upper-not-a-window",
    ),
    pytest.param(
        lambda: interval((1, 2, 3, 4), (2, 3, 1, 4)).upper((1, 2, 3)),
        id="upper-other-rank",
    ),
    pytest.param(lambda: spans_hypercube((1, 1, 2), ()), id="spans-hypercube-top"),
    pytest.param(
        lambda: count_hypercube_assignments((1, 1, 2), ()), id="count-assignments-top"
    ),
    pytest.param(lambda: spans_cluster((1, 1, 2), frozenset()), id="spans-cluster-top"),
]


@pytest.mark.parametrize("call", DEFECTS)
def test_unchecked_inputs_now_raise_order_error(call):
    # each returned an answer or raised a bare KeyError before the entry
    # point was shared
    with pytest.raises(OrderError):
        call()


def test_member_is_the_id_on_every_s4_interval():
    index = rank_index(4)
    for u, v in comparable_pairs(4):
        J = interval(u, v)
        for x in index.perms:
            if bruhat_leq(u, x) and bruhat_leq(x, v):
                assert J.member(x) == index.id[x], (u, v, x)
            else:
                with pytest.raises(OrderError, match=r"is not in Interval\["):
                    J.member(x)
