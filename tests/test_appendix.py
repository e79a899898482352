import random
from collections import Counter
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhatcubes import appendix
from bruhatcubes.appendix import (
    antichain_hypercubes,
    coatom_precedence_constraints,
    crossing_precedence_constraints,
    dh_multiset,
    is_cosimple,
    verify_dh_symmetry,
    verify_hw_projection,
    verify_lemma_incpaths,
)
from bruhatcubes.doubles import ds_multiset, multiset_entries
from bruhatcubes.hcd import _member_key, enumerate_hcds, shortcuts, spans_hypercube, standard_hcds
from bruhatcubes.interval import comparable_pairs, interval
from bruhatcubes.permutations import (
    all_perms,
    conjugate_by_longest,
    identity,
    incomparable,
    longest_element,
)
from bruhatcubes.rpoly import all_reflection_orders, constrained_orders, increasing_path_counts

from oracles import (
    antichain_hypercubes_brute,
    coatom_roots_brute,
    cosimple_brute,
    dh_multiset_brute,
    hypercubes_by_windows,
    increasing_paths_brute,
    integer_rank,
    interval_elements_brute,
    subword_leq,
    window_antichains,
)
from strategies import comparable_pair

E3 = identity(3)
W3 = longest_element(3)
I3 = interval(E3, W3)
Z, ZP = (2, 3, 1), (3, 1, 2)


# ---------------------------------------------------------------------------
# co-simplicity


def test_integer_rank_basics():
    # the rank oracle that the forest criterion is checked against
    assert integer_rank([]) == 0
    assert integer_rank([(0, 0, 0)]) == 0
    assert integer_rank([(1, -1, 0), (0, 1, -1)]) == 2
    assert integer_rank([(1, -1, 0), (0, 1, -1), (1, 0, -1)]) == 2
    assert integer_rank([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)]) == 3
    assert integer_rank([(2, 4), (1, 2)]) == 1
    # overflow-free exactness on a matrix that defeats float pivoting
    big = 10**30
    assert integer_rank([(big, 1), (big, 1)]) == 1
    assert integer_rank([(big, 1), (big, 2)]) == 2


def test_cosimple_examples():
    assert is_cosimple(I3)
    assert coatom_roots_brute(E3, W3) == [(1, -1, 0), (0, 1, -1)]
    # every interval up to the longest element is co-simple
    for n in (2, 3, 4):
        for u in all_perms(n):
            assert is_cosimple(interval(u, longest_element(n)))


def test_cosimple_false_when_coatoms_exceed_root_rank():
    # four coatom roots cannot be independent in the rank-3 root space
    I = interval(identity(4), (3, 4, 1, 2))
    assert len(I.coatom_reflections(I.u, I.v)) == 4
    assert not is_cosimple(I)


def test_cosimple_counterexample_exists_s4():
    flagged = [
        (u, v)
        for u, v in comparable_pairs(4)
        if not is_cosimple(interval(u, v))
    ]
    assert flagged  # rank-deficient coatom root sets occur
    for u, v in flagged[:3]:
        rows = coatom_roots_brute(u, v)
        assert integer_rank(rows) < len(rows)


def test_cosimple_matches_rank_oracle_s4_s5():
    # the forest criterion against the exact rank of the coatom roots
    flagged = 0
    for n in (4, 5):
        for u, v in comparable_pairs(n):
            cosimple = is_cosimple(interval(u, v))
            assert cosimple == cosimple_brute(u, v), (u, v)
            flagged += not cosimple
    assert flagged


def test_cosimple_matches_rank_oracle_drawn_s6():
    pairs = random.Random(6).sample(comparable_pairs(6), 1500)
    verdicts = Counter()
    for u, v in pairs:
        cosimple = is_cosimple(interval(u, v))
        assert cosimple == cosimple_brute(u, v), (u, v)
        verdicts[cosimple] += 1
    assert verdicts[True] and verdicts[False]


def test_cosimple_invariant_under_longest_conjugation_s4():
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        J = interval(conjugate_by_longest(u), conjugate_by_longest(v))
        assert is_cosimple(I) == is_cosimple(J), (u, v)


# ---------------------------------------------------------------------------
# antichain hypercubes and DH


def test_antichain_hypercubes_examples():
    pairs = antichain_hypercubes(I3, Z)
    summary = sorted((emb.rank, p) for emb, p in pairs)
    assert summary == [(1, W3), (2, Z)]
    rank2 = next(emb for emb, p in pairs if p == Z)
    assert rank2.image == {E3, (1, 3, 2), (2, 1, 3), Z}
    base = antichain_hypercubes(I3, E3)
    assert [(emb.rank, p) for emb, p in base] == [(0, E3)]


def test_antichain_hypercube_structure_invariants():
    for u, v in comparable_pairs(3) + [((1, 2, 3, 4), (4, 3, 2, 1))]:
        I = interval(u, v)
        for z in enumerate_hcds(I, amazing_only=True):
            for emb, p in antichain_hypercubes(I, z):
                assert emb.bottom == I.u
                assert emb.top == p
                # sources pairwise incomparable
                srcs = emb.sources
                for i in range(len(srcs)):
                    for j in range(i + 1, len(srcs)):
                        assert incomparable(srcs[i], srcs[j])
                # image inside the interval, meets [z,v] only at p
                assert emb.image <= set(I.elements)
                assert emb.image & I.up[z] == {p}
                # rank equals the edge count of any maximal chain; the cube
                # provides a path of that length, bounding the distance
                d = I.distance(I.u, p)
                assert d is not None and emb.rank >= d


def test_dh_examples():
    assert multiset_entries(dh_multiset(I3, E3, E3)) == [(0, "123", 1)]
    assert multiset_entries(dh_multiset(I3, Z, ZP)) == [(1, "321", 1), (3, "321", 1)]


def test_dh_equals_ds_on_all_s3_instances():
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        amazing = enumerate_hcds(I, amazing_only=True)
        for z in amazing:
            for zp in amazing:
                assert dh_multiset(I, z, zp) == ds_multiset(I, z, zp), (u, v, z, zp)


def test_dh_equals_ds_where_projection_bijects_s4():
    # cross-module consistency on every rank-4 instance whose hypercube
    # projection is a bijection onto the shortcut set
    agreements = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        amazing = enumerate_hcds(I, amazing_only=True)
        bijective = {
            z for z in amazing if verify_hw_projection(I, z)["status"] == "PASS"
        }
        for z in bijective:
            for zp in amazing:
                if zp not in bijective:
                    continue
                assert dh_multiset(I, z, zp) == ds_multiset(I, z, zp), (u, v, z, zp)
                agreements += 1
    assert agreements > 1000


@given(pair=comparable_pair(max_size=24), data=st.data())
@settings(max_examples=20, deadline=None)
def test_antichain_hypercubes_match_brute_force_s5_s6(pair, data):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    z = data.draw(st.sampled_from(sorted(members)), label="z")
    got = sorted((emb.rank, p) for emb, p in antichain_hypercubes(I, z))
    assert got == sorted(antichain_hypercubes_brute(members, u, v, z))


def _assert_window_order(u, v):
    """``_hypercubes`` tests the antichains of the window enumeration that
    have no source above z, in its order, and lists its hypercubes in that
    order (the hypercube level reads it).  The oracle keeps every antichain
    and filters the vertex sets by [z, v], so the output comparison shows
    that skipping the sources in [z, v] loses no hypercube."""
    I = interval(u, v)
    members = interval_elements_brute(u, v)
    for z in I.elements:
        tested = []

        def spy(top, sources):
            tested.append((top, sources))
            return spans_hypercube(top, sources)

        with mock.patch.object(appendix, "spans_hypercube", spy):
            found = list(appendix._hypercubes(*_member_key(I, z)))
        outside = [
            (p, sub)
            for p, sub in window_antichains(members, z)
            if not any(subword_leq(z, s) for s in sub)
        ]
        assert tested == outside, (u, v, z)
        perms = I.index.perms
        got = [(emb, perms[p]) for emb, p in found]
        assert got == hypercubes_by_windows(members, u, v, z), (u, v, z)


def test_hypercubes_keep_window_order_s4():
    for u, v in comparable_pairs(4):
        _assert_window_order(u, v)


@given(pair=comparable_pair(max_size=40))
@settings(max_examples=20, deadline=None)
def test_hypercubes_keep_window_order_s5_s6(pair):
    _assert_window_order(*pair)


@given(pair=comparable_pair(max_size=24), data=st.data())
@settings(max_examples=20, deadline=None)
def test_dh_multiset_matches_brute_force_s5_s6(pair, data):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    amazing = enumerate_hcds(I, amazing_only=True)
    z = data.draw(st.sampled_from(amazing), label="z")
    zp = data.draw(st.sampled_from(amazing), label="z2")
    assert dh_multiset(I, z, zp) == Counter(dh_multiset_brute(members, u, v, z, zp))


def test_hypercube_rank_matches_distance_report():
    # rank >= d(u,p) is structural; equality is observed and reported, not
    # assumed, pending the projection conjecture
    mismatches = 0
    instances = 0
    for n in (3, 4):
        for u, v in comparable_pairs(n):
            I = interval(u, v)
            for z in enumerate_hcds(I, amazing_only=True):
                for emb, p in antichain_hypercubes(I, z):
                    instances += 1
                    if emb.rank != I.distance(I.u, p):
                        mismatches += 1
    print(f"rank-vs-distance report: {instances} hypercubes, {mismatches} with rank > distance")


def test_dh_symmetry_records():
    assert verify_dh_symmetry(I3, Z, Z)["status"] == "PASS"
    rec = verify_dh_symmetry(I3, Z, ZP)
    assert rec["status"] == "PASS" and rec["pair_kind"] == "standard"
    rec = verify_dh_symmetry(I3, E3, Z, conjectural=True)
    assert rec["status"] == "PASS" and rec["pair_kind"] == "amazing"


def test_hw_projection_records():
    assert verify_hw_projection(I3, E3)["status"] == "PASS"
    rec = verify_hw_projection(I3, Z)
    assert rec["status"] == "PASS"
    assert rec["hypercubes"] == rec["shortcuts"] == 2
    # image equality holds for every amazing z in rank 3
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        for z in enumerate_hcds(I, amazing_only=True):
            assert {p for _, p in antichain_hypercubes(I, z)} == shortcuts(I, z)


# ---------------------------------------------------------------------------
# the increasing-path lemma


def test_lemma_constraints_worked_instance():
    assert coatom_precedence_constraints(I3, Z) == {((2, 3), (1, 2))}
    crossing = crossing_precedence_constraints(I3, Z)
    assert ((2, 3), (1, 2)) in crossing


def test_lemma_record_worked_instance():
    rec = verify_lemma_incpaths(I3, Z)
    assert rec["status"] == "PASS" and rec["orders"] == 1
    rec = verify_lemma_incpaths(I3, W3)
    assert rec["status"] == "PASS" and rec["orders"] == 2
    rec = verify_lemma_incpaths(I3, Z, reading="crossing")
    assert rec["status"] == "PASS"


def test_lemma_skips():
    # z without diamond completeness is skipped
    rec = verify_lemma_incpaths(I3, (1, 3, 2))
    assert rec["status"] == "SKIP"
    # contradictory explicit constraints: no order exists
    rec = verify_lemma_incpaths(I3, Z, constraints=frozenset({((1, 2), (1, 2))}))
    assert rec["status"] == "SKIP" and rec["reason"] == "no constrained order exists"


def test_lemma_coatom_reading_falsified_instance():
    # the known witness: coatom constraints leave a crossing label free
    I = interval((1, 2, 3, 4), (2, 3, 4, 1))
    z = (1, 2, 4, 3)
    rec = verify_lemma_incpaths(I, z, reading="coatom")
    assert rec["status"] == "FINDING"
    rec = verify_lemma_incpaths(I, z, reading="crossing")
    assert rec["status"] == "PASS"


def _table_key(table):
    return tuple((p, tuple(sorted(row.items()))) for p, row in sorted(table.items()))


def _restriction(I, order):
    labels = {t for _, _, t in I.arrow_ids()}
    return tuple(t for t in order.sequence if t in labels)


def test_orders_with_equal_restriction_give_equal_tables_s4():
    # the label pass reads only the labels of arrows inside the interval
    orders = all_reflection_orders(4)
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        for z in I.elements:
            tables = {}
            for o in orders:
                key = _table_key(increasing_path_counts(I, z, o))
                assert tables.setdefault(_restriction(I, o), key) == key, (u, v, z, str(o))


def _table_brute(members, u, z, order):
    """The restricted increasing-path table, from every increasing path."""
    table = {}
    for p in members:
        if subword_leq(z, p):
            row = table[p] = {}
            for path in increasing_paths_brute(members, u, p, order):
                if not any(subword_leq(z, x) for x in path[:-1]):
                    row[len(path) - 1] = row.get(len(path) - 1, 0) + 1
    return _table_key(table)


@given(pair=comparable_pair(max_size=24))
@settings(max_examples=20, deadline=None)
def test_lemma_record_matches_every_order_s5(pair):
    # one table per restriction must give the record that evaluating every
    # order gives, under the order limit of the sweep
    u, v = pair
    assume(len(u) == 5)
    I = interval(u, v)
    members = interval_elements_brute(u, v)
    for z in standard_hcds(I):
        for reading, constraints in (
            ("crossing", crossing_precedence_constraints(I, z)),
            ("coatom", coatom_precedence_constraints(I, z)),
        ):
            rec = verify_lemma_incpaths(I, z, reading=reading, order_limit=48)
            if rec["status"] == "SKIP":
                continue
            orders = constrained_orders(5, constraints, limit=48)
            tables = {_table_brute(members, u, z, o) for o in orders}
            if len(tables) == 1:
                status = "PASS"
            else:
                status = "FAIL" if reading == "crossing" else "FINDING"
            assert (rec["status"], rec["orders"]) == (status, len(orders)), (u, v, z, reading)
