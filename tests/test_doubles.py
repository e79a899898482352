import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatcubes.appendix import dh_multiset
from bruhatcubes.doubles import (
    bologna_chain,
    ds_multiset,
    ds_symmetric,
    equivalence_classes,
    multiset_entries,
    partition_by_relation,
    verify_bologna,
    verify_congettura,
    verify_em0,
    verify_product,
    verify_strong_ds_pair,
)
from bruhatcubes.errors import OrderError
from bruhatcubes.hcd import (
    enumerate_hcds,
    is_amazing_r_element,
    is_r_element,
    join,
    shortcuts,
    standard_hcds,
)
from bruhatcubes.interval import comparable_pairs, interval
from bruhatcubes.permutations import direct_sum, format_perm, identity, longest_element
from bruhatcubes.polynomials import padd, pshift
from bruhatcubes.rpoly import rtilde

from oracles import (
    ds_multiset_brute,
    geodesics_brute,
    interval_elements_brute,
    product_outcome_brute,
    shortcuts_brute,
)
from strategies import comparable_pair

E3 = identity(3)
W3 = longest_element(3)
I3 = interval(E3, W3)
Z, ZP = (2, 3, 1), (3, 1, 2)


def test_ds_examples():
    assert multiset_entries(ds_multiset(I3, E3, E3)) == [(0, "123", 1)]
    assert multiset_entries(ds_multiset(I3, Z, ZP)) == [(1, "321", 1), (3, "321", 1)]
    assert multiset_entries(ds_multiset(I3, ZP, Z)) == [(1, "321", 1), (3, "321", 1)]


def test_ds_symmetric_examples():
    assert ds_symmetric(I3, Z, Z)
    assert ds_symmetric(I3, Z, ZP)


def test_ds_requires_joins():
    with pytest.raises(OrderError):
        ds_multiset(I3, (1, 3, 2), (2, 1, 3))


def test_ds_symmetric_all_s3_amazing_pairs():
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        amazing = enumerate_hcds(I, amazing_only=True)
        for z in amazing:
            for zp in amazing:
                assert ds_symmetric(I, z, zp), (u, v, z, zp)


def test_ds_consistency_with_recomputed_joins():
    # independent join recomputation: scan for the unique least member
    def join_slow(I, z, x):
        members = [
            y
            for y in I.elements
            if y in I.up[z] and y in I.up[x]
        ]
        least = [m for m in members if all(m in I.down[y] for y in members)]
        return least[0] if len(least) == 1 else None

    for u, v in comparable_pairs(3):
        I = interval(u, v)
        for z in enumerate_hcds(I, amazing_only=True):
            for zp in enumerate_hcds(I, amazing_only=True):
                direct = ds_multiset(I, z, zp)
                rebuilt = Counter()
                du = I.dist[I.u]
                for p in shortcuts(I, z):
                    j = join_slow(I, zp, p)
                    assert j == join(I, zp, p)
                    sub = interval(p, I.v)
                    for b in shortcuts(sub, j):
                        rebuilt[(du[p] + sub.dist[p][b], b)] += 1
                assert direct == rebuilt


def test_ds_totals_identity_s3():
    # with hypotheses (1)+(2) in force the weighted DS sum reproduces the
    # interval polynomial
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        amazing = enumerate_hcds(I, amazing_only=True)
        for z in amazing:
            if not is_amazing_r_element(I, z):
                continue
            for zp in amazing:
                if not all(
                    is_r_element(interval(x, I.v), join(I, zp, x))
                    for x in I.elements
                    if x != I.u
                ):
                    continue
                total = ()
                for (a, b), k in ds_multiset(I, z, zp).items():
                    term = pshift(rtilde(b, I.v), a)
                    for _ in range(k):
                        total = padd(total, term)
                assert total == rtilde(I.u, I.v), (u, v, z, zp)


def test_equivalence_classes_examples():
    assert equivalence_classes(interval(W3, W3)) == [(W3,)]
    assert equivalence_classes(I3) == [(E3, Z, ZP)]
    assert equivalence_classes(I3, include_min=False) == [(Z, ZP)]


def test_partition_determinism_under_shuffle():
    items = list(range(12))
    related = lambda a, b: a % 3 == b % 3
    expected = partition_by_relation(items, related)
    for seed in range(5):
        shuffled = items[:]
        random.Random(seed).shuffle(shuffled)
        assert partition_by_relation(shuffled, related) == expected


def test_verify_records_s3():
    assert verify_em0(I3)["status"] == "PASS"
    assert verify_congettura(I3)["status"] == "PASS"
    assert verify_strong_ds_pair(I3, Z, ZP)["status"] == "PASS"
    for u, v in comparable_pairs(3):
        I = interval(u, v)
        assert verify_em0(I)["status"] == "PASS"
        assert verify_congettura(I)["status"] == "PASS"


def test_verify_em0_reports_class_counts():
    rec = verify_em0(I3)
    assert rec["classes"] == 1
    assert rec["classes_without_min"] == 1
    assert rec["amazing"] == 3


def test_bologna_trivial_pair():
    rec = verify_bologna(I3, E3, E3)
    assert rec["status"] == "PASS"
    assert all(rec["hypotheses"].values())


def test_bologna_worked_instance():
    rec = verify_bologna(I3, Z, ZP)
    assert rec["status"] == "PASS"
    assert rec["conclusion"] is True
    assert len(rec["chain"]) == 7
    assert set(rec["chain"]) == {"q^3+q"}


def test_bologna_chain_values():
    chain = bologna_chain(I3, Z, ZP)
    assert len(chain) == 7
    assert all(c == chain[0] for c in chain)


def test_bologna_skips_non_amazing():
    for z, zp in (((1, 3, 2), Z), (Z, (1, 3, 2))):
        rec = verify_bologna(I3, z, zp)
        assert (rec["status"], rec["reason"]) == ("SKIP", "pair not amazing")


def test_bologna_skips_when_a_hypothesis_fails(monkeypatch):
    # no amazing pair up to S5 fails a hypothesis, so DS symmetry is broken
    import bruhatcubes.doubles as doubles

    monkeypatch.setattr(doubles, "ds_symmetric", lambda I, z, zp: False)
    rec = verify_bologna(I3, Z, ZP)
    assert rec["status"] == "SKIP"
    assert rec["hypotheses"] == {"h1": True, "h2": True, "h3": False}
    assert "chain" not in rec


def test_product_boolean_square():
    I2 = interval(identity(2), longest_element(2))
    records = verify_product(I2, I2)
    assert all(r["status"] == "PASS" for r in records)


def test_product_s3_times_s2():
    I2 = interval(identity(2), longest_element(2))
    records = verify_product(I3, I2)
    assert records and all(r["status"] == "PASS" for r in records)


def test_product_degenerate_factor():
    point = interval(W3, W3)
    records = verify_product(I3, point)
    assert records and all(r["status"] == "PASS" for r in records)


def test_product_explicit_pairs():
    I2 = interval(identity(2), longest_element(2))
    pairs = [((Z, (2, 1)), (ZP, (2, 1)))]
    (rec,) = verify_product(I3, I2, pairs)
    assert rec["status"] == "PASS"
    assert rec["z"] == "23154"


def test_product_component_outside_its_factor_raises():
    # every component is checked before any test: a component outside its
    # factor is an OrderError in either position, even where a component
    # before it is not amazing
    I1, I2 = interval(E3, W3), interval((1, 2), (1, 2))
    with pytest.raises(OrderError):
        verify_product(I1, I2, [(((1, 3, 2), (1, 2)), ((1, 2, 3), (2, 1)))])
    with pytest.raises(OrderError):
        verify_product(I1, I2, [(((1, 2, 3), (2, 1)), ((1, 3, 2), (1, 2)))])


def _count_calls(monkeypatch, module, names) -> Counter:
    """Counter of (name, args) over the calls of ``module``'s functions
    ``names`` made through the module."""
    asked = Counter()

    def counting(name, fn):
        def wrapper(*args):
            asked[name, args] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return asked


def test_product_asks_each_amazing_test_and_ds_symmetry_once(monkeypatch, clear_memos):
    # a factor has at most four standard decompositions, so its tests repeat
    # across the pairs of a product; one call asks each amazing test once
    # and walks each ordered pair once, of the factor (for both its DS
    # symmetry and its (p, b) sets) and of the product.  The memos are
    # cleared first, so that no walk of an earlier test hides one
    import bruhatcubes.doubles as doubles

    clear_memos()
    asked = _count_calls(monkeypatch, doubles, ("_amazing", "double_expansion"))
    records = verify_product(I3, I3)
    assert len(records) == len(standard_hcds(I3)) ** 4
    assert {rec["status"] for rec in records} == {"PASS"}
    assert asked and max(asked.values()) == 1
    P = interval(direct_sum(E3, E3), direct_sum(W3, W3))
    ids = P.index.id
    sums = {ids[direct_sum(a, b)] for a in standard_hcds(I3) for b in standard_hcds(I3)}
    zs = [I3.index.id[z] for z in standard_hcds(I3)]
    for n, members in ((6, sums), (3, zs)):
        walked = [args[4:] for name, args in asked if name == "double_expansion" and args[1] == n]
        assert sorted(walked) == sorted((z, zp) for z in members for zp in members)
    factor = I3.n, I3.uid, I3.vid
    factor_tests = [args for name, args in asked if name == "_amazing" and args[:3] == factor]
    assert sorted(args[3] for args in factor_tests) == sorted(zs)


def _product_outcomes(monkeypatch, name, fault) -> Counter:
    """The (status, witness) pairs of ``verify_product(I3, I3)`` with
    ``doubles.<name>`` replaced by ``fault`` of it: the product check reads
    these names through the module.  I3 has two standard decompositions, so
    the product has 16 pairs, every one a PASS unfaulted."""
    import bruhatcubes.doubles as doubles

    assert len(standard_hcds(I3)) == 2
    monkeypatch.setattr(doubles, name, fault(getattr(doubles, name)))
    return Counter((rec["status"], rec.get("witness")) for rec in verify_product(I3, I3))


def test_product_fails_when_block_sums_are_not_amazing(monkeypatch):
    # the factors have rank 3, their product rank 6
    def fault(real):
        return lambda n, u, v, z: n != 6 and real(n, u, v, z)

    assert _product_outcomes(monkeypatch, "_amazing", fault) == {
        ("FAIL", "block sums not amazing in the product"): 16
    }


def test_product_fails_when_shortcuts_do_not_factor(monkeypatch):
    # the product's shortcut levels lose their first shortcut
    def fault(real):
        return lambda n, u, v, z: real(n, u, v, z)[1:] if n == 6 else real(n, u, v, z)

    assert _product_outcomes(monkeypatch, "shortcut_level", fault) == {
        ("FAIL", "z-shortcuts do not factor; z'-shortcuts do not factor"): 16
    }


def test_product_fails_when_inner_shortcuts_do_not_factor(monkeypatch):
    # a factor's walk of (z, z') loses one (p, b) pair when z > z', its
    # (degree, b) entries kept, so the factors' DS symmetry still holds.
    # The inner match of a product pair fails when a component has z > z'
    # (7 pairs); else the reverse match fails when one has z < z' (5)
    def fault(real):
        def fewer(n, u, v, z, zp):
            pairs, entries = real(n, u, v, z, zp)
            return (frozenset(sorted(pairs)[1:]) if z > zp else pairs), entries

        return fewer

    assert _product_outcomes(monkeypatch, "_factor_walk", fault) == {
        ("FAIL", "inner shortcuts do not factor"): 7,
        ("FAIL", "reverse inner shortcuts do not factor"): 5,
        ("PASS", None): 4,
    }


def test_product_fails_when_ds_symmetry_does_not_transfer(monkeypatch):
    # one degree of the product's walk of (z, z') is raised when z < z', so
    # the (p, b) sets still match and only the 12 pairs with z != z' break
    def fault(real):
        def shifted(level, n, u, v, z, zp):
            steps = list(real(level, n, u, v, z, zp))
            if n == 6 and z < zp:
                (d, p, b), *rest = steps
                steps = [(d + 1, p, b), *rest]
            return steps

        return shifted

    assert _product_outcomes(monkeypatch, "double_expansion", fault) == {
        ("FAIL", "DS symmetry does not transfer"): 12,
        ("PASS", None): 4,
    }


def _assert_product_matches_brute(I1, I2, pairs=None):
    """verify_product against the brute oracle, record by record: status,
    reason and witness of every pair, in the order of ``pairs`` (the
    standard pairs when None)."""
    records = verify_product(I1, I2, pairs)
    if pairs is None:
        zs1, zs2 = standard_hcds(I1), standard_hcds(I2)
        pairs = [((a1, a2), (b1, b2)) for a1 in zs1 for a2 in zs2 for b1 in zs1 for b2 in zs2]
    assert len(records) == len(pairs)
    factors = (I1.u, I1.v), (I2.u, I2.v)
    for (zs, zps), rec in zip(pairs, records):
        got = rec["status"], rec.get("reason"), rec.get("witness")
        assert got == product_outcome_brute(*factors, zs, zps), (factors, zs, zps)
        assert rec["z"] == format_perm(direct_sum(*zs))
        assert rec["z2"] == format_perm(direct_sum(*zps))


def test_product_matches_brute_s2_s3():
    for f1 in comparable_pairs(2):
        for f2 in comparable_pairs(3):
            _assert_product_matches_brute(interval(*f1), interval(*f2))


def test_product_matches_brute_sampled_s3_s3():
    # the product check runs 3+3 at rank 6.  Same-rank factors share windows,
    # and with the full interval as one factor every member of the other is
    # in both, so a memo keyed without the factor would mix their answers
    for f in random.Random(3).sample(comparable_pairs(3), 6):
        _assert_product_matches_brute(I3, interval(*f))
        _assert_product_matches_brute(interval(*f), I3)


def test_product_explicit_pairs_match_brute():
    # every member pair, so that components that are not amazing occur, then
    # the same pairs repeated, in reverse order and with z and z' swapped
    I1, I2 = I3, interval(E3, (1, 3, 2))
    members = [(a, b) for a in I1.elements for b in I2.elements]
    base = [(zs, zps) for zs in members for zps in members]
    pairs = base + base[::-1] + [(zps, zs) for zs, zps in base]
    _assert_product_matches_brute(I1, I2, pairs)


@given(pair=comparable_pair(max_size=24), data=st.data())
@settings(max_examples=30, deadline=None)
def test_ds_multiset_matches_brute_force_s5_s6(pair, data):
    u, v = pair
    members = interval_elements_brute(u, v)
    I = interval(u, v)
    amazing = enumerate_hcds(I, amazing_only=True)
    z = data.draw(st.sampled_from(amazing), label="z")
    zp = data.draw(st.sampled_from(amazing), label="z2")
    assert ds_multiset(I, z, zp) == Counter(ds_multiset_brute(members, u, v, z, zp))


def test_check_bologna_walks_each_ordered_pair_once(monkeypatch, clear_memos):
    # the chains of (z, z') and (z', z) share their values, and the chain
    # reads DS(z, z') from the memo that the DS symmetry hypothesis filled
    import bruhatcubes.doubles as doubles
    from bruhatcubes.sweep import check_bologna

    clear_memos()
    I = interval(identity(4), longest_element(4))
    asked = _count_calls(monkeypatch, doubles, ("double_expansion",))
    records = check_bologna(I)
    amazing = [I.index.id[z] for z in enumerate_hcds(I, amazing_only=True)]
    assert records and {rec["status"] for rec in records} == {"PASS"}
    assert max(asked.values()) == 1
    walked = sorted(args[4:] for _, args in asked)
    assert walked == sorted((z, zp) for z in amazing for zp in amazing if z != zp)


def _chain_brute(u, v, z, zp) -> list:
    """The seven values of the Bologna chain from the brute oracles and
    R-tilde: R-tilde_z by the geodesic shortcut definition, the two middle
    pairs by the brute DS multisets."""
    members = interval_elements_brute(u, v)

    def rtilde_z(w):
        total = ()
        for p in shortcuts_brute(members, u, v, w):
            total = padd(total, pshift(rtilde(p, v), len(geodesics_brute(members, u, p)[0]) - 1))
        return total

    def from_multiset(w, wp):
        total = ()
        for (d, b), k in ds_multiset_brute(members, u, v, w, wp).items():
            for _ in range(k):
                total = padd(total, pshift(rtilde(b, v), d))
        return total

    forward, backward = from_multiset(z, zp), from_multiset(zp, z)
    return [rtilde(u, v), rtilde_z(z), forward, forward, backward, backward, rtilde_z(zp)]


@given(pair=comparable_pair(max_size=24), data=st.data())
@settings(max_examples=20, deadline=None)
def test_bologna_chain_matches_brute_force_s5_s6(pair, data):
    u, v = pair
    I = interval(u, v)
    amazing = enumerate_hcds(I, amazing_only=True)
    z = data.draw(st.sampled_from(amazing), label="z")
    zp = data.draw(st.sampled_from(amazing), label="z2")
    assert bologna_chain(I, z, zp) == _chain_brute(u, v, z, zp)


def test_double_expansions_build_no_sub_intervals(built_intervals):
    # [p, v] is read as a pair of ids: only the arguments and the product
    # interval are built
    e, w0 = identity(4), longest_element(4)
    I = interval(e, w0)
    amazing = enumerate_hcds(I, amazing_only=True)
    for z in amazing:
        for zp in amazing:
            assert ds_multiset(I, z, zp) == dh_multiset(I, z, zp)
            if z != zp:
                assert verify_bologna(I, z, zp)["status"] == "PASS"
    factors = interval(E3, W3), interval((1, 2), (2, 1))
    assert {rec["status"] for rec in verify_product(*factors)} == {"PASS"}
    product = ((1, 2, 3, 4, 5), (3, 2, 1, 5, 4))
    assert built_intervals == [(e, w0), (E3, W3), ((1, 2), (2, 1)), product]
