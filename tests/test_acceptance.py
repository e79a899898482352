"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime.  Budgets are asserted by the final envelope test.

Rank-5 work is seeded and sampled; rank-4 work is exhaustive.  Polynomial and
multiset assertions are exact (integer arithmetic throughout).
"""

import time
from collections import Counter

from bruhatcubes.appendix import (
    antichain_hypercubes,
    coatom_precedence_constraints,
    crossing_precedence_constraints,
    dh_multiset,
    is_cosimple,
    verify_dh_symmetry,
)
from bruhatcubes.doubles import ds_multiset, verify_bologna, verify_em0
from bruhatcubes.hcd import (
    enumerate_hcds,
    is_amazing,
    is_amazing_r_element,
    is_r_element,
    is_upper_hcd,
    join,
    shortcuts,
    standard_hcds,
)
from bruhatcubes.interval import comparable_pairs, interval
from bruhatcubes.permutations import compose, identity, longest_element
from bruhatcubes.polynomials import padd, pshift
from bruhatcubes.rpoly import (
    all_reflection_orders,
    canonical_orders,
    increasing_path_counts,
    rtilde,
    rtilde_dyer,
)
from bruhatcubes.sweep import SweepConfig, run_sweep, sample_pairs

import oracles

TIMINGS: dict[str, float] = {}
S5_SEED = 7
S5_DYER_SEED = 11


def _report(key: str, name: str, started: float, ok: bool, extra: str = "") -> None:
    elapsed = time.perf_counter() - started
    TIMINGS[key] = elapsed
    tail = f"  [{extra}]" if extra else ""
    print(f"ACCEPTANCE {key} {name}: {'PASS' if ok else 'FAIL'} in {elapsed:.1f}s{tail}")
    assert ok, f"criterion {key} failed"


def test_criterion_01_dyer_equals_recurrence():
    started = time.perf_counter()
    checked = 0
    orders4 = canonical_orders(4, 2)
    assert len(orders4) == 2
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        expected = rtilde(u, v)
        for order in orders4:
            assert rtilde_dyer(I, order) == expected, (u, v, str(order))
            checked += 1
    orders5 = canonical_orders(5, 3)
    assert len(orders5) == 3
    for u, v in sample_pairs(5, 500, S5_DYER_SEED, None):
        I = interval(u, v)
        expected = rtilde(u, v)
        for order in orders5:
            assert rtilde_dyer(I, order) == expected, (u, v, str(order))
            checked += 1
    _report("1", "path sum equals recurrence", started, True, f"{checked} pair-order checks")
    assert TIMINGS["1"] < 30


def test_criterion_02_standard_decompositions():
    started = time.perf_counter()
    intervals = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        zs = standard_hcds(I)  # raises if a coset minimum is missing
        assert zs
        for z in zs:
            assert is_upper_hcd(I, z), (u, v, z)
            assert is_amazing(I, z), (u, v, z)
            assert is_amazing_r_element(I, z), (u, v, z)
        intervals += 1
    _report("2", "standard decompositions are amazing R-elements", started, True,
            f"{intervals} intervals")
    assert TIMINGS["2"] < 180


def test_criterion_03_amazing_implies_r_element():
    started = time.perf_counter()
    tested = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        for z in enumerate_hcds(I, amazing_only=True):
            assert is_r_element(I, z), (u, v, z)
            tested += 1
    header, records, code = run_sweep(
        SweepConfig(n=5, checks=("congettura",), mode="sample", sample_size=200,
                    seed=S5_SEED)
    )
    assert code == 0
    statuses = Counter(r["status"] for r in records)
    assert statuses == {"PASS": 200}
    # the join of an amazing decomposition stays amazing: reported on the
    # rank-5 sample rather than assumed
    violations = 0
    checked_joins = 0
    for u, v in sample_pairs(5, 40, S5_SEED, None):
        I = interval(u, v)
        for z in enumerate_hcds(I, amazing_only=True):
            for x in I.elements:
                j = join(I, z, x)
                checked_joins += 1
                if j is None or not is_amazing(interval(x, I.v), j):
                    violations += 1
    print(f"  rank-5 join-stays-amazing report: {checked_joins} joins, {violations} violations")
    _report("3", "amazing decompositions are R-elements", started, True,
            f"{tested} exhaustive + 200 sampled")
    assert TIMINGS["3"] < 600


def test_criterion_04_strong_ds_symmetry():
    started = time.perf_counter()
    pairs = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        amazing = enumerate_hcds(I, amazing_only=True)
        for i, z in enumerate(amazing):
            for zp in amazing[i + 1 :]:
                assert ds_multiset(I, z, zp) == ds_multiset(I, zp, z), (u, v, z, zp)
                pairs += 1
    header, records, code = run_sweep(
        SweepConfig(n=5, checks=("strong-ds",), mode="sample", sample_size=200,
                    seed=S5_SEED)
    )
    assert code == 0
    assert all(r["status"] == "PASS" for r in records)
    _report("4", "DS symmetry for all amazing pairs", started, True,
            f"{pairs} exhaustive pairs + {len(records)} sampled records")
    assert TIMINGS["4"] < 900


def test_criterion_05_single_equivalence_class():
    started = time.perf_counter()
    findings = []
    for u, v in comparable_pairs(4):
        rec = verify_em0(interval(u, v))
        assert rec["status"] != "FAIL"
        if rec["status"] == "FINDING":
            findings.append(rec)
        else:
            assert rec["classes"] == 1
    print(f"  em0 findings: {len(findings)}")
    _report("5", "one class per interval", started, not findings)


def test_criterion_06_double_expansion_theorem():
    started = time.perf_counter()
    applied = 0
    partial = 0
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        amazing = enumerate_hcds(I, amazing_only=True)
        for z in amazing:
            h1 = is_amazing_r_element(I, z)
            for zp in amazing:
                if z == zp:
                    continue
                rec = verify_bologna(I, z, zp)
                assert rec["status"] != "FAIL", rec
                if rec["status"] == "PASS":
                    applied += 1
                # with hypotheses (1)+(2) alone the weighted DS sum already
                # reproduces the interval polynomial (third expansion line)
                if h1 and all(
                    is_r_element(interval(x, I.v), join(I, zp, x))
                    for x in I.elements
                    if x != I.u
                ):
                    total = ()
                    for (a, b), k in ds_multiset(I, z, zp).items():
                        term = pshift(rtilde(b, I.v), a)
                        for _ in range(k):
                            total = padd(total, term)
                    assert total == rtilde(I.u, I.v), (u, v, z, zp)
                    partial += 1
    _report("6", "expansion chain and conclusion", started, True,
            f"{applied} full instances, {partial} partial-hypothesis sums")


def test_criterion_07_product_transfer():
    from bruhatcubes.sweep import product_records

    started = time.perf_counter()
    counts = Counter()
    for n in (5, 6):
        records = list(product_records(SweepConfig(n=n, checks=("product",), mode="sample", seed=1)))
        counts.update(r["status"] for r in records)
        assert all(r["status"] == "PASS" for r in records), n
    _report("7", "block-sum transfer", started, True,
            f"{counts['PASS']} product instances")


def test_criterion_08_dh_symmetry():
    started = time.perf_counter()
    standard_pairs = 0
    amazing_findings = []
    for u, v in comparable_pairs(4):
        I = interval(u, v)
        if not is_cosimple(I):
            continue
        zs = standard_hcds(I)
        for i, z in enumerate(zs):
            for zp in zs[i + 1 :]:
                rec = verify_dh_symmetry(I, z, zp, conjectural=False)
                assert rec["status"] == "PASS", rec
                standard_pairs += 1
        amazing = enumerate_hcds(I, amazing_only=True)
        std = set(zs)
        for i, z in enumerate(amazing):
            for zp in amazing[i + 1 :]:
                if z in std and zp in std:
                    continue
                rec = verify_dh_symmetry(I, z, zp, conjectural=True)
                assert rec["status"] != "FAIL"
                if rec["status"] == "FINDING":
                    amazing_findings.append(rec)
    print(f"  amazing-pair DH findings: {len(amazing_findings)}")
    _report("8", "DH symmetry on co-simple intervals", started, True,
            f"{standard_pairs} standard pairs")


def test_criterion_09_increasing_path_tables():
    started = time.perf_counter()
    orders = all_reflection_orders(4)
    assert len(orders) == 16
    instances = 0
    coatom_mismatches = 0

    def table_key(tab):
        return tuple((p, tuple(sorted(row.items()))) for p, row in sorted(tab.items()))

    for u, v in comparable_pairs(4):
        I = interval(u, v)
        if not is_cosimple(I):
            continue
        for z in standard_hcds(I):
            crossing = crossing_precedence_constraints(I, z)
            admissible = [
                o for o in orders
                if all(o.position[a] < o.position[b] for a, b in crossing)
            ]
            keys = set()
            for o in admissible:
                tab = increasing_path_counts(I, z, o)
                keys.add(table_key(tab))
                # appendix identity: restricted counts convolve with the
                # polynomials back to the unrestricted polynomial
                for p in I.up[z]:
                    lhs = ()
                    for x in I.up[z] & I.down[p]:
                        for k, c in tab.get(x, {}).items():
                            term = pshift(rtilde(x, p), k)
                            for _ in range(c):
                                lhs = padd(lhs, term)
                    assert lhs == rtilde(I.u, p), (u, v, z, str(o), p)
            assert len(keys) <= 1, (u, v, z)
            instances += 1
            # the literal coatom reading: any table disagreement must be
            # witnessed by an admissible order violating the crossing
            # property (the resolved hypothesis-reading ambiguity)
            coatom = coatom_precedence_constraints(I, z)
            coatom_orders = [
                o for o in orders
                if all(o.position[a] < o.position[b] for a, b in coatom)
            ]
            coatom_keys = {
                table_key(increasing_path_counts(I, z, o)) for o in coatom_orders
            }
            if len(coatom_keys) > 1:
                coatom_mismatches += 1
                assert any(
                    any(o.position[a] >= o.position[b] for a, b in crossing)
                    for o in coatom_orders
                ), (u, v, z)
    print(f"  coatom-reading mismatches (all explained by crossing violations): {coatom_mismatches}")
    _report("9", "restricted path tables order-independent", started, True,
            f"{instances} instances x {len(orders)} orders")
    assert TIMINGS["9"] < 120


def test_criterion_10_worked_rank3_oracle():
    started = time.perf_counter()
    e, w0 = identity(3), longest_element(3)
    z, zp = (2, 3, 1), (3, 1, 2)
    I = interval(e, w0)
    members = set(I.elements)

    # polynomial of the full interval, against the hand-unfolded recurrence
    hand = oracles.rtilde_brute_by_hand_s3()
    assert rtilde(e, w0) == hand[(e, w0)] == (0, 1, 0, 1)

    # standard decompositions, against a from-scratch coset scan
    def coset_minima():
        s1, s2 = (2, 1, 3), (1, 3, 2)
        subgroup = {
            frozenset({(1, 2)}): [identity(3), s1],
            frozenset({(2, 3)}): [identity(3), s2],
        }
        minima = set()
        for gens in subgroup.values():
            for side in ("left", "right"):
                coset = {
                    compose(g, w0) if side == "left" else compose(w0, g)
                    for g in gens
                }
                cone = [x for x in coset if oracles.subword_leq(e, x)]
                least = [m for m in cone if all(oracles.subword_leq(m, y) for y in cone)]
                assert len(least) == 1
                minima.add(least[0])
        return minima

    assert coset_minima() == {z, zp}
    assert set(standard_hcds(I)) == {z, zp}

    # shortcut set and its weighted polynomial
    assert oracles.shortcuts_brute(members, e, w0, z) == {z, w0}
    assert shortcuts(I, z) == {z, w0}
    d_uz = len(oracles.geodesics_brute(members, e, z)[0]) - 1
    d_uw = len(oracles.geodesics_brute(members, e, w0)[0]) - 1
    weighted = padd(pshift(hand[(z, w0)], d_uz), pshift((1,), d_uw))
    assert weighted == (0, 1, 0, 1)
    from bruhatcubes.hcd import rtilde_z

    assert rtilde_z(I, z) == (0, 1, 0, 1)

    # double shortcuts, both orders, frozen literal
    frozen = {(1, w0): 1, (3, w0): 1}
    assert oracles.ds_multiset_brute(members, e, w0, z, zp) == frozen
    assert oracles.ds_multiset_brute(members, e, w0, zp, z) == frozen
    assert dict(ds_multiset(I, z, zp)) == frozen
    assert dict(ds_multiset(I, zp, z)) == frozen

    # antichain hypercubes and DH, against the whole-group brute search
    assert sorted(oracles.antichain_hypercubes_brute(members, e, w0, z)) == [
        (1, w0),
        (2, z),
    ]
    assert sorted((emb.rank, p) for emb, p in antichain_hypercubes(I, z)) == [
        (1, w0),
        (2, z),
    ]
    assert dict(dh_multiset(I, z, zp)) == frozen
    _report("10", "worked rank-3 oracle", started, True)


def test_criterion_11_performance_envelope():
    oracle = sum(TIMINGS.get(k, 0.0) for k in ("1", "2", "9", "10"))
    sampled = sum(TIMINGS.get(k, 0.0) for k in ("3", "4"))
    print(f"ACCEPTANCE 11 performance: oracle block {oracle:.1f}s (<300), "
          f"sampled-sweep block {sampled:.1f}s (<900)")
    assert set(TIMINGS) >= {"1", "2", "3", "4", "9", "10"}
    assert oracle < 300
    assert sampled < 900
