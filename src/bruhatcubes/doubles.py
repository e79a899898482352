"""The double expansion, double-shortcut multisets, the symmetry relation on
decompositions, and the verification drivers for the pair-level statements.

A level maps ids ``(n, u, v, z)`` to pairs ``(degree, p)``: the shortcut
level of :mod:`~bruhatcubes.hcd` or the hypercube level of
:mod:`~bruhatcubes.appendix`.  :func:`double_expansion`, the one walk over a
level, yields (a + c, p, b) for every (a, p) of [u, v] for z and every (c, b)
of [p, v] for the join j of z' and p; [p, v] stays a pair of ids, and
``_joins`` is its outer half, the (a, p, j).  DS(z, z') and DH(z, z') count
(a + c, b) over it in one memo of bottom u keyed on the level and the ids
(:func:`~bruhatcubes.interval.per_bottom`).  Multisets are plain Counters
keyed by (degree, element).

The Bologna chain of [u, v] repeats its values across its pairs: the chains
of (z, z') and (z', z) hold the same six values besides R-tilde(u, v).
R-tilde_z, at both ends and as the R-tilde_j of [p, v] over the joins, is
read from the per-bottom memo of :mod:`~bruhatcubes.hcd`; ``_chain_sums``,
one memo per bottom, keeps by id for each ordered pair (z, z') the
expansion summed two ways, over the joins and over DS(z, z').

The product check repeats its values across the pairs of one product.
:func:`verify_product` works on ids throughout: block sums come from the
table ``_block_ids``, and every double expansion it reads, of a factor or
of the product, from ``_walk``, which gives both the (p, b) set of an
ordered pair and its sorted (degree, b) entries.  The factors' walks recur
in every product of the factor, so they are a per-bottom memo,
``_factor_walk``; ``functools.cache`` closures that live for one call keep
the product's walks, the amazing tests, the factors' DS symmetry, whether
the shortcuts of a block sum factor, and the inner matches.

Verification drivers return plain report-record dicts.  Statuses: PASS,
FAIL (a proved statement broke, i.e. an implementation bug), FINDING (a
conjectured statement broke, which is a research result, not an error), and
SKIP (hypotheses not met).
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache, partial

from .errors import OrderError
from .interval import Interval, interval, per_bottom, rank_index
from .permutations import Perm, direct_sum, format_perm
from .polynomials import QPoly, ZERO, monomial, padd, pmul, poly_str, pshift
from .hcd import (
    _amazing,
    _join_id,
    _row_holds,
    _rtilde_z,
    enumerate_hcds,
    is_amazing,
    is_amazing_r_element,
    is_r_element,
    shortcut_level,
    standard_hcds,
)
from .rpoly import rtilde

DegreeMultiset = Counter  # keys (degree, Perm)


def multiset_entries(ms: DegreeMultiset) -> list[tuple[int, str, int]]:
    """Canonical sorted [(degree, window, multiplicity), ...] form."""
    return [(d, format_perm(b), k) for (d, b), k in sorted(ms.items())]


def _joins(level, n: int, u: int, v: int, z: int, zp: int):
    """(a, p, j) for every (a, p) in ``level(n, u, v, z)``, j the id of the
    join of z' and p; OrderError when a join is missing."""
    index = rank_index(n)
    up = index.up
    zv = up[zp] & index.down[v]
    for a, p in level(n, u, v, z):
        j = _join_id(up, zv, p)
        if j < 0:
            x, y = (format_perm(index.perms[k]) for k in (zp, p))
            raise OrderError(f"{x} and {y} have no join; inputs must be amazing decompositions")
        yield a, p, j


def double_expansion(level, n: int, u: int, v: int, z: int, zp: int):
    """The double expansion of (z, z') in [u, v] over ``level``, by id:
    (a + c, p, b) for every (a, p) in ``level(n, u, v, z)`` and every (c, b)
    in ``level(n, p, v, j)``, j the join of z' and p.  OrderError when a
    join is missing."""
    for a, p, j in _joins(level, n, u, v, z, zp):
        for c, b in level(n, p, v, j):
            yield a + c, p, b


@per_bottom
def _double_entries(n: int, u: int, level, v: int, z: int, zp: int) -> tuple:
    perms = rank_index(n).perms
    out = Counter((d, perms[b]) for d, _, b in double_expansion(level, n, u, v, z, zp))
    return tuple(sorted(out.items()))


def double_multiset(level, I: Interval, z: Perm, zp: Perm) -> DegreeMultiset:
    """The multiset of (degree, b) over the double expansion of (z, z')."""
    return Counter(dict(_double_entries(I.n, I.uid, level, I.vid, I.member(z), I.member(zp))))


def ds_multiset(I: Interval, z: Perm, zp: Perm) -> DegreeMultiset:
    """The double-shortcut multiset for the ordered pair (z, z')."""
    return double_multiset(shortcut_level, I, z, zp)


def double_symmetric(level, I: Interval, z: Perm, zp: Perm) -> bool:
    """True iff the double expansions of (z, z') and (z', z) over ``level``
    give the same multiset: their memoized sorted entries are equal."""
    n, u, v, z, zp = I.n, I.uid, I.vid, I.member(z), I.member(zp)
    return _double_entries(n, u, level, v, z, zp) == _double_entries(n, u, level, v, zp, z)


def ds_symmetric(I: Interval, z: Perm, zp: Perm) -> bool:
    return double_symmetric(shortcut_level, I, z, zp)


# ---------------------------------------------------------------------------
# the symmetry relation


def partition_by_relation(items, related, key=None) -> list[tuple]:
    """Partition ``items`` by the transitive closure of ``related``; the
    result is independent of input order (classes and members sorted)."""
    items = list(items)
    keyfn = key if key is not None else (lambda x: x)
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if related(a, b):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    classes: dict = {}
    for x in items:
        classes.setdefault(find(x), []).append(x)
    return sorted(
        (tuple(sorted(c, key=keyfn)) for c in classes.values()),
        key=lambda c: [keyfn(x) for x in c],
    )


def equivalence_classes(I: Interval, include_min: bool = True) -> list[tuple[Perm, ...]]:
    """Classes of amazing decompositions under symmetric double shortcuts."""
    zs = [z for z in enumerate_hcds(I, amazing_only=True) if include_min or z != I.u]
    return partition_by_relation(
        zs, lambda a, b: ds_symmetric(I, a, b), key=I.index.id.__getitem__
    )


# ---------------------------------------------------------------------------
# report records


def _record(check: str, I: Interval, status: str, **extra) -> dict:
    rec = {
        "check": check,
        "n": I.n,
        "u": format_perm(I.u),
        "v": format_perm(I.v),
        "status": status,
    }
    rec.update(extra)
    return rec


def verify_congettura(I: Interval) -> dict:
    """Every amazing decomposition must be an R-element (conjecture)."""
    amazing = enumerate_hcds(I, amazing_only=True)
    for z in amazing:
        if not is_r_element(I, z):
            return _record(
                "congettura", I, "FINDING", z=format_perm(z), amazing=len(amazing)
            )
    return _record("congettura", I, "PASS", amazing=len(amazing))


def verify_strong_ds_pair(I: Interval, z: Perm, zp: Perm) -> dict:
    """DS symmetry for one amazing pair (conjectured for all pairs)."""
    ok = ds_symmetric(I, z, zp)
    rec = _record(
        "strong-ds", I, "PASS" if ok else "FINDING", z=format_perm(z), z2=format_perm(zp)
    )
    if not ok:
        rec["ds"] = multiset_entries(ds_multiset(I, z, zp))
        rec["ds_rev"] = multiset_entries(ds_multiset(I, zp, z))
    return rec


def verify_em0(I: Interval) -> dict:
    """The symmetry relation should have a single class (conjecture).

    The interval bottom is itself always an amazing decomposition; class
    counts are reported both with and without it.
    """
    with_min = equivalence_classes(I, include_min=True)
    without_min = equivalence_classes(I, include_min=False)
    status = "PASS" if len(with_min) <= 1 else "FINDING"
    return _record(
        "em0",
        I,
        status,
        classes=len(with_min),
        classes_without_min=len(without_min),
        amazing=sum(len(c) for c in with_min),
    )


@per_bottom
def _chain_sums(n: int, u: int, v: int, z: int, zp: int) -> tuple[QPoly, QPoly]:
    """The expansion of (z, z') in [u, v] summed two ways, by id: over the
    joins j of z' with the z-shortcuts p, q^a times the R-tilde_j of [p, v]
    (a value of bottom p); and over DS(z, z'), q^d R-tilde(b, v) times the
    multiplicity."""
    walk: QPoly = ZERO
    for a, p, j in _joins(shortcut_level, n, u, v, z, zp):
        walk = padd(walk, pshift(_rtilde_z(n, p, v, j), a))
    top = rank_index(n).perms[v]
    multiset: QPoly = ZERO
    for (a, b), k in _double_entries(n, u, shortcut_level, v, z, zp):
        multiset = padd(multiset, pmul(monomial(a, k), rtilde(b, top)))
    return walk, multiset


def bologna_chain(I: Interval, z: Perm, zp: Perm) -> list[QPoly]:
    """The seven successive expressions of the double-expansion identity:
    starting from R-tilde(u, v), expand through z, through the joins of z'
    with the z-shortcuts, through both multisets, and back through z'.
    Each value but R-tilde(u, v) is read from a per-bottom memo, so the
    chains of (z, z') and (z', z) compute their six shared values once."""
    n, u, v, z, zp = I.n, I.uid, I.vid, I.member(z), I.member(zp)
    walk, multiset = _chain_sums(n, u, v, z, zp)
    walk_rev, multiset_rev = _chain_sums(n, u, v, zp, z)
    return [
        rtilde(I.u, I.v),
        _rtilde_z(n, u, v, z),
        walk,
        multiset,
        multiset_rev,
        walk_rev,
        _rtilde_z(n, u, v, zp),
    ]


def verify_bologna(I: Interval, z: Perm, zp: Perm) -> dict:
    """Check one instance of the double-expansion theorem.

    Hypotheses: (1) z is an amazing R-element, (2) the join of z' with every
    x above the bottom is an R-element of [x, v], (3) DS(z, z') = DS(z', z).
    When all hold, z' must be an R-element and every step of the expansion
    chain must evaluate equal; any failure is an implementation bug.
    """
    # both are tested, so a z' outside I raises even when z is not amazing
    if not all([is_amazing(I, z), is_amazing(I, zp)]):
        return _record(
            "bologna", I, "SKIP", z=format_perm(z), z2=format_perm(zp), reason="pair not amazing"
        )
    hyp1 = is_amazing_r_element(I, z)
    # the R-element join row of (v, z') over [u, v] without u; z' is
    # amazing, so every join exists
    hyp2 = _row_holds(I.n, I.vid, I.member(zp), I.mask & ~(1 << I.uid), r_element=True)
    hyp3 = ds_symmetric(I, z, zp)
    hyps = {"h1": hyp1, "h2": hyp2, "h3": hyp3}
    if not (hyp1 and hyp2 and hyp3):
        return _record(
            "bologna", I, "SKIP", z=format_perm(z), z2=format_perm(zp), hypotheses=hyps
        )
    chain = bologna_chain(I, z, zp)
    spelled = {c: poly_str(c) for c in set(chain)}
    chain_ok = all(chain[i] == chain[i + 1] for i in range(len(chain) - 1))
    # z' is an R-element exactly when R-tilde_{z'}, the chain's last value,
    # equals R-tilde(u, v), its first
    conclusion = chain[-1] == chain[0]
    status = "PASS" if (chain_ok and conclusion) else "FAIL"
    rec = _record(
        "bologna",
        I,
        status,
        z=format_perm(z),
        z2=format_perm(zp),
        hypotheses=hyps,
        conclusion=conclusion,
        chain=[spelled[c] for c in chain],
    )
    return rec


# ---------------------------------------------------------------------------
# products


def verify_product(
    I1: Interval,
    I2: Interval,
    pairs: list[tuple[tuple[Perm, Perm], tuple[Perm, Perm]]] | None = None,
) -> list[dict]:
    """Check that shortcuts and DS symmetry transfer to a block direct sum.

    Each pair is ((z1, z2), (z1', z2')); the block sums z and z' are located
    in the product interval, the componentwise shortcut equivalences are
    checked in both directions, and DS symmetry of the pair in the product is
    required whenever it holds componentwise.  OrderError when a component
    is not in its factor.

    A product repeats its values across pairs, so the call works on ids and
    keeps its answers in ``functools.cache`` closures that live for the
    call: per interval and z, the amazing test; per factor and sorted
    (z, z'), DS symmetry; per block sum z, whether its shortcuts factor; per
    ordered (z, z') of the product, its walk (``_walk``) and the inner
    match.  The factors' walks, which give both their DS symmetry and their
    (p, b) sets, come from the per-bottom memo ``_factor_walk``, since they
    recur in every product of the factor.
    """
    P = interval(direct_sum(I1.u, I2.u), direct_sum(I1.v, I2.v))
    if pairs is None:
        zs1 = [I1.index.id[z] for z in standard_hcds(I1)]
        zs2 = [I2.index.id[z] for z in standard_hcds(I2)]
        keys = [((a1, a2), (b1, b2)) for a1 in zs1 for a2 in zs2 for b1 in zs1 for b2 in zs2]
    else:
        keys = [tuple((I1.member(a), I2.member(b)) for a, b in pair) for pair in pairs]
    factors = [
        [format_perm(I1.u), format_perm(I1.v)],
        [format_perm(I2.u), format_perm(I2.v)],
    ]
    block = _block_ids(I1.n, I2.n)
    perms = P.index.perms
    span1, span2, whole = ((I.n, I.uid, I.vid) for I in (I1, I2, P))
    n, u, v = whole
    # keyed by the ids (n, u, v, z) of an interval, so that factors that
    # are the same interval share their answers
    is_amazing_in = cache(_amazing)

    @cache
    def ds_symmetric_in(m: int, a: int, b: int, z: int, zp: int) -> bool:
        # asked with z <= z', so one answer serves both orders; (z, z) is symmetric
        return z == zp or _factor_walk(m, a, b, z, zp)[1] == _factor_walk(m, a, b, zp, z)[1]

    @cache
    def shortcuts_factor(z1: int, z2: int) -> bool:
        # W^z of the block sum z equals the block sums of the component shortcuts
        w1, w2 = shortcut_level(*span1, z1), shortcut_level(*span2, z2)
        expected = {block[a][b] for _, a in w1 for _, b in w2}
        return {p for _, p in shortcut_level(n, u, v, block[z1][z2])} == expected

    walk = cache(partial(_walk, n, u, v))

    @cache
    def inner_match(zs: tuple[int, int], zps: tuple[int, int], z: int, zp: int) -> bool:
        # the (p, b) pairs of the product's double expansion of (z, z') are
        # the block sums of the factors' pairs.  This runs only once the
        # z-shortcuts factor, so both sides group their pairs by the same p,
        # and it says that for every p the shortcuts of [p, V] for the join
        # of z' and p factor
        pairs1 = _factor_walk(*span1, zs[0], zps[0])[0]
        pairs2 = _factor_walk(*span2, zs[1], zps[1])[0]
        expected = {
            (block[p1][p2], block[b1][b2]) for p1, b1 in pairs1 for p2, b2 in pairs2
        }
        return walk(z, zp)[0] == expected

    records: list[dict] = []
    for zs, zps in keys:
        (z1, z2), (zp1, zp2) = zs, zps
        z, zp = block[z1][z2], block[zp1][zp2]
        fields = {"factors": factors, "z": format_perm(perms[z]), "z2": format_perm(perms[zp])}
        if not (
            is_amazing_in(*span1, z1)
            and is_amazing_in(*span2, z2)
            and is_amazing_in(*span1, zp1)
            and is_amazing_in(*span2, zp2)
        ):
            records.append(
                _record("product", P, "SKIP", reason="components not amazing", **fields)
            )
            continue
        if not (
            ds_symmetric_in(*span1, *sorted((z1, zp1)))
            and ds_symmetric_in(*span2, *sorted((z2, zp2)))
        ):
            records.append(
                _record("product", P, "SKIP", reason="component DS not symmetric", **fields)
            )
            continue
        problems: list[str] = []
        if not (is_amazing_in(*whole, z) and is_amazing_in(*whole, zp)):
            problems.append("block sums not amazing in the product")
        if not shortcuts_factor(*zs):
            problems.append("z-shortcuts do not factor")
        if not shortcuts_factor(*zps):
            problems.append("z'-shortcuts do not factor")
        if not problems and not inner_match(zs, zps, z, zp):
            problems.append("inner shortcuts do not factor")
        if not problems and not inner_match(zps, zs, zp, z):
            problems.append("reverse inner shortcuts do not factor")
        if not problems and walk(z, zp)[1] != walk(zp, z)[1]:
            problems.append("DS symmetry does not transfer")
        if problems:
            records.append(_record("product", P, "FAIL", witness="; ".join(problems), **fields))
        else:
            records.append(_record("product", P, "PASS", **fields))
    return records


@lru_cache(maxsize=None)
def _block_ids(n1: int, n2: int) -> tuple[tuple[int, ...], ...]:
    """``_block_ids(n1, n2)[a][b]`` is the id in rank n1 + n2 of the block
    sum of the permutations with ids a in rank n1 and b in rank n2."""
    ids = rank_index(n1 + n2).id
    right = rank_index(n2).perms
    return tuple(
        tuple(ids[direct_sum(x, y)] for y in right) for x in rank_index(n1).perms
    )


def _walk(n: int, u: int, v: int, z: int, zp: int) -> tuple[frozenset, tuple]:
    """The double expansion of (z, z') in [u, v] over shortcuts, by id: its
    (p, b) set and its sorted (degree, b) entries."""
    steps = list(double_expansion(shortcut_level, n, u, v, z, zp))
    return frozenset((p, b) for _, p, b in steps), tuple(sorted((d, b) for d, _, b in steps))


# the factors of a product keep their walks per bottom: they recur in every
# product the factor is part of
_factor_walk = per_bottom(_walk)
