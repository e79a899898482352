"""Co-simple intervals, antichain-spanned hypercubes, and DH multisets.

An interval is co-simple when the roots e_i - e_j labeling the lower covers
of its top are linearly independent.  The labels are read by id off the
arrows of the rank index, and independence is decided exactly by the forest
criterion: the labels (i, j), read as edges on {1, ..., n}, have independent
roots iff they contain no cycle.

The hypercube family used for DH pairs a target p in [z, v] with every
hypercube that is spanned by interval arrows into p whose sources are
pairwise Bruhat-incomparable, has bottom equal to the interval bottom u, and
whose vertex set meets [z, v] only at p.  Rank-0 hypercubes {p} are admitted
and contribute exactly when p = u.  ``_hypercubes`` finds these pairs on
permutation ids, and :func:`hypercube_level` keeps (rank, p) of each, by id,
in a memo of bottom u (:func:`~bruhatcubes.interval.per_bottom`): the level
that the double expansion of :mod:`bruhatcubes.doubles` walks for DH, and
that hw-bijection compares with the shortcut level.  DH(z, z') then collects
(rank1 + rank2, b) over such pairs (H1, p) for [u, v] and (H2, b) for [p, v]
with respect to the join of z' and p.

The increasing-path lemma compares the tables of many reflection orders.  A
table reads only the labels of arrows inside the interval, so
:func:`verify_lemma_incpaths` computes one table per distinct restriction of
the orders to those labels, and compares them as the packed counts of the
label pass by id, without decoding them into rows.
"""

from __future__ import annotations

from .doubles import (
    DegreeMultiset,
    _record,
    double_multiset,
    double_symmetric,
    multiset_entries,
    partition_by_relation,
)
from .hcd import HypercubeEmbedding, _antichains, _masks, _member_key, shortcut_level, spans_hypercube
from .interval import Interval, bits, per_bottom
from .permutations import Perm, format_perm
from .rpoly import _restricted_counts, constrained_orders


# ---------------------------------------------------------------------------
# co-simple detection


def is_cosimple(I: Interval) -> bool:
    """True iff the roots e_i - e_j of the coatom labels (i, j) of I are
    linearly independent: iff the labels, read as edges on {1, ..., n}, form
    a forest, that is, number their ends less their connected components.
    The signed roots of a cycle sum to zero, and a leaf's root is the only
    one with a nonzero entry at the leaf.  Distinct coatoms have distinct
    labels, so no edge repeats."""
    labels = I.coatom_reflections(I.u, I.v)
    ends = {i for t in labels for i in t}
    components = partition_by_relation(labels, lambda s, t: s[0] in t or s[1] in t)
    return len(labels) == len(ends) - len(components)


# ---------------------------------------------------------------------------
# antichain-spanned hypercubes


def _hypercubes(n: int, u: int, v: int, z: int):
    """(hypercube, id of p) for every antichain-spanned hypercube of [u, v]
    for z: for each p in [z, v], in id order, every antichain of the arrows
    into p from [u, v] \\ [z, v] is tested for spanning, in the order of
    ``hcd._antichains``, and the embedding is kept when its bottom is u.
    These are the sources that ``hcd._upper_hcd`` gives the cluster test:
    every cell but the top lies at or below a source, and every source below
    v, so the vertex set meets [z, v] only at p exactly when no source does."""
    index, mask, zv = _masks(n, u, v, z)
    perms = index.perms
    bottom = perms[u]
    for k in bits(zv):
        p = perms[k]
        for sub in _antichains(index, index.in_mask[k] & mask & ~zv):
            emb = spans_hypercube(p, sub)
            if emb is not None and emb.bottom == bottom:
                yield emb, k


@per_bottom
def hypercube_level(n: int, u: int, v: int, z: int) -> tuple[tuple[int, int], ...]:
    """The hypercube level of [u, v] for z, by id: (rank, p) for every
    antichain-spanned hypercube H with top p."""
    return tuple((emb.rank, p) for emb, p in _hypercubes(n, u, v, z))


def antichain_hypercubes(
    I: Interval, z: Perm
) -> tuple[tuple[HypercubeEmbedding, Perm], ...]:
    """All (hypercube, p) pairs for the decomposition z, in element order."""
    perms = I.index.perms
    return tuple((emb, perms[p]) for emb, p in _hypercubes(*_member_key(I, z)))


def dh_multiset(I: Interval, z: Perm, zp: Perm) -> DegreeMultiset:
    """The double-hypercube multiset for the ordered pair (z, z')."""
    return double_multiset(hypercube_level, I, z, zp)


def dh_symmetric(I: Interval, z: Perm, zp: Perm) -> bool:
    return double_symmetric(hypercube_level, I, z, zp)


# ---------------------------------------------------------------------------
# verification drivers


def verify_dh_symmetry(I: Interval, z: Perm, zp: Perm, conjectural: bool = False) -> dict:
    """DH(z, z') = DH(z', z).  Proved for strong pairs on co-simple
    intervals; strongness is not checkable here, so callers flag pairs they
    cannot certify with ``conjectural=True`` to downgrade a violation from
    FAIL to FINDING."""
    ok = dh_symmetric(I, z, zp)
    status = "PASS" if ok else ("FINDING" if conjectural else "FAIL")
    rec = _record(
        "cosimple-dh",
        I,
        status,
        kind="dh-symmetry",
        z=format_perm(z),
        z2=format_perm(zp),
        pair_kind="amazing" if conjectural else "standard",
    )
    if not ok:
        rec["dh"] = multiset_entries(dh_multiset(I, z, zp))
        rec["dh_rev"] = multiset_entries(dh_multiset(I, zp, z))
    return rec


def verify_hw_projection(I: Interval, z: Perm) -> dict:
    """Projection (H, p) -> p should biject the hypercube pairs onto the
    shortcut set (conjecture): injectivity plus image equality."""
    key = _member_key(I, z)
    ps = [p for _, p in hypercube_level(*key)]
    image = frozenset(ps)
    injective = len(ps) == len(image)
    target = frozenset(p for _, p in shortcut_level(*key))
    ok = injective and image == target
    rec = _record(
        "hw-bijection", I, "PASS" if ok else "FINDING", kind="hw-bijection", z=format_perm(z)
    )
    rec["hypercubes"] = len(ps)
    rec["shortcuts"] = len(target)
    if not ok:
        rec["witness"] = {
            "injective": injective,
            "image": sorted(format_perm(I.index.perms[p]) for p in image),
            "shortcut_set": sorted(format_perm(I.index.perms[p]) for p in target),
        }
    return rec


def coatom_precedence_constraints(I: Interval, z: Perm) -> frozenset:
    """Every coatom label of [u, v] outside [z, v] precedes every coatom
    label of [z, v]."""
    c_uv = I.coatom_reflections(I.u, I.v)
    c_zv = I.coatom_reflections(z, I.v)
    return frozenset((t, tp) for t in c_uv - c_zv for tp in c_zv)


def crossing_precedence_constraints(I: Interval, z: Perm) -> frozenset:
    """Every label of an arrow whose source lies outside [z, v] and whose
    target lies inside precedes every label of an arrow inside [z, v].

    This is the property a path split at its first [z, v] vertex actually
    uses: the last step of the outer part is a crossing arrow, the first
    step of the inner part is an interior arrow, and concatenation must stay
    increasing.  A label occurring in both classes makes the constraints
    unsatisfiable, which is reported as "no order" rather than hidden.
    """
    zv = I.upper(z)
    crossing = set()
    interior = set()
    for x, y, t in I.arrow_ids():
        if zv >> x & 1:
            interior.add(t)
        elif zv >> y & 1:
            crossing.add(t)
    return frozenset((t, tp) for t in crossing for tp in interior)


def verify_lemma_incpaths(
    I: Interval,
    z: Perm,
    constraints: frozenset | None = None,
    reading: str = "coatom",
    order_limit: int | None = None,
) -> dict:
    """All constraint-satisfying reflection orders must produce identical
    restricted increasing-path tables (co-simple interval, [z, v] diamond
    complete).

    Two built-in constraint readings exist.  ``"crossing"`` is the property
    the splitting argument needs and the table identity is a theorem for it,
    so a mismatch is a FAIL.  ``"coatom"`` transcribes the hypothesis as a
    condition on coatom labels only; that version is falsifiable (it fails
    to pin crossing labels against interior ones), so a mismatch under it is
    reported as a FINDING, not an error.  Explicit ``constraints`` override
    both and are treated like the coatom reading.
    """
    I.member(z)  # a z outside I raises, before any SKIP can return
    if not is_cosimple(I):
        return _record("lemma-paths", I, "SKIP", z=format_perm(z), reason="not co-simple")
    if not I.is_diamond_complete(z):
        return _record(
            "lemma-paths", I, "SKIP", z=format_perm(z), reason="[z,v] not diamond complete"
        )
    if constraints is None:
        if reading == "crossing":
            constraints = crossing_precedence_constraints(I, z)
        else:
            constraints = coatom_precedence_constraints(I, z)
    else:
        reading = "explicit"
    orders = constrained_orders(I.n, constraints, limit=order_limit)
    if not orders:
        return _record(
            "lemma-paths",
            I,
            "SKIP",
            z=format_perm(z),
            reading=reading,
            reason="no constrained order exists",
        )
    # the label pass reads only the labels of arrows inside I, so orders
    # with the same restriction to them give the same table: one per group
    labels = {t for _, _, t in I.arrow_ids()}
    groups = {tuple(t for t in o.sequence if t in labels): o for o in orders}
    keys = {_restricted_counts(I, z, o) for o in groups.values()}
    if len(keys) == 1:
        status = "PASS"
    else:
        status = "FAIL" if reading == "crossing" else "FINDING"
    rec = _record(
        "lemma-paths",
        I,
        status,
        kind="lemma-paths",
        z=format_perm(z),
        reading=reading,
        orders=len(orders),
    )
    if status == "FINDING":
        rec["note"] = "tables differ; the coatom reading does not order crossing labels"
    return rec
