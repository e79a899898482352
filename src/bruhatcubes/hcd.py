"""Hypercube spanning, upper hypercube decompositions, shortcuts, and the
R-element predicates.

A set E of Bruhat-graph arrows into a common target p spans a hypercube when
the Boolean algebra on E embeds into the Bruhat graph in exactly one way with
the top cell pinned to p and the co-top cells pinned to the sources of E.
The search for interior vertices runs over the whole symmetric group, not
just an interval, on the ``in_mask`` rows of the rank index: the candidates
for a cell are the AND of the rows of its already-assigned covers, minus the
ids used (the embedding is injective), and uniqueness means the complete
assignment is unique.  The search runs on ids; ``_edge_family``, the one
check of an arrow family of windows (top a window, each source -> top an
arrow), gives them to ``spans_hypercube``, ``count_hypercube_assignments``
and ``spans_cluster``.

``z`` is an upper hypercube decomposition of [u, v] when [z, v] is diamond
complete and, for every p in [z, v], the arrows into p from outside [z, v]
span a hypercube cluster (every subfamily with pairwise Bruhat-incomparable
sources spans).  Sources are restricted to [u, v] \\ [z, v].  The antichains
of a source mask are walked by ``_antichains``, the one walk that the
cluster test and the double-hypercube families of
:mod:`bruhatcubes.appendix` share.

Inside an interval, up-sets, arrows, joins and shortcuts are read from the
rank index (see :mod:`bruhatcubes.interval`): [z, v] is a mask over
permutation ids, a join is the lowest set bit of an intersection checked
against its own up-set, and shortcuts read the geodesic masks of the
bottom, shared by every interval with that bottom.  The shortcut level
``shortcut_level(n, u, v, z)`` is ((d(u, p), p), ...) over the shortcuts p,
by id: one of the two levels that the double expansion of
:mod:`bruhatcubes.doubles` walks.  It is a per-bottom memo of the rank
index (:func:`~bruhatcubes.interval.per_bottom`), dropped once the sweep
passes u, and so is R-tilde_z, ``_rtilde_z``, which :func:`rtilde_z` and
the Bologna chain read; ``_r_element``, which keeps its own answer, calls
the plain ``_shortcut_level`` and sums R-tilde_z unmemoized.

The four predicates of the sweep run on permutation ids and take
``(n, u, v, z)``, the rank and the ids of u, v and z.  Each kernel reads
[u, v] as ``up[u] & down[v]``, so no ``Interval`` is built for a
sub-interval.  All four reduce to facts about (v, z) and one bottom, so they
keep those facts in one table per (n, v, z), ``_table``: four pairs of masks
over ids, grown lazily.

- ``_upper_hcd`` keeps [good, bad] over the bottom u.  The test is up-closed
  in u: when it holds at u it holds at every u' in [u, z], because [z, v] is
  the same mask for every such u', and the diamonds and cluster sources of
  [u', v] outside [z, v] are among those of [u, v].  An evaluation that holds
  at u adds up[u] to the good mask, one that fails adds down[u] to the bad,
  and a bottom in either is answered without evaluation.
- ``_r_element`` keeps [good, bad] over u, one bit per evaluation.
- ``_amazing`` and ``_amazing_r_element`` quantify over every x in [u, v]
  through the join j of z and x.  [z, v] is ``up[z] & down[v]``, so j, and
  the test of x, depend on (x, v, z) alone, not on u.  Two join rows, one
  for ``_upper_hcd`` and one for ``_r_element``, keep [covered, bad] over x:
  the bits evaluated and the bad bits, where j is missing or the kernel
  fails at (x, v, j).  A row starts from [z, v], where x is its own join and
  both kernels hold at (x, v, x), so those bits are good without a call.

z is amazing in [u, v] exactly when no bit of [u, v] is bad in the
``_upper_hcd`` row, whose bit u is ``_upper_hcd(n, u, v, z)`` itself, the
join of z and u being z; ``_amazing_r_element`` adds the ``_r_element`` row.
A known bad bit answers at once, and evaluation stops at the first bad bit.
The cluster test that ``_upper_hcd`` makes at each p is ``_cluster``,
memoized on (n, p, the mask of the sources); ``spans_cluster`` is its form
on windows, which checks the family through ``_edge_family`` and calls
``_cluster``.  ``is_upper_hcd``, ``is_amazing``, ``is_r_element`` and
``is_amazing_r_element`` take the id of z from
:meth:`~bruhatcubes.interval.Interval.member`, which raises ``OrderError``
when z is not in the interval, and call these.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Iterable, Iterator, NamedTuple

from .errors import OrderError
from .interval import Interval, RankIndex, bits, per_bottom, rank_index
from .permutations import Perm, format_perm
# not called here; perfbench/tracer.py reads the counters of this memo as
# hcd.lower_neighbors
from .permutations import lower_neighbors
from .polynomials import QPoly, ZERO, padd, pshift
from .rpoly import rtilde


# ---------------------------------------------------------------------------
# hypercube spanning (ambient-group level)


class HypercubeEmbedding(NamedTuple):
    """The unique Boolean-algebra embedding spanned by edges into ``top``.

    ``table[mask]`` is the vertex assigned to the subset of ``sources``
    selected by the bits of ``mask``; the full mask maps to ``top``.
    """

    top: Perm
    sources: tuple[Perm, ...]
    table: tuple[Perm, ...]

    @property
    def rank(self) -> int:
        return len(self.sources)

    @property
    def bottom(self) -> Perm:
        return self.table[0]

    @property
    def image(self) -> frozenset[Perm]:
        return frozenset(self.table)

    def __repr__(self) -> str:
        cells = ",".join(format_perm(x) for x in sorted(self.image))
        return f"Hypercube(rank={self.rank}, top={format_perm(self.top)}, image={{{cells}}})"


def _assignments(
    index: RankIndex, top: int, sources: tuple[int, ...], cap: int | None
) -> list[tuple[int, ...]]:
    """Complete injective cell assignments, filled from large subsets down.

    Cells hold ids of the rank index.  The candidates for a cell are the AND
    of the ``in_mask`` rows of its assigned covers minus the used ids, tried
    in id order.  Stops after ``cap`` completions when set.

    No search is known to offer a used id.  Without the mask, the search
    finds no completion that repeats a vertex over the antichain families
    of two or more arrows into every top of S4, S5 and S6 (86, 2,096 and
    56,560 families) or over every family of two or more arrows into a top
    of S4 and S5 (219 and 9,045).  The mask is kept: injectivity is part of
    the definition.
    """
    inn = index.in_mask
    k = len(sources)
    size = 1 << k
    full = size - 1
    table = [0] * size
    table[full] = top
    used = 1 << top
    for b, x in enumerate(sources):
        table[full ^ (1 << b)] = x
        used |= 1 << x
    pending = sorted(
        (m for m in range(size) if bin(m).count("1") <= k - 2),
        key=lambda m: bin(m).count("1"),
        reverse=True,
    )
    found: list[tuple[int, ...]] = []

    def fill(idx: int, used: int) -> bool:
        if idx == len(pending):
            found.append(tuple(table))
            return cap is not None and len(found) >= cap
        m = pending[idx]
        cands = ~used
        for b in range(k):
            if not m >> b & 1:
                cands &= inn[table[m | 1 << b]]
        for x in bits(cands):
            table[m] = x
            if fill(idx + 1, used | 1 << x):
                return True
        return False

    fill(0, used)
    return found


def _edge_family(top: Perm, sources: Iterable[Perm]) -> tuple[RankIndex, int, tuple[int, ...]]:
    """The index of the rank of ``top``, the id of top and the ids of the
    distinct sources in window order; OrderError unless top is a window and
    each source -> top an arrow of the Bruhat graph."""
    index = rank_index(len(top))
    ids = index.id
    p = ids.get(top)
    if p is None:
        raise OrderError(f"not a permutation window: {top}")
    arrows_in = index.in_mask[p]
    xs = []
    for s in sorted(set(sources)):
        x = ids.get(s)
        if x is None or not arrows_in >> x & 1:
            raise OrderError(
                f"{format_perm(s)} -> {format_perm(top)} is not a Bruhat-graph arrow"
            )
        xs.append(x)
    return index, p, tuple(xs)


@lru_cache(maxsize=1 << 17)
def spans_hypercube(top: Perm, sources: tuple[Perm, ...]) -> HypercubeEmbedding | None:
    """The unique spanning embedding for the arrows sources -> top, or None
    when zero or at least two complete assignments exist."""
    index, p, xs = _edge_family(top, sources)
    hits = _assignments(index, p, xs, cap=2)
    if len(hits) != 1:
        return None
    perms = index.perms
    return HypercubeEmbedding(top, tuple(perms[x] for x in xs), tuple(perms[x] for x in hits[0]))


def count_hypercube_assignments(top: Perm, sources: tuple[Perm, ...]) -> int:
    """Exact number of complete assignments (no early exit); the optimized
    search must agree with brute-force enumeration."""
    return len(_assignments(*_edge_family(top, sources), cap=None))


def spans_cluster(top: Perm, sources: AbstractSet[Perm]) -> bool:
    """True iff every antichain subfamily of the arrows spans a hypercube.

    Empty and singleton families always span, so only antichains of two or
    more sources are searched.
    """
    _, p, xs = _edge_family(top, sources)
    return _cluster(len(top), p, sum(1 << x for x in xs))


def _antichains(index: RankIndex, sources: int) -> Iterator[tuple[Perm, ...]]:
    """Every antichain of the ids set in ``sources``, as a tuple of
    permutations: depth-first preorder over the sources sorted by window,
    from the empty antichain, each extended only by a later source
    incomparable to all its members (read off the up- and down-masks)."""
    perms, up, down = index.perms, index.up, index.down
    srcs = sorted(bits(sources), key=perms.__getitem__)

    def walk(start: int, chosen: tuple[Perm, ...], apart: int) -> Iterator[tuple[Perm, ...]]:
        # ``apart``: the sources incomparable to every chosen one
        yield chosen
        for i in range(start, len(srcs)):
            x = srcs[i]
            if apart >> x & 1:
                yield from walk(i + 1, chosen + (perms[x],), apart & ~(up[x] | down[x]))

    return walk(0, (), sources)


@lru_cache(maxsize=1 << 17)
def _cluster(n: int, p: int, sources: int) -> bool:
    """:func:`spans_cluster` on ids: the arrows into p from the ids set in
    ``sources``.  Each antichain of two or more sources is tested once, in
    the order of :func:`_antichains`, up to the first that does not span."""
    index = rank_index(n)
    top = index.perms[p]
    return all(
        len(sub) < 2 or spans_hypercube(top, sub) is not None
        for sub in _antichains(index, sources)
    )


# ---------------------------------------------------------------------------
# decompositions of an interval


def inflow(I: Interval, z: Perm, p: Perm) -> frozenset[Perm]:
    """Sources of the interval arrows into p from outside [z, v];
    OrderError unless z is a member and p is in [z, v]."""
    zv = I.upper(z)
    k = I.member(p)
    if not zv >> k & 1:
        raise OrderError(f"{format_perm(p)} is not in [{format_perm(z)}, {format_perm(I.v)}]")
    return frozenset(I.members(I.index.in_mask[k] & I.mask & ~zv))


def _member_key(I: Interval, z: Perm) -> tuple[int, int, int, int]:
    """The memo key (n, u, v, z) of a member z, by id; OrderError when z is
    not in the interval."""
    return I.n, I.uid, I.vid, I.member(z)


def _masks(n: int, u: int, v: int, z: int) -> tuple[RankIndex, int, int]:
    """The index of rank n and the masks of [u, v] and [z, v], by id."""
    index = rank_index(n)
    mask = index.up[u] & index.down[v]
    return index, mask, index.up[z] & mask


# slots of a (v, z) table: the bottom masks of _upper_hcd and _r_element,
# then the join rows of the two kernels
_HCD, _R, _HCD_ROW, _R_ROW = 0, 2, 4, 6


@lru_cache(maxsize=1 << 18)
def _table(n: int, v: int, z: int) -> list[int]:
    """The table of (v, z): four pairs of masks over ids.

    ``[_HCD]`` and ``[_R]`` are [good, bad] over the bottom u, where
    ``_upper_hcd`` and ``_r_element`` hold or fail at (u, v, z); ``[_HCD_ROW]``
    and ``[_R_ROW]`` are [covered, bad] over x, the join rows of
    :func:`_row_holds`, each starting with [z, v] covered and good.  Bits of
    neither mask of a pair are not yet known.  The bound holds the 98,407
    (v, z) pairs of S6."""
    index = rank_index(n)
    zv = index.up[z] & index.down[v]
    return [0, 0, 0, 0, zv, 0, zv, 0]


def _decomposes(n: int, u: int, v: int, z: int) -> bool:
    """The upper-decomposition test of z in [u, v], evaluated."""
    index, mask, zv = _masks(n, u, v, z)
    if not index.diamond_complete(mask, zv):
        return False
    outside = mask & ~zv
    inn = index.in_mask
    for p in bits(zv):
        sources = inn[p] & outside
        if sources and not _cluster(n, p, sources):
            return False
    return True


def _upper_hcd(n: int, u: int, v: int, z: int) -> bool:
    """Whether z is an upper decomposition of [u, v], for u <= z, read off
    the bottom masks of the (v, z) table or evaluated once at u.

    The test is up-closed in u: [z, v] is the same mask for every u' in
    [u, z], and the diamonds and cluster sources of [u', v] lie outside
    [z, v] within [u, v], so every antichain of them is one of [u, v].  An
    evaluation that holds therefore marks all of up[u] good, and one that
    fails all of down[u] bad.  At u = z nothing lies outside [z, v], so it
    holds there, as the join rows of :func:`_row_holds` assume."""
    table = _table(n, v, z)
    if table[_HCD] >> u & 1:
        return True
    if table[_HCD + 1] >> u & 1:
        return False
    index = rank_index(n)
    if _decomposes(n, u, v, z):
        table[_HCD] |= index.up[u]
        return True
    table[_HCD + 1] |= index.down[u]
    return False


def is_upper_hcd(I: Interval, z: Perm) -> bool:
    """Diamond completeness of [z, v] plus the cluster condition at every
    p in [z, v]."""
    return _upper_hcd(*_member_key(I, z))


def standard_hcd_kinds(I: Interval) -> dict[str, Perm]:
    """The four coset minima that are always upper hypercube decompositions.

    For v in rank n, the four ambient cosets are W_J v and v W_J for
    J = S minus the top or bottom simple generator; membership reduces to a
    one-entry window condition on x or on x * v^{-1}, which is one mask of
    the index.
    """
    v, n, where = I.v, I.n, I.index.where
    cosets = {
        "left-drop-top": where[v.index(n)][n],  # x v^-1 fixes n
        "left-drop-bottom": where[v.index(1)][1],  # x v^-1 fixes 1
        "right-drop-top": where[n - 1][v[n - 1]],  # v^-1 x fixes n
        "right-drop-bottom": where[0][v[0]],  # v^-1 x fixes 1
    }
    out: dict[str, Perm] = {}
    for kind, coset in cosets.items():
        k = I.least(I.mask & coset)
        if k is None:
            raise LookupError(
                f"coset intersection in {I!r} has no Bruhat-minimum ({kind}); this is a bug"
            )
        out[kind] = I.index.perms[k]
    return out


def standard_hcds(I: Interval) -> tuple[Perm, ...]:
    """Deduplicated standard decompositions, in element order."""
    found = set(standard_hcd_kinds(I).values())
    return tuple(sorted(found, key=I.index.id.__getitem__))


def join(I: Interval, z: Perm, x: Perm) -> Perm | None:
    """Bruhat-minimum of [z, v] with [x, v] inside the interval, or None."""
    k = _join_id(I.index.up, I.upper(z), I.member(x))
    return None if k < 0 else I.index.perms[k]


def _join_id(up: tuple[int, ...], zv: int, x: int) -> int:
    """Id of the join of z and x, given ``zv``, the mask of [z, v], or -1
    when there is none.  This is ``Interval.least`` inlined: the cone
    [z, v] & [x, v] always holds v, so its lowest bit exists."""
    cone = zv & up[x]
    k = (cone & -cone).bit_length() - 1
    return -1 if cone & ~up[k] else k


def _row_holds(n: int, v: int, z: int, xs: int, r_element: bool = False) -> bool:
    """True iff the join j of z with every x of ``xs`` exists and
    ``_upper_hcd(n, x, v, j)`` holds, or ``_r_element(n, x, v, j)`` when
    ``r_element`` is set: no bit of ``xs`` is bad in that join row of the
    (v, z) table.  A known bad bit answers at once; otherwise the bits not
    yet covered are evaluated in id order, up to the first bad one.

    Every x in [z, v] is good without a call: its join with z is x itself,
    and both kernels hold at (x, v, x).  ``_upper_hcd`` because nothing of
    [x, v] lies outside [x, v], ``_r_element`` because every geodesic from x
    starts at x, so the shortcut level is ((0, x),)."""
    table = _table(n, v, z)
    slot = _R_ROW if r_element else _HCD_ROW
    covered, bad = table[slot], table[slot + 1]
    if xs & bad:
        return False
    todo = xs & ~covered
    if not todo:
        return True
    kernel = _r_element if r_element else _upper_hcd
    index = rank_index(n)
    up = index.up
    zv = up[z] & index.down[v]
    for x in bits(todo):
        bit = 1 << x
        covered |= bit
        j = _join_id(up, zv, x)
        if j < 0 or not kernel(n, x, v, j):
            table[slot], table[slot + 1] = covered, bad | bit
            return False
    table[slot] = covered
    return True


def _amazing(n: int, u: int, v: int, z: int) -> bool:
    """The amazing test on ids.  Its clause that each join of z and x be an
    upper decomposition of [x, v] decides none of the upper triples
    (u, v, z) measured, the 702 of S4, the 19,821 of S5 or the 796,640 of
    S6: wherever every join exists, the clause holds."""
    # the join of z and u is z, so the bit of u is the test _upper_hcd(n, u, v, z)
    index = rank_index(n)
    return _row_holds(n, v, z, index.up[u] & index.down[v])


def is_amazing(I: Interval, z: Perm) -> bool:
    """Upper decomposition whose join with every x exists and is an upper
    decomposition of [x, v]."""
    return _amazing(*_member_key(I, z))


# ---------------------------------------------------------------------------
# shortcuts and R-elements


def _shortcut_level(n: int, u: int, v: int, z: int) -> tuple[tuple[int, int], ...]:
    """The shortcut level of [u, v] for z, by id: (d(u, p), p) for every p
    in [z, v] whose geodesic mask from u meets [z, v] in p alone, in id
    order."""
    index, _, zv = _masks(n, u, v, z)
    depth, geo = index.distances(u, v)
    return tuple((depth[p], p) for p in bits(zv) if geo[p] & zv == 1 << p)


# for unmemoized callers: ``_r_element`` keeps its answer, so this memo would
# duplicate its own
shortcut_level = per_bottom(_shortcut_level)


def shortcuts(I: Interval, z: Perm) -> frozenset[Perm]:
    """p in [z, v] such that every geodesic from u to p meets [z, v] only
    at p, read off the shortcut level; its path-enumeration form is the
    test oracle ``tests/oracles.shortcuts_brute``."""
    perms = I.index.perms
    return frozenset(perms[p] for _, p in shortcut_level(*_member_key(I, z)))


def shortcuts_by_cover_distance(I: Interval, z: Perm) -> frozenset[Perm]:
    """Alternative form, valid for upper decompositions: p is kept when
    d(u, p) < d(u, x) for every x in [z, p] at graph distance one from p."""
    zv = I.upper(z)
    inn, depth, perms = I.index.in_mask, I.depth, I.index.perms
    return frozenset(
        perms[p]
        for p in bits(zv)
        if all(depth[p] < depth[c] for c in bits(inn[p] & zv))
    )


def _rtilde_sum(n: int, v: int, terms) -> QPoly:
    """Sum of q^d R-tilde(b, v) over the pairs of ids (d, b) in ``terms``."""
    perms = rank_index(n).perms
    top = perms[v]
    total: QPoly = ZERO
    for d, b in terms:
        total = padd(total, pshift(rtilde(perms[b], top), d))
    return total


@per_bottom
def _rtilde_z(n: int, u: int, v: int, z: int) -> QPoly:
    """R-tilde_z of [u, v], by id, summed over the shortcut level of z."""
    return _rtilde_sum(n, v, shortcut_level(n, u, v, z))


def rtilde_z(I: Interval, z: Perm) -> QPoly:
    """Sum of q^{d(u,p)} R-tilde(p, v) over the shortcuts p for z."""
    return _rtilde_z(*_member_key(I, z))


def _r_element(n: int, u: int, v: int, z: int) -> bool:
    """Whether z is an R-element of [u, v]: the sum of q^{d(u,p)} R-tilde(p, v)
    over the shortcuts p for z equals R-tilde(u, v).

    The answer is bit u of the R-element bottom masks of the (v, z) table,
    evaluated once.  Only bit u is set: unlike an upper decomposition, an
    R-element is not known to stay one at a higher or a lower bottom, since
    both the shortcuts and R-tilde(u, v) change with u."""
    table = _table(n, v, z)
    if table[_R] >> u & 1:
        return True
    if table[_R + 1] >> u & 1:
        return False
    perms = rank_index(n).perms
    holds = _rtilde_sum(n, v, _shortcut_level(n, u, v, z)) == rtilde(perms[u], perms[v])
    table[_R if holds else _R + 1] |= 1 << u
    return holds


def is_r_element(I: Interval, z: Perm) -> bool:
    return _r_element(*_member_key(I, z))


def _amazing_r_element(n: int, u: int, v: int, z: int) -> bool:
    index = rank_index(n)
    mask = index.up[u] & index.down[v]
    return _row_holds(n, v, z, mask) and _row_holds(n, v, z, mask, r_element=True)


def is_amazing_r_element(I: Interval, z: Perm) -> bool:
    """Amazing decomposition whose join with every x is an R-element of
    [x, v]."""
    return _amazing_r_element(*_member_key(I, z))


def enumerate_hcds(I: Interval, amazing_only: bool = False) -> tuple[Perm, ...]:
    """Every z in the interval passing the decomposition predicate, in
    element order."""
    test = _amazing if amazing_only else _upper_hcd
    n, u, v, perms = I.n, I.uid, I.vid, I.index.perms
    return tuple(perms[z] for z in bits(I.mask) if test(n, u, v, z))
