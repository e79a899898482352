"""Hypercube spanning, upper hypercube decompositions, shortcuts, and the
R-element predicates.

A set E of Bruhat-graph arrows into a common target p spans a hypercube when
the Boolean algebra on E embeds into the Bruhat graph in exactly one way with
the top cell pinned to p and the co-top cells pinned to the sources of E.
The search for interior vertices runs over the whole symmetric group, not
just an interval: candidates for a cell are the common lower Bruhat-graph
neighbors of its already-assigned covers, minus anything used (the embedding
is injective), and uniqueness means the complete assignment is unique.

``z`` is an upper hypercube decomposition of [u, v] when [z, v] is diamond
complete and, for every p in [z, v], the arrows into p from outside [z, v]
span a hypercube cluster (every subfamily with pairwise Bruhat-incomparable
sources spans).  Sources are restricted to [u, v] \\ [z, v].

Inside an interval, up-sets, arrows, joins and shortcuts are read from the
rank index (see :mod:`bruhatcubes.interval`): [z, v] is a mask over
permutation ids, a join is the lowest set bit of an intersection checked
against its own up-set, and shortcuts read the geodesic masks of the
bottom, shared by every interval with that bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import AbstractSet

from .errors import OrderError
from .interval import Interval, bits, interval
from .permutations import (
    Perm,
    format_perm,
    incomparable,
    inverse,
    lower_neighbors,
)
from .polynomials import QPoly, ZERO, padd, pshift
from .rpoly import rtilde


# ---------------------------------------------------------------------------
# hypercube spanning (ambient-group level)


@dataclass(frozen=True)
class HypercubeEmbedding:
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


def _assignments(top: Perm, sources: tuple[Perm, ...], cap: int | None) -> list[tuple[Perm, ...]]:
    """Complete injective cell assignments, filled from large subsets down.

    Candidates for a cell are the common lower neighbors of its assigned
    covers minus used vertices.  Stops after ``cap`` completions when set.
    """
    k = len(sources)
    size = 1 << k
    full = size - 1
    table: list[Perm | None] = [None] * size
    table[full] = top
    for b, s in enumerate(sources):
        table[full ^ (1 << b)] = s
    pending = sorted(
        (m for m in range(size) if bin(m).count("1") <= k - 2),
        key=lambda m: bin(m).count("1"),
        reverse=True,
    )
    found: list[tuple[Perm, ...]] = []
    used = set(x for x in table if x is not None)

    def fill(idx: int) -> bool:
        if idx == len(pending):
            found.append(tuple(table))  # type: ignore[arg-type]
            return cap is not None and len(found) >= cap
        m = pending[idx]
        cands: AbstractSet[Perm] | None = None
        for b in range(k):
            if not (m >> b) & 1:
                nbrs = lower_neighbors(table[m | (1 << b)]).keys()
                cands = nbrs if cands is None else cands & nbrs
                if not cands:
                    return False
        assert cands is not None
        for x in sorted(cands - used):
            table[m] = x
            used.add(x)
            stop = fill(idx + 1)
            used.discard(x)
            table[m] = None
            if stop:
                return True
        return False

    fill(0)
    return found


def _check_edge_family(top: Perm, sources: tuple[Perm, ...]) -> None:
    arrows_in = lower_neighbors(top)
    for s in sources:
        if s not in arrows_in:
            raise OrderError(
                f"{format_perm(s)} -> {format_perm(top)} is not a Bruhat-graph arrow"
            )


@lru_cache(maxsize=1 << 17)
def spans_hypercube(top: Perm, sources: tuple[Perm, ...]) -> HypercubeEmbedding | None:
    """The unique spanning embedding for the arrows sources -> top, or None
    when zero or at least two complete assignments exist."""
    sources = tuple(sorted(set(sources)))
    _check_edge_family(top, sources)
    hits = _assignments(top, sources, cap=2)
    if len(hits) != 1:
        return None
    return HypercubeEmbedding(top, sources, hits[0])


def count_hypercube_assignments(top: Perm, sources: tuple[Perm, ...]) -> int:
    """Exact number of complete assignments (no early exit); the optimized
    search must agree with brute-force enumeration."""
    sources = tuple(sorted(set(sources)))
    _check_edge_family(top, sources)
    return len(_assignments(top, sources, cap=None))


def _antichains(items: tuple[Perm, ...]):
    """All subsets of pairwise Bruhat-incomparable items (including empty)."""

    def rec(start: int, chosen: tuple[Perm, ...]):
        yield chosen
        for i in range(start, len(items)):
            if all(incomparable(items[i], c) for c in chosen):
                yield from rec(i + 1, chosen + (items[i],))

    yield from rec(0, ())


@lru_cache(maxsize=1 << 17)
def spans_cluster(top: Perm, sources: frozenset[Perm]) -> bool:
    """True iff every antichain subfamily of the arrows spans a hypercube.

    Empty and singleton families always span, so only antichains of two or
    more sources are searched.
    """
    srcs = tuple(sorted(sources))
    _check_edge_family(top, srcs)
    for sub in _antichains(srcs):
        if len(sub) >= 2 and spans_hypercube(top, sub) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# decompositions of an interval


def inflow(I: Interval, z: Perm, p: Perm) -> frozenset[Perm]:
    """Sources of the interval arrows into p from outside [z, v]."""
    I.require(z, p)
    zv = I.upper(z)
    k = I.index.id[p]
    if not zv >> k & 1:
        raise OrderError(f"{format_perm(p)} is not in [{format_perm(z)}, {format_perm(I.v)}]")
    return frozenset(I.members(I.index.in_mask[k] & I.mask & ~zv))


@lru_cache(maxsize=1 << 18)
def is_upper_hcd(I: Interval, z: Perm) -> bool:
    """Diamond completeness of [z, v] plus the cluster condition at every
    p in [z, v]."""
    I.require(z)
    if not I.is_diamond_complete(z):
        return False
    zv = I.upper(z)
    outside = I.mask & ~zv
    inn, perms = I.index.in_mask, I.index.perms
    for p in bits(zv):
        sources = inn[p] & outside
        if sources and not spans_cluster(perms[p], frozenset(I.members(sources))):
            return False
    return True


def _minimum(I: Interval, mask: int) -> Perm | None:
    """The Bruhat-minimum of the members in ``mask``, or None when there is
    none."""
    k = I.least(mask)
    return None if k is None else I.index.perms[k]


STANDARD_KINDS = ("left-drop-top", "left-drop-bottom", "right-drop-top", "right-drop-bottom")


def standard_hcd_kinds(I: Interval) -> dict[str, Perm]:
    """The four coset minima that are always upper hypercube decompositions.

    For v in rank n, the four ambient cosets are W_J v and v W_J for
    J = S minus the top or bottom simple generator; membership reduces to a
    one-entry window condition on x or on x * v^{-1}.
    """
    v = I.v
    n = I.n
    if n == 1:
        return {kind: v for kind in STANDARD_KINDS}
    vinv = inverse(v)
    pos_top = vinv[n - 1]  # position carrying value n in v
    pos_bot = vinv[0]
    tests = {
        "left-drop-top": lambda x: x[pos_top - 1] == n,  # x v^-1 fixes n
        "left-drop-bottom": lambda x: x[pos_bot - 1] == 1,  # x v^-1 fixes 1
        "right-drop-top": lambda x: x[n - 1] == v[n - 1],  # v^-1 x fixes n
        "right-drop-bottom": lambda x: x[0] == v[0],  # v^-1 x fixes 1
    }
    out: dict[str, Perm] = {}
    perms = I.index.perms
    for kind, test in tests.items():
        mask = sum(1 << k for k in bits(I.mask) if test(perms[k]))
        m = _minimum(I, mask)
        if m is None:
            raise LookupError(
                f"coset intersection in {I!r} has no Bruhat-minimum ({kind}); this is a bug"
            )
        out[kind] = m
    return out


def standard_hcds(I: Interval) -> tuple[Perm, ...]:
    """Deduplicated standard decompositions, in element order."""
    found = set(standard_hcd_kinds(I).values())
    return tuple(sorted(found, key=I.index.id.__getitem__))


def join(I: Interval, z: Perm, x: Perm) -> Perm | None:
    """Bruhat-minimum of [z, v] with [x, v] inside the interval, or None."""
    I.require(z, x)
    return _minimum(I, I.upper(z) & I.upper(x))


def _joins(I: Interval, z: Perm):
    """(x, join of z and x) for every x of the interval, in element order;
    the join is None when there is none.  This is ``I.least`` inlined: the
    cone [z, v] & [x, v] always holds v, so its lowest bit exists."""
    up, perms = I.index.up, I.index.perms
    zv = I.upper(z)
    for x in bits(I.mask):
        cone = zv & up[x]
        k = (cone & -cone).bit_length() - 1
        yield perms[x], None if cone & ~up[k] else perms[k]


@lru_cache(maxsize=1 << 17)
def is_amazing(I: Interval, z: Perm) -> bool:
    """Upper decomposition whose join with every x exists and is an upper
    decomposition of [x, v]."""
    if not is_upper_hcd(I, z):
        return False
    u, v = I.u, I.v
    for x, j in _joins(I, z):
        if j is None:
            return False
        if x != u and not is_upper_hcd(interval(x, v), j):
            return False
    return True


# ---------------------------------------------------------------------------
# shortcuts and R-elements


@lru_cache(maxsize=1 << 18)
def shortcuts(I: Interval, z: Perm) -> frozenset[Perm]:
    """p in [z, v] such that every geodesic from u to p meets [z, v] only
    at p.

    ``I.geo_mask[p]`` holds the ids on some geodesic from u to p, so p
    is kept exactly when that mask meets [z, v] in p alone; the
    path-enumeration form is kept as a test oracle.
    """
    I.require(z)
    zv = I.upper(z)
    geo, perms = I.geo_mask, I.index.perms
    return frozenset(perms[p] for p in bits(zv) if geo[p] & zv == 1 << p)


@lru_cache(maxsize=1 << 18)
def shortcuts_by_cover_distance(I: Interval, z: Perm) -> frozenset[Perm]:
    """Alternative form, valid for upper decompositions: p is kept when
    d(u, p) < d(u, x) for every x in [z, p] at graph distance one from p."""
    I.require(z)
    zv = I.upper(z)
    inn, depth, perms = I.index.in_mask, I.depth, I.index.perms
    return frozenset(
        perms[p]
        for p in bits(zv)
        if all(depth[p] < depth[c] for c in bits(inn[p] & zv))
    )


def rtilde_z(I: Interval, z: Perm) -> QPoly:
    """Sum of q^{d(u,p)} R-tilde(p, v) over the shortcuts p for z."""
    v = I.v
    total: QPoly = ZERO
    for p in shortcuts(I, z):
        total = padd(total, pshift(rtilde(p, v), I.depth_of(p)))
    return total


@lru_cache(maxsize=1 << 18)
def is_r_element(I: Interval, z: Perm) -> bool:
    return rtilde_z(I, z) == rtilde(I.u, I.v)


@lru_cache(maxsize=1 << 17)
def is_amazing_r_element(I: Interval, z: Perm) -> bool:
    """Amazing decomposition whose join with every x is an R-element of
    [x, v]."""
    if not is_amazing(I, z):
        return False
    v = I.v
    for x, j in _joins(I, z):
        assert j is not None
        if not is_r_element(interval(x, v), j):
            return False
    return True


@lru_cache(maxsize=1 << 16)
def enumerate_hcds(I: Interval, amazing_only: bool = False) -> tuple[Perm, ...]:
    """Every z in the interval passing the decomposition predicate, in
    element order."""
    test = is_amazing if amazing_only else is_upper_hcd
    return tuple(z for z in I.elements if test(I, z))
