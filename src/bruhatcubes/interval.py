"""Bruhat intervals of S_n, read off one index per rank.

The index (:func:`rank_index`) numbers the n! permutations of a rank by
(length, window) and keeps, by id:

* ``perms[i]`` and ``length[i]``, with ``id`` the inverse of ``perms``;
* ``in_mask[i]`` and ``out_mask[i]``: n!-bit ints whose set bits are the
  sources and targets of the Bruhat-graph arrows into and out of
  ``perms[i]``, and ``arrows[i]``, the arrows out as ``{target id: label}``;
* ``up[i]`` and ``down[i]``: the elements above and below ``perms[i]``;
* ``where[i][a]``: the ids whose window has value a at position i + 1, so
  a coset of a parabolic subgroup fixing one entry is one mask;
* ``right[t][i]``: the id of ``perms[i] * t`` for each reflection t, built
  on first use;
* ``memos[u]``: the memos of bottom u (see below).

It is built once from the arrow maps of
:func:`~bruhatcubes.permutations.lower_neighbors`, computed without its memo,
so that the n! maps are dropped once the index holds their arrows.
Bruhat order is the transitive closure of the arrows, and every arrow
raises length (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 2), so
one pass up the ids gives the down-sets and one pass down the up-sets.

An :class:`Interval` [u, v] is then the mask ``up[u] & down[v]``, and every
subset of it is a mask too: [z, v] is ``up[z] & mask``.  Ids follow
(length, window), so ``elements``, built on first use, lists the members
in that order, and the lowest set bit of a mask is its first member;
``least`` finds the Bruhat-minimum of a member set from it.

:meth:`Interval.member` is the one checked entry from windows to ids, one
dict lookup and one mask test: every public function that takes a member
reaches its id through it, and so raises ``OrderError`` for a non-member.

Memos are per bottom.  :func:`per_bottom` memoizes a function
``fn(n, u, *rest)`` in ``memos[u]`` of the rank-n index, under the key
``(fn, rest)``: the shortcut levels and R-tilde_z of :mod:`~bruhatcubes.hcd`,
the hypercube levels of :mod:`~bruhatcubes.appendix`, the double-expansion
entries, the product factors' walks and the Bologna chain's pair sums of
:mod:`~bruhatcubes.doubles` and the label passes of :mod:`~bruhatcubes.rpoly`
live there, beside the distance tables below.  A
check of [u, v] reads only the memos of bottoms in [u, v], whose ids are at
least u.  So :meth:`RankIndex.forget_below`, which the sweep calls whenever
its bottom changes, drops none that a sweep visiting the bottoms in id
order reads again.

Distances are per bottom too.  Arrows raise the order, so a directed path
from u to p stays in [u, p], and d(u, p) and the members on u -> p
geodesics depend on u and p alone.  :meth:`RankIndex.distances` keeps in
the memo of each bottom u, by id, ``depth[p]`` = d(u, p) and ``geo[p]``:
bit p together with ``geo[c]`` for every arrow c -> p with
``depth[c] == depth[p] - 1``.  The table of u grows on demand to cover
[u, v] and is shared by every interval with bottom u.

The Perm-keyed views ``up``, ``down``, ``in_nbrs``, ``out_nbrs``, ``labels``
and ``dist`` are thin reads of the index and those tables, built on first
use for ``inspect --edges`` (``labels``, through ``edges``), the tests and
``perfbench/tracer.py``.  Geodesics are read only as the masks ``geo``, not
walked as paths: the shortcut level of :mod:`~bruhatcubes.hcd` reads them,
and the tests check them against ``tests/oracles.geodesics_brute``.

Intervals are immutable once built and hash/compare by (u, v), so they can be
shared freely.  Use the module-level :func:`interval` factory to get memoized
instances; no other memo is keyed on an interval.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache, wraps

from .errors import OrderError
from .permutations import (
    Perm,
    Reflection,
    all_perms,
    format_perm,
    length,
    lower_neighbors,
)

MAX_RANK = 7


class RankIndex:
    """The Bruhat order and graph of one rank, by permutation id."""

    def __init__(self, n: int):
        lengths = {x: length(x) for x in all_perms(n)}
        perms = tuple(sorted(lengths, key=lambda x: (lengths[x], x)))
        ids = {x: i for i, x in enumerate(perms)}
        size = len(perms)
        in_mask = [0] * size
        out_mask = [0] * size
        down = [0] * size
        arrows: list[dict[int, Reflection]] = [{} for _ in range(size)]
        arrows_into = lower_neighbors.__wrapped__
        for y, w in enumerate(perms):
            inn, below = 0, 1 << y
            for x, t in arrows_into(w).items():
                i = ids[x]
                inn |= 1 << i
                below |= down[i]
                out_mask[i] |= 1 << y
                arrows[i][y] = t
            in_mask[y] = inn
            down[y] = below
        up = [0] * size
        for x in reversed(range(size)):
            above = 1 << x
            for y in arrows[x]:
                above |= up[y]
            up[x] = above
        where = [[0] * (n + 1) for _ in range(n)]
        for k, w in enumerate(perms):
            for i, a in enumerate(w):
                where[i][a] |= 1 << k
        self.perms: tuple[Perm, ...] = perms
        self.id: dict[Perm, int] = ids
        self.length: tuple[int, ...] = tuple(lengths[x] for x in perms)
        self.in_mask: tuple[int, ...] = tuple(in_mask)
        self.out_mask: tuple[int, ...] = tuple(out_mask)
        self.arrows: tuple[dict[int, Reflection], ...] = tuple(arrows)
        self.up: tuple[int, ...] = tuple(up)
        self.down: tuple[int, ...] = tuple(down)
        self.where: tuple[tuple[int, ...], ...] = tuple(map(tuple, where))
        self.memos: defaultdict[int, dict] = defaultdict(dict)

    @cached_property
    def right(self) -> dict[Reflection, tuple[int, ...]]:
        """The right action of each reflection on ids: ``right[t][x]`` is the
        id of ``perms[x] * t``.  x and x*t are the two ends of one arrow,
        so the table is read off the arrows, on first use."""
        size = len(self.perms)
        right: dict[Reflection, list[int]] = {}
        for x, row in enumerate(self.arrows):
            for y, t in row.items():
                act = right.get(t)
                if act is None:
                    act = right[t] = [0] * size
                act[x], act[y] = y, x
        return {t: tuple(act) for t, act in right.items()}

    def distances(self, u: int, v: int) -> tuple[dict[int, int], dict[int, int]]:
        """The tables ``depth`` and ``geo`` of bottom u, by id, covering at
        least [u, v].

        Each call extends them over the part of [u, v] not yet covered, in
        id order: the sources of the arrows into p within [u, p] have
        smaller ids and are settled first.
        """
        memo = self.memos[u]
        entry = memo.get("distances")
        if entry is None:
            entry = memo["distances"] = [1 << u, {u: 0}, {u: 1 << u}]
        covered, depth, geo = entry
        cone = self.up[u]
        todo = cone & self.down[v] & ~covered
        if todo:
            in_mask = self.in_mask
            for p in bits(todo):
                sources = bits(in_mask[p] & cone)
                d = min(depth[c] for c in sources)
                g = 1 << p
                for c in sources:
                    if depth[c] == d:
                        g |= geo[c]
                depth[p] = d + 1
                geo[p] = g
            entry[0] = covered | todo
        return depth, geo

    def forget_below(self, u: int) -> None:
        """Drop the memos of every bottom with an id below u."""
        memos = self.memos
        for k in [k for k in memos if k < u]:
            del memos[k]

    def diamond_complete(self, mask: int, zv: int) -> bool:
        """True iff every diamond x -> a, b -> y with a, b and y in ``zv``
        has its bottom x in ``zv`` too, for x among the members of ``mask``."""
        out = self.out_mask
        for x in bits(mask & ~zv):
            mids = out[x] & zv
            if not mids & (mids - 1):
                continue  # fewer than two midpoints
            seen = 0
            for a in bits(mids):
                tops = out[a] & zv
                if seen & tops:
                    return False
                seen |= tops
        return True


@lru_cache(maxsize=None)
def rank_index(n: int) -> RankIndex:
    """The index of rank n, built on first use; ranks above ``MAX_RANK``
    are refused before anything is allocated."""
    if n > MAX_RANK:
        raise OrderError(f"rank {n} beyond the supported bound {MAX_RANK}")
    return RankIndex(n)


def per_bottom(fn):
    """Memoize ``fn(n, u, *rest)`` in the memo of bottom u of the rank-n
    index, under the key ``(fn, rest)``, until
    :meth:`RankIndex.forget_below` drops that bottom."""

    @wraps(fn)
    def memoized(n: int, u: int, *rest):
        memo = rank_index(n).memos[u]
        key = fn, rest
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(n, u, *rest)
            return value

    return memoized


def _span(u: Perm, v: Perm) -> tuple[RankIndex, int, int, int]:
    """The index of the rank of u and v, the mask of [u, v] (0 unless
    u <= v) and the ids of u and v; OrderError for a rank mismatch or a
    tuple that is not a window."""
    if len(u) != len(v):
        raise OrderError(f"rank mismatch: {u} vs {v}")
    index = rank_index(len(u))
    ids = index.id
    for w in (u, v):
        if w not in ids:
            raise OrderError(f"not a permutation window: {w}")
    uid, vid = ids[u], ids[v]
    return index, index.up[uid] & index.down[vid], uid, vid


class Interval:
    def __init__(self, u: Perm, v: Perm):
        index, mask, uid, vid = _span(u, v)
        if not mask:
            raise OrderError(f"{format_perm(u)} is not below {format_perm(v)} in Bruhat order")
        self.n = len(u)
        self.u = u
        self.v = v
        self.index = index
        self.mask = mask
        self.uid = uid
        self.vid = vid
        self._hash = hash((u, v))

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """The members, in element order; built on first use."""
        return tuple(self.members(self.mask))

    # ---- identity -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and (self.u, self.v) == (other.u, other.v)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Interval[{format_perm(self.u)}, {format_perm(self.v)}]"

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: Perm) -> bool:
        i = self.index.id.get(x)
        return i is not None and bool(self.mask >> i & 1)

    def __iter__(self):
        return iter(self.elements)

    def member(self, x: Perm) -> int:
        """The id of the member x: the one checked entry from windows to
        ids, OrderError unless x is in the interval."""
        k = self.index.id.get(x)
        if k is None or not self.mask >> k & 1:
            raise OrderError(f"{format_perm(x)} is not in {self!r}")
        return k

    # ---- order ----------------------------------------------------------

    def members(self, mask: int) -> list[Perm]:
        """The permutations whose ids are set in ``mask``, in element order."""
        perms = self.index.perms
        return [perms[k] for k in bits(mask)]

    def upper(self, z: Perm) -> int:
        """The mask of [z, v]; OrderError unless z is a member."""
        return self.index.up[self.member(z)] & self.mask

    def least(self, mask: int) -> int | None:
        """Id of the Bruhat-minimum of the members in ``mask``, or None when
        the set is empty or has no minimum.

        The only candidate is the lowest set bit, the shortest member; it is
        the minimum exactly when every member lies in its up-set.  A second
        member of the same length is never above it, so a tie fails too.
        """
        k = (mask & -mask).bit_length() - 1
        return k if k >= 0 and not mask & ~self.index.up[k] else None

    def _views(self, table: tuple[int, ...]) -> dict[Perm, frozenset[Perm]]:
        mask = self.mask
        return {
            x: frozenset(self.members(table[i] & mask))
            for i, x in zip(bits(mask), self.elements)
        }

    @cached_property
    def up(self) -> dict[Perm, frozenset[Perm]]:
        """x -> {y in interval : x <= y}."""
        return self._views(self.index.up)

    @cached_property
    def down(self) -> dict[Perm, frozenset[Perm]]:
        """x -> {y in interval : y <= x}."""
        return self._views(self.index.down)

    def leq(self, x: Perm, y: Perm) -> bool:
        return bool(self.upper(x) >> self.member(y) & 1)

    # ---- graph --------------------------------------------------------

    def arrow_ids(self):
        """(source id, target id, label) for every arrow inside the interval."""
        arrows, mask = self.index.arrows, self.mask
        for x in bits(mask):
            for y, t in arrows[x].items():
                if mask >> y & 1:
                    yield x, y, t

    @cached_property
    def _graph(self) -> tuple[dict, dict, dict]:
        perms = self.index.perms
        labels = {(perms[x], perms[y]): t for x, y, t in self.arrow_ids()}
        return self._views(self.index.out_mask), self._views(self.index.in_mask), labels

    @property
    def out_nbrs(self) -> dict[Perm, frozenset[Perm]]:
        return self._graph[0]

    @property
    def in_nbrs(self) -> dict[Perm, frozenset[Perm]]:
        return self._graph[1]

    @property
    def labels(self) -> dict[tuple[Perm, Perm], Reflection]:
        return self._graph[2]

    @property
    def edges(self) -> list[tuple[Perm, Perm, Reflection]]:
        return [(x, y, t) for (x, y), t in sorted(self.labels.items())]

    @property
    def depth(self) -> dict[int, int]:
        """d(u, p) by id, for every p in the interval (the bottom's table)."""
        return self.index.distances(self.uid, self.vid)[0]

    @cached_property
    def dist(self) -> dict[Perm, dict[Perm, int]]:
        """Directed distances, read off each member's bottom table; an
        absent key means unreachable."""
        index, mask, perms = self.index, self.mask, self.index.perms
        table: dict[Perm, dict[Perm, int]] = {}
        for i, x in zip(bits(mask), self.elements):
            depth = index.distances(i, self.vid)[0]
            table[x] = {perms[p]: depth[p] for p in bits(index.up[i] & mask)}
        return table

    def distance(self, x: Perm, y: Perm) -> int | None:
        """Directed-path distance, or None when y is unreachable from x."""
        depth = self.index.distances(self.member(x), self.vid)[0]
        return depth.get(self.member(y))

    def coatom_reflections(self, x: Perm, y: Perm) -> frozenset[Reflection]:
        """Labels of the coatom edges c -> y of the subinterval [x, y]."""
        cone, top = self.upper(x), self.member(y)
        if not cone >> top & 1:
            raise OrderError(f"{format_perm(x)} is not below {format_perm(y)}")
        index, length = self.index, self.index.length
        below = length[top] - 1
        return frozenset(
            index.arrows[c][top] for c in bits(index.in_mask[top] & cone) if length[c] == below
        )

    # ---- diamond completeness ------------------------------------------

    def is_diamond_complete(self, z: Perm) -> bool:
        """True iff every diamond with both midpoints and top in [z, v] has
        its bottom in [z, v] as well."""
        return self.index.diamond_complete(self.mask, self.upper(z))

    # ---- duality --------------------------------------------------------

    def dual(self) -> "Interval":
        """The interval [v*w0, u*w0]; x -> x*w0 reverses Bruhat order."""
        return interval(dual_element(self.v), dual_element(self.u))


def bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def dual_element(x: Perm) -> Perm:
    """``x * w0``: the reversed window."""
    return tuple(reversed(x))


@lru_cache(maxsize=1 << 9)
def interval(u: Perm, v: Perm) -> Interval:
    """Memoized interval factory: repeated calls share one instance while it
    is among the 512 most recent, room for the 361 product intervals of rank
    6 and their 19 factors, so a long sweep holds a bounded number."""
    return Interval(u, v)


def comparable_pairs(n: int) -> list[tuple[Perm, Perm]]:
    """All Bruhat-comparable pairs (u, v) in rank n, both in (length, window)
    order."""
    index = rank_index(n)
    perms = index.perms
    return [(perms[a], perms[b]) for a, above in enumerate(index.up) for b in bits(above)]


def interval_size(u: Perm, v: Perm) -> int:
    """|[u, v]| (0 unless u <= v), a popcount of the index masks."""
    return _span(u, v)[1].bit_count()
