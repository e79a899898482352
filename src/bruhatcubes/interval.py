"""Bruhat intervals as explicit posets carrying their labeled graph structure.

An :class:`Interval` holds every x with u <= x <= v, the order relation, the
directed edges x -> y (y = x*t for a reflection t, length increasing, labeled
by t), and directed-graph distances.  Everything is computed inside the
interval; this equals the ambient-group distance because any directed path
between interval members stays inside the interval (edges increase Bruhat
order).

All of it comes from one walk down the Bruhat graph, whose arrows into y are
:func:`~bruhatcubes.permutations.lower_neighbors` (y).  Two facts make the
walk enough (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 2):

* every x in [u, v] is reached from v by arrows through elements >= u,
  namely down a maximal chain of covers from v to x; so the members are the
  elements the walk from v reaches while it keeps only elements above u;
* the order inside [u, v] is the transitive closure of the arrows in
  [u, v], so each up-set is x together with the up-sets of the arrows' heads.

Each member's length and its position in ``elements`` (ordered by length,
then window) are computed once, at construction, in ``lengths`` and
``position``; the keys of ``position`` are the member set.

Position masks.  Construction also builds, for each position i, Python-int
bitsets over positions: bit k stands for ``elements[k]``, so the lowest set
bit of a mask is its least member by (length, window), and u is bit 0.

* ``in_mask[i]`` and ``out_mask[i]``: the sources and targets of the arrows
  into and out of ``elements[i]``;
* ``up_mask[i]`` and ``down_mask[i]``: the members above and below it;
* ``depth[i]``: d(u, elements[i]), from one breadth-first pass from the
  bottom: arrows raise length, so every arrow's source comes before its
  target in position order, and one pass in that order settles each
  distance;
* ``geo_mask[i]``: the members on some geodesic from u to ``elements[i]``,
  that is bit i together with ``geo_mask[c]`` for every arrow c -> i with
  ``depth[c] == depth[i] - 1``.  This is the identity "x lies on a u -> p
  geodesic iff d(u, x) + d(x, p) = d(u, p)" without the all-pairs table.

An order question is then a few integer operations: ``least`` finds the
Bruhat-minimum of a member set, and the hot paths of ``hcd`` and ``doubles``
read only the masks and ``depth``.

The Perm-keyed views ``up``, ``down``, ``in_nbrs``, ``out_nbrs``, ``labels``
and the all-pairs ``dist`` table are the public read API, built on first
use: the labelled arrows for the increasing-path walks of ``rpoly``, and the
rest for the appendix, ``distance``, ``geodesics`` and the tests.

Intervals are immutable once built and hash/compare by (u, v), so they can be
shared freely and used as cache keys.  Use the module-level :func:`interval`
factory to get memoized instances.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import OrderError
from .permutations import (
    Perm,
    Reflection,
    all_perms,
    bruhat_leq,
    format_perm,
    length,
    longest_element,
    lower_neighbors,
)

MAX_RANK = 7


class Path(NamedTuple):
    """A directed edge path: r+1 vertices joined by r labeled steps."""

    vertices: tuple[Perm, ...]
    labels: tuple[Reflection, ...]

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def support(self) -> frozenset[Perm]:
        return frozenset(self.vertices)


class Interval:
    def __init__(self, u: Perm, v: Perm):
        n = len(u)
        if n != len(v):
            raise OrderError(f"rank mismatch: {u} vs {v}")
        if n > MAX_RANK:
            raise OrderError(f"rank {n} beyond the supported bound {MAX_RANK}")
        if not bruhat_leq(u, v):
            raise OrderError(f"{format_perm(u)} is not below {format_perm(v)} in Bruhat order")
        self.n = n
        self.u = u
        self.v = v
        self._hash = hash((u, v))
        members = _members(u, v)
        lengths = {x: length(x) for x in members}
        self.elements: tuple[Perm, ...] = tuple(sorted(members, key=lambda x: (lengths[x], x)))
        self.lengths: dict[Perm, int] = lengths
        self.position: dict[Perm, int] = {x: k for k, x in enumerate(self.elements)}
        self.rank_length: int = lengths[v] - lengths[u]
        self._build_masks()

    def _build_masks(self) -> None:
        """The position masks and bottom distances: one pass up the positions
        for the arrows, down-sets, depths and geodesic masks (every source of
        an arrow comes before its target), and one pass down for up-sets."""
        position = self.position
        size = len(self.elements)
        targets: list[list[int]] = [[] for _ in range(size)]
        in_mask = [0] * size
        out_mask = [0] * size
        down_mask = [0] * size
        depth = [0] * size
        geo_mask = [1 << k for k in range(size)]
        for k, y in enumerate(self.elements):
            bit = 1 << k
            sources = [i for i in map(position.get, lower_neighbors(y)) if i is not None]
            inn, down = 0, bit
            for i in sources:
                targets[i].append(k)
                inn |= 1 << i
                out_mask[i] |= bit
                down |= down_mask[i]
            in_mask[k] = inn
            down_mask[k] = down
            if sources:
                d = min(depth[i] for i in sources)
                depth[k] = d + 1
                for i in sources:
                    if depth[i] == d:
                        geo_mask[k] |= geo_mask[i]
        up_mask = [0] * size
        for k in reversed(range(size)):
            up = 1 << k
            for j in targets[k]:
                up |= up_mask[j]
            up_mask[k] = up
        self.in_mask: tuple[int, ...] = tuple(in_mask)
        self.out_mask: tuple[int, ...] = tuple(out_mask)
        self.up_mask: tuple[int, ...] = tuple(up_mask)
        self.down_mask: tuple[int, ...] = tuple(down_mask)
        self.depth: tuple[int, ...] = tuple(depth)
        self.geo_mask: tuple[int, ...] = tuple(geo_mask)

    # ---- identity -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and (self.u, self.v) == (other.u, other.v)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Interval[{format_perm(self.u)}, {format_perm(self.v)}]"

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: Perm) -> bool:
        return x in self.position

    def __iter__(self):
        return iter(self.elements)

    def require(self, *xs: Perm) -> None:
        for x in xs:
            if x not in self.position:
                raise OrderError(f"{format_perm(x)} is not in {self!r}")

    # ---- order ----------------------------------------------------------

    def members(self, mask: int) -> list[Perm]:
        """The members whose bits are set in ``mask``, in element order."""
        elements = self.elements
        return [elements[k] for k in bits(mask)]

    def least(self, mask: int) -> int | None:
        """Position of the Bruhat-minimum of the members in ``mask``, or None
        when the set is empty or has no minimum.

        The only candidate is the lowest set bit, the shortest member; it is
        the minimum exactly when every member lies in its up-set.  A second
        member of the same length is never above it, so a tie fails too.
        """
        k = (mask & -mask).bit_length() - 1
        return k if k >= 0 and not mask & ~self.up_mask[k] else None

    @cached_property
    def up(self) -> dict[Perm, frozenset[Perm]]:
        """x -> {y in interval : x <= y}."""
        return {x: frozenset(self.members(m)) for x, m in zip(self.elements, self.up_mask)}

    @cached_property
    def down(self) -> dict[Perm, frozenset[Perm]]:
        """x -> {y in interval : y <= x}."""
        return {x: frozenset(self.members(m)) for x, m in zip(self.elements, self.down_mask)}

    def leq(self, x: Perm, y: Perm) -> bool:
        self.require(x, y)
        position = self.position
        return bool(self.up_mask[position[x]] >> position[y] & 1)

    def subinterval(self, x: Perm, y: Perm) -> "Interval":
        self.require(x, y)
        return interval(x, y)

    # ---- graph --------------------------------------------------------

    @cached_property
    def _graph(self) -> tuple[dict, dict, dict]:
        members = self.position.keys()
        inn: dict[Perm, frozenset[Perm]] = {}
        out: dict[Perm, set[Perm]] = {x: set() for x in self.elements}
        labels: dict[tuple[Perm, Perm], Reflection] = {}
        for y in self.elements:
            arrows = lower_neighbors(y)
            sources = inn[y] = frozenset(arrows.keys() & members)
            for x in sources:
                out[x].add(y)
                labels[(x, y)] = arrows[x]
        return {x: frozenset(s) for x, s in out.items()}, inn, labels

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

    def label(self, x: Perm, y: Perm) -> Reflection:
        return self.labels[(x, y)]

    @cached_property
    def dist(self) -> dict[Perm, dict[Perm, int]]:
        """BFS distances along directed edges; absent key means unreachable."""
        out = self.out_nbrs
        table: dict[Perm, dict[Perm, int]] = {}
        for x in self.elements:
            seen = {x: 0}
            queue = deque([x])
            while queue:
                c = queue.popleft()
                d = seen[c] + 1
                for y in out[c]:
                    if y not in seen:
                        seen[y] = d
                        queue.append(y)
            table[x] = seen
        return table

    def depth_of(self, x: Perm) -> int:
        """d(u, x), from the one breadth-first pass from the bottom."""
        return self.depth[self.position[x]]

    def distance(self, x: Perm, y: Perm) -> int | None:
        """Directed-path distance, or None when y is unreachable from x."""
        self.require(x, y)
        return self.dist[x].get(y)

    def geodesics(self, x: Perm, y: Perm) -> list[Path]:
        """All minimum-length directed paths from x to y (complete)."""
        self.require(x, y)
        total = self.dist[x].get(y)
        if total is None:
            return []
        out, labels = self.out_nbrs, self.labels
        dist_to_y = {c: table.get(y) for c, table in self.dist.items()}
        paths: list[Path] = []

        def walk(c: Perm, verts: list[Perm], labs: list[Reflection]) -> None:
            if c == y:
                paths.append(Path(tuple(verts), tuple(labs)))
                return
            remaining = total - len(labs)
            for w in out[c]:
                if dist_to_y.get(w) == remaining - 1:
                    verts.append(w)
                    labs.append(labels[(c, w)])
                    walk(w, verts, labs)
                    verts.pop()
                    labs.pop()

        walk(x, [x], [])
        return paths

    def covers_of(self, y: Perm) -> list[Perm]:
        """Lower covers of y inside the interval (length gap one)."""
        lengths = self.lengths
        below = lengths[y] - 1
        return [c for c in self.in_nbrs[y] if lengths[c] == below]

    def coatom_reflections(self, x: Perm, y: Perm) -> frozenset[Reflection]:
        """Labels of the coatom edges c -> y of the subinterval [x, y]."""
        self.require(x, y)
        if not bruhat_leq(x, y):
            raise OrderError(f"{format_perm(x)} is not below {format_perm(y)}")
        up_x = self.up[x]
        return frozenset(self.labels[(c, y)] for c in self.covers_of(y) if c in up_x)

    # ---- diamond completeness ------------------------------------------

    def is_diamond_complete(self, z: Perm) -> bool:
        """True iff every diamond with both midpoints and top in [z, v] has
        its bottom in [z, v] as well."""
        self.require(z)
        zv = self.up_mask[self.position[z]]
        out = self.out_mask
        for x in bits((1 << len(self.elements)) - 1 & ~zv):
            mids = out[x] & zv
            if not mids & (mids - 1):
                continue  # fewer than two midpoints
            seen = 0
            for a in bits(mids):
                if seen & out[a]:
                    return False
                seen |= out[a]
        return True

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


@lru_cache(maxsize=None)
def interval(u: Perm, v: Perm) -> Interval:
    """Memoized interval factory; repeated calls share one instance."""
    return Interval(u, v)


def comparable_pairs(n: int) -> list[tuple[Perm, Perm]]:
    """All Bruhat-comparable pairs (u, v) in rank n, deterministic order."""
    elems = sorted(all_perms(n), key=lambda x: (length(x), x))
    return [(u, v) for u in elems for v in elems if bruhat_leq(u, v)]


def full_interval(n: int) -> Interval:
    from .permutations import identity

    return interval(identity(n), longest_element(n))


def interval_size(u: Perm, v: Perm) -> int:
    """|[u, v]| without building the interval object."""
    if not bruhat_leq(u, v):
        return 0
    return len(_members(u, v))


def _members(u: Perm, v: Perm) -> set[Perm]:
    """The elements of [u, v], for u <= v: those reached from v down the
    arrows of the Bruhat graph while staying above u."""
    found = {v}
    stack = [v]
    while stack:
        for x in lower_neighbors(stack.pop()):
            if x not in found and bruhat_leq(u, x):
                found.add(x)
                stack.append(x)
    return found
