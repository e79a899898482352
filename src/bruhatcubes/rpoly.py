"""R-tilde polynomials by two independent routes, and reflection orders.

The first route is the standard length recurrence on the pair (u, v); it is
exact, memoized, and serves as the oracle.  The second route sums q^|path|
over the label-increasing directed paths from u to v for a chosen reflection
order; the two must agree for every valid order, and that agreement is one of
the main verification targets of the package.

Both path sums come from one label pass over permutation ids.  The
reflections are taken in order, and for each t every vertex x that already
has counts pushes them along its arrow x -> x*t (the right action of the
rank index).  After the pass over t, the counts of x are the increasing
paths to x whose labels all come no later than t.  Counts are packed into
one int per vertex, limb k holding the paths of length k.  An increasing
path from u is fixed by its set of labels, so every count is at most 2^N,
N = n(n-1)/2 the number of reflections; limbs of N + 1 bits therefore never
carry.  Every arrow raises the order, so an increasing path from u to v
stays in [u, v]: ``rtilde_dyer`` reads v off a pass over all of up[u],
a per-bottom memo of the rank index on the order, dropped once the sweep
passes u (the first interval of a bottom runs it over [u, v] alone), and
``_restricted_counts`` runs the pass over [u, v] with [z, v] absorbing for
``increasing_path_counts`` and the increasing-path lemma.

A reflection order on rank n lists all n(n-1)/2 transpositions so that
t_{ik} sits strictly between t_{ij} and t_{jk} whenever i < j < k.  Orders
are produced from reduced words of the longest element by prefix conjugation.
"""

from __future__ import annotations

from functools import lru_cache

from .cache import PolyCache, Rank
from .errors import OrderError, WordError
from .interval import Interval, bits, per_bottom, rank_index
from .permutations import (
    Perm,
    Reflection,
    _guards,
    format_reflection,
    identity,
    is_reduced_word,
    longest_element,
    reflections,
    right_multiply_simple,
)
from .polynomials import ONE, QPoly, ZERO, padd, pshift

# ---------------------------------------------------------------------------
# recurrence route

# in memory only until ``set_cache`` installs another; importing opens no file
_cache = PolyCache(None)


def set_cache(cache: PolyCache) -> PolyCache:
    """Install a new global polynomial memo; returns the previous one."""
    global _cache
    previous, _cache = _cache, cache
    return previous


def get_cache() -> PolyCache:
    return _cache


def rtilde(u: Perm, v: Perm) -> QPoly:
    """R-tilde of the pair (u, v) by the descent recurrence.

    Zero when u is not below v, one on the diagonal; otherwise recurse on the
    largest right descent s of v:  the (us, vs) branch, plus q times the
    (u, vs) branch when s is not a descent of u.  The descent choice is
    irrelevant mathematically; taking the largest keeps cache keys stable.

    The recurrence runs on the ids that the memo gives the windows it meets
    (:class:`~bruhatcubes.cache.Rank`): u <= v is one guarded subtraction of
    their stored rank codes (as in ``bruhat_leq``), and u*s, v*s are looked
    up once per id and descent.  Raises ValueError, storing nothing, unless
    u and v are windows of one rank.  A zero is not memoized: one comparison
    decides it again.  Every other value comes back as the memo's shared
    tuple, so a caller that keeps the results keeps one object per distinct
    polynomial.
    """
    n = len(u)
    if len(v) != n:
        raise ValueError(f"rank mismatch: {n} vs {len(v)}")
    rank = _cache.ranks[n]
    ids = rank.ids
    ui = ids.get(u)
    if ui is None:
        ui = rank.id(u)
    vi = ids.get(v)
    if vi is None:
        vi = rank.id(v)
    known = rank.rows[vi].get(ui)
    if known is not None:
        return known
    descend = rank.recurrence
    if descend is None:
        descend = rank.recurrence = _recurrence(_cache, rank)
    return descend(ui, vi)


def _recurrence(memo: PolyCache, rank: Rank):
    """R-tilde on the ids of ``rank``, stored in ``memo``: the closure that
    ``rank.recurrence`` keeps, so that it goes with the memo it fills."""
    rows, codes, windows = rank.rows, rank.codes, rank.windows
    descents, moves, move = rank.descents, rank.moves, rank.move
    guards = _guards(rank.n)
    sums, share, store = memo.sums, memo.share, memo.store
    one = share(ONE)

    def descend(u: int, v: int) -> QPoly:
        poly = rows[v].get(u)
        if poly is not None:
            return poly
        if u == v:
            poly = one
        elif (codes[v] | guards) - codes[u] & guards != guards:
            return ZERO
        else:
            i = descents[v]  # v > u, so v has a descent
            vs = moves[v][i]
            if vs is None:
                vs = move(v, i)
            us = moves[u][i]
            if us is None:
                us = move(u, i)
            w = windows[u]
            if w[i - 1] > w[i]:
                poly = descend(us, vs)
            else:
                key = descend(us, vs), descend(u, vs)
                poly = sums.get(key)
                if poly is None:
                    poly = sums[key] = share(padd(key[0], pshift(key[1], 1)))
        return store(rank, u, v, poly)

    return descend


# ---------------------------------------------------------------------------
# reflection orders


class ReflectionOrder:
    """A total order on the reflections of one rank, smallest first.

    Equal and hashed by ``sequence``; ``position[t]`` is the place of t.
    The hash is kept, since an order is part of the key of every per-bottom
    label pass.  Treat an order as immutable.
    """

    __slots__ = ("sequence", "position", "_hash")

    def __init__(self, sequence: tuple[Reflection, ...]):
        self.sequence = sequence
        self.position = {t: k for k, t in enumerate(sequence)}
        self._hash = hash(sequence)

    def __eq__(self, other):
        if other.__class__ is not ReflectionOrder:
            return NotImplemented
        return self.sequence == other.sequence

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ReflectionOrder(sequence={self.sequence!r})"

    @property
    def n(self) -> int:
        # the rank-1 group has no reflections at all
        return max((j for _, j in self.sequence), default=1)

    def __len__(self) -> int:
        return len(self.sequence)

    def __str__(self) -> str:
        return " < ".join(format_reflection(t) for t in self.sequence)


def is_reflection_order(order: ReflectionOrder) -> bool:
    """Check the betweenness law on every position triple i < j < k."""
    n = order.n
    if sorted(order.sequence) != reflections(n):
        return False
    pos = order.position
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            for k in range(j + 1, n + 1):
                lo, mid, hi = pos[(i, j)], pos[(i, k)], pos[(j, k)]
                if not (min(lo, hi) < mid < max(lo, hi)):
                    return False
    return True


def reflection_order_from_word(n: int, word) -> ReflectionOrder:
    """Order the reflections by prefix conjugation along a reduced word of
    the longest element: the k-th reflection conjugates the k-th letter by
    the preceding prefix."""
    word = tuple(word)
    if len(word) != n * (n - 1) // 2 or not is_reduced_word(n, word):
        raise WordError(f"not a reduced word of the longest element: {word}")
    sigma = identity(n)
    seq: list[Reflection] = []
    for i in word:
        a, b = sigma[i - 1], sigma[i]
        seq.append((a, b) if a < b else (b, a))
        sigma = right_multiply_simple(sigma, i)
    if sigma != longest_element(n):
        raise WordError(f"word does not multiply to the longest element: {word}")
    order = ReflectionOrder(tuple(seq))
    assert is_reflection_order(order)
    return order


def staircase_word(n: int) -> tuple[int, ...]:
    """The reduced word (1, 2, 1, 3, 2, 1, ...) of the longest element."""
    word: list[int] = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


def canonical_orders(n: int, count: int = 2) -> list[ReflectionOrder]:
    """Fixed reflection orders used by the verification sweeps: the staircase
    word, its index complement, and (for count >= 3) its reversal.  Built
    once per (n, count); each call returns a new list of them."""
    return list(_canonical_orders(n, count))


@lru_cache(maxsize=None)
def _canonical_orders(n: int, count: int) -> tuple[ReflectionOrder, ...]:
    base = staircase_word(n)
    words = [base, tuple(n - i for i in base), base[::-1]]
    orders: list[ReflectionOrder] = []
    for w in words[:count]:
        order = reflection_order_from_word(n, w)
        if order not in orders:
            orders.append(order)
    return tuple(orders)


# ---------------------------------------------------------------------------
# increasing-path route


def _label_pass(
    n: int, u: int, order: ReflectionOrder, mask: int, absorbing: int
) -> dict[int, int]:
    """Packed counts of the order-increasing paths from u, by the id of
    their end: limb k of ``counts[p]`` holds the paths of length k to p.

    The reflections are taken in order; for each t, every vertex x that has
    counts and is not in ``absorbing`` pushes them, one limb up, along its
    arrow x -> x*t when that arrow exists and ends in ``mask``.  A vertex
    that t reaches lies above its t-neighbour, so it pushes nothing along t:
    a pass over a snapshot of the vertices with counts uses each label at
    most once on a path.
    """
    if sorted(order.sequence) != reflections(n):
        raise OrderError(f"not a reflection order of rank {n}: {order}")
    width = len(order) + 1
    right = rank_index(n).right
    counts = {u: 1}
    for t in order.sequence:
        act = right[t]
        for x, c in list(counts.items()):
            y = act[x]
            # x*t has another length than x and ids follow length, so the
            # arrow between them points up exactly when y > x
            if y > x and mask >> y & 1 and not absorbing >> x & 1:
                counts[y] = counts.get(y, 0) + (c << width)
    return counts


@per_bottom
def _passes(n: int, u: int, order: ReflectionOrder) -> list:
    """The label pass of bottom u for ``order``: [mask, counts], empty
    until :func:`rtilde_dyer` runs it."""
    return [0, {}]


def _coefficients(packed: int, width: int) -> QPoly:
    """The limbs of ``packed``, lowest first: a normalized polynomial."""
    low = (1 << width) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & low)
        packed >>= width
    return tuple(coeffs)


def rtilde_dyer(I: Interval, order: ReflectionOrder) -> QPoly:
    """Sum of q^|path| over the order-increasing directed paths from the
    bottom to the top of the interval: the entry of v in a label pass from u
    over any mask that holds [u, v], since such a path stays in [u, v].

    The first interval with bottom u runs the pass over [u, v] alone; a
    second top runs it over all of up[u], which then serves every interval
    with that bottom.  So a sweep in bottom-major order makes about one full
    pass per bottom and order, and a single interval pays only for itself.
    """
    n, u, v = I.n, I.uid, I.vid
    entry = _passes(n, u, order)
    if not entry[0] >> v & 1:
        mask = I.index.up[u] if entry[0] else I.mask
        entry[1] = _label_pass(n, u, order, mask, 0)
        entry[0] = mask
    return _coefficients(entry[1].get(v, 0), len(order) + 1)


def _restricted_counts(I: Interval, z: Perm, order: ReflectionOrder) -> tuple[int, ...]:
    """Packed counts of the order-increasing paths from the bottom whose
    support meets [z, v] only at their end, one per id of [z, v], lowest
    first.

    [z, v] is upward closed, so such a path stays outside [z, v] until its
    final step: it is the label pass over [u, v] with [z, v] absorbing.  The
    empty path counts with length 0 when the bottom itself lies in [z, v].
    """
    zv = I.upper(z)
    counts = _label_pass(I.n, I.uid, order, I.mask, zv)
    return tuple(counts.get(p, 0) for p in bits(zv))


def increasing_path_counts(
    I: Interval, z: Perm, order: ReflectionOrder
) -> dict[Perm, dict[int, int]]:
    """Table a[p][k]: order-increasing length-k paths from the bottom to p
    whose support meets [z, v] only at p, for every p in [z, v]."""
    width, perms = len(order) + 1, I.index.perms
    return {
        perms[p]: {k: c for k, c in enumerate(_coefficients(packed, width)) if c}
        for p, packed in zip(bits(I.upper(z)), _restricted_counts(I, z, order))
    }


# ---------------------------------------------------------------------------
# constrained order search


def constrained_orders(
    n: int,
    must_precede: set[tuple[Reflection, Reflection]] | frozenset | tuple = (),
    limit: int | None = None,
) -> list[ReflectionOrder]:
    """Reflection orders satisfying every (a, b) constraint, a strictly
    before b, found by depth-first search over reduced-word prefixes of the
    longest element.  Returns [] when none exist; ``limit`` truncates the
    (deterministic) enumeration."""
    needs: dict[Reflection, set[Reflection]] = {}
    for a, b in must_precede:
        needs.setdefault(b, set()).add(a)
        if a == b:
            return []
    total = n * (n - 1) // 2
    found: list[ReflectionOrder] = []
    seq: list[Reflection] = []
    placed: set[Reflection] = set()

    def extend(sigma: Perm) -> bool:
        if len(seq) == total:
            found.append(ReflectionOrder(tuple(seq)))
            return limit is not None and len(found) >= limit
        for i in range(1, n):
            if sigma[i - 1] < sigma[i]:
                a, b = sigma[i - 1], sigma[i]
                t = (a, b)
                prereq = needs.get(t)
                if prereq and not prereq <= placed:
                    continue
                seq.append(t)
                placed.add(t)
                stop = extend(right_multiply_simple(sigma, i))
                placed.discard(t)
                seq.pop()
                if stop:
                    return True
        return False

    extend(identity(n))
    return found


@lru_cache(maxsize=None)
def all_reflection_orders(n: int) -> tuple[ReflectionOrder, ...]:
    """Every reflection order of rank n (feasible for n <= 5)."""
    return tuple(constrained_orders(n))
