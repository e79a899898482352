"""R-tilde polynomials by two independent routes, and reflection orders.

The first route is the standard length recurrence on the pair (u, v); it is
exact, memoized, and serves as the oracle.  The second route sums q^|path|
over the label-increasing directed paths from u to v for a chosen reflection
order; the two must agree for every valid order, and that agreement is one of
the main verification targets of the package.

A reflection order on rank n lists all n(n-1)/2 transpositions so that
t_{ik} sits strictly between t_{ij} and t_{jk} whenever i < j < k.  Orders
are produced from reduced words of the longest element by prefix conjugation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .cache import PolyCache
from .errors import OrderError, WordError
from .interval import Interval
from .permutations import (
    Perm,
    Reflection,
    bruhat_leq,
    format_reflection,
    identity,
    is_reduced_word,
    longest_element,
    reflections,
    right_multiply_simple,
)
from .polynomials import ONE, QPoly, ZERO, normalize, padd, pshift

# ---------------------------------------------------------------------------
# recurrence route

# in memory only until ``set_cache`` installs another; importing opens no file
_cache = PolyCache(None)


def set_cache(cache: PolyCache) -> PolyCache:
    """Install a new global polynomial memo; returns the previous one."""
    global _cache
    previous = _cache
    _cache = cache
    return previous


def get_cache() -> PolyCache:
    return _cache


def rtilde(u: Perm, v: Perm) -> QPoly:
    """R-tilde of the pair (u, v) by the descent recurrence.

    Zero when u is not below v, one on the diagonal; otherwise recurse on the
    largest right descent s of v:  the (us, vs) branch, plus q times the
    (u, vs) branch when s is not a descent of u.  The descent choice is
    irrelevant mathematically; taking the largest keeps cache keys stable.
    A zero is not memoized: one comparison decides it again.
    """
    memo = _cache
    known = memo.get(u, v)
    if known is not None:
        return known
    if u == v:
        poly: QPoly = ONE
    elif not bruhat_leq(u, v):
        return ZERO
    else:
        i = len(v) - 1  # the last descent of v; v > u, so it has one
        while v[i - 1] < v[i]:
            i -= 1
        vs = right_multiply_simple(v, i)
        us = right_multiply_simple(u, i)
        if u[i - 1] > u[i]:
            poly = rtilde(us, vs)
        else:
            poly = padd(rtilde(us, vs), pshift(rtilde(u, vs), 1))
    memo.put(u, v, poly)
    return poly


# ---------------------------------------------------------------------------
# reflection orders


@dataclass(frozen=True)
class ReflectionOrder:
    """A total order on the reflections of one rank, smallest first."""

    sequence: tuple[Reflection, ...]
    position: dict[Reflection, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "position", {t: k for k, t in enumerate(self.sequence)}
        )

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


def rtilde_dyer(I: Interval, order: ReflectionOrder) -> QPoly:
    """Sum of q^|path| over the order-increasing directed paths from the
    bottom to the top of the interval: the row of v in the table of
    :func:`increasing_path_counts` for z = v, since [v, v] = {v}."""
    counts = increasing_path_counts(I, I.v, order)[I.v]
    coeffs = [0] * (max(counts, default=-1) + 1)
    for d, c in counts.items():
        coeffs[d] = c
    return normalize(coeffs)


def increasing_path_counts(
    I: Interval, z: Perm, order: ReflectionOrder
) -> dict[Perm, dict[int, int]]:
    """Table a[p][k]: order-increasing length-k paths from the bottom to p
    whose support meets [z, v] only at p, for every p in [z, v].

    [z, v] is upward closed, so such a path stays outside [z, v] until its
    final step; the empty path counts with length 0 when the bottom itself
    lies in [z, v].
    """
    I.require(z)
    if sorted(order.sequence) != reflections(I.n):
        raise OrderError(f"reflection order has the wrong rank for {I!r}")
    zv = I.upper(z)
    table: dict[Perm, dict[int, int]] = {p: {} for p in I.members(zv)}
    if z == I.u:
        table[I.u][0] = 1
        return table
    pos = order.position
    arrows, mask, perms = I.index.arrows, I.mask, I.index.perms

    def walk(x: int, last: int, steps: int) -> None:
        for y, t in arrows[x].items():
            p = pos[t]
            if p <= last or not mask >> y & 1:
                continue
            if zv >> y & 1:
                row = table[perms[y]]
                row[steps + 1] = row.get(steps + 1, 0) + 1
            else:
                walk(y, p, steps + 1)

    walk(I.uid, -1, 0)
    return table


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
