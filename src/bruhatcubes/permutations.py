"""Permutations of {1..n} in one-line notation, with the reflection and
Bruhat-order machinery of the symmetric group.

A permutation is a tuple ``(w(1), ..., w(n))`` of the values ``1..n``.  A
reflection (transposition) is a pair ``(i, j)`` of positions with
``1 <= i < j <= n``; as a permutation it swaps ``i`` and ``j`` and fixes
everything else.  Composition is ``compose(a, b)(i) == a(b(i))``, so
right-multiplying ``x`` by a reflection swaps two window entries of ``x``:

>>> right_multiply_reflection((2, 3, 1), (1, 2))
(3, 2, 1)

The textual window format is ``"2143"`` for n <= 9 and comma-separated
(``"2,1,4,3"``) otherwise; reflections print as ``"t(1,3)"``.

Bruhat order is compared through rank matrices: each permutation's matrix
is packed once into an int with a guard bit above every entry, and
:func:`bruhat_leq` compares all entries of two matrices with one
subtraction.  Nothing is memoized per pair.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping

from .errors import ParseError

Perm = tuple[int, ...]
Reflection = tuple[int, int]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_window(seq) -> bool:
    """True iff ``seq`` lists each of 1..len(seq) exactly once."""
    return sorted(seq) == list(range(1, len(seq) + 1))


def all_perms(n: int) -> Iterator[Perm]:
    """All elements of the rank-n symmetric group, in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def parse_perm(text: str) -> Perm:
    """Parse ``"2143"`` (n <= 9) or ``"2,1,4,3"`` into a window tuple.

    >>> parse_perm("2143")
    (2, 1, 4, 3)
    """
    text = text.strip()
    try:
        if "," in text:
            window = tuple(int(part) for part in text.split(","))
        else:
            window = tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise ParseError(f"bad permutation {text!r}") from exc
    if not window or not is_window(window):
        raise ParseError(f"not a permutation window: {text!r}")
    return window


@lru_cache(maxsize=1 << 13)
def format_perm(w: Perm) -> str:
    """``"2143"`` for n <= 9, ``"2,1,4,3"`` otherwise; memoized, since every
    cache record and report record spells out its windows."""
    if len(w) <= 9:
        return "".join(str(a) for a in w)
    return ",".join(str(a) for a in w)


def format_reflection(t: Reflection) -> str:
    return f"t({t[0]},{t[1]})"


def compose(a: Perm, b: Perm) -> Perm:
    """Product acting as ``(a b)(i) = a(b(i))``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(a) != len(b):
        raise ValueError(f"rank mismatch: {len(a)} vs {len(b)}")
    return tuple(a[i - 1] for i in b)


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions of the window."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def longest_element(n: int) -> Perm:
    """The order-reversing window (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def reflections(n: int) -> list[Reflection]:
    """All n(n-1)/2 transpositions, ordered lexicographically."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def right_multiply_reflection(x: Perm, t: Reflection) -> Perm:
    """``x * t``: the window of x with positions t = (i, j) swapped."""
    i, j = t
    if j > len(x):
        raise ValueError(f"reflection {t} out of range for rank {len(x)}")
    w = list(x)
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return tuple(w)


def right_multiply_simple(x: Perm, i: int) -> Perm:
    """``x * s_i`` (adjacent transposition at positions i, i+1)."""
    w = list(x)
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


@lru_cache(maxsize=0)
def bruhat_leq(x: Perm, y: Perm) -> bool:
    """Bruhat comparison by the rank-matrix criterion (Bjorner-Brenti,
    *Combinatorics of Coxeter Groups*, Thm 2.1.5): x <= y iff
    x[i, j] <= y[i, j] for all i, j, where x[i, j] = #{a <= i : x(a) >= j}.

    Both matrices are packed into ints with a guard bit above every field
    (:func:`_rank_code`, :func:`_guards`), so all the entry comparisons are
    one subtraction: no field of code(x) reaches its guard, so no borrow
    crosses a guard, and a guard of ``(code(y) | G) - code(x)`` survives
    exactly when y's field is at least x's.

    The ``lru_cache`` stores nothing (``maxsize=0``); it only counts calls
    for ``cache_info()``.

    >>> bruhat_leq((1, 3, 2), (3, 1, 2))
    True
    >>> bruhat_leq((2, 1, 3), (1, 3, 2))
    False
    """
    n = len(x)
    if len(y) != n:
        raise ValueError(f"rank mismatch: {n} vs {len(y)}")
    guards = _guards(n)
    return ((_rank_code(y) | guards) - _rank_code(x)) & guards == guards


@lru_cache(maxsize=1 << 13)
def _rank_code(w: Perm) -> int:
    """The rank matrix w[i, j] = #{a <= i : w(a) >= j}, i = 1..n-1 and
    j = 2..n, packed row by row from the lowest bits up.  Each field is
    ``n.bit_length()`` bits wide, enough for any entry (at most n - 1),
    with one guard bit above it.  Raises ValueError for a tuple that is not
    a window; the memo means each window is checked once."""
    if not is_window(w):
        raise ValueError(f"not a permutation window: {w}")
    n = len(w)
    width = n.bit_length() + 1
    at_least = [0] * (n + 1)  # at_least[j] = #{a <= i : w(a) >= j}
    code = shift = 0
    for value in w[:-1]:
        for j in range(2, value + 1):
            at_least[j] += 1
        for j in range(2, n + 1):
            code |= at_least[j] << shift
            shift += width
    return code


@lru_cache(maxsize=None)
def _guards(n: int) -> int:
    """The guard bits of the rank-n codes: the top bit of each field."""
    width = n.bit_length() + 1
    guard = 1 << (width - 1)
    return sum(guard << (width * k) for k in range((n - 1) ** 2))


@lru_cache(maxsize=1 << 17)
def lower_neighbors(y: Perm) -> Mapping[Perm, Reflection]:
    """The arrows into y in the Bruhat graph of its whole symmetric group,
    with their labels: ``{y * t: t}`` for every reflection t = (i, j) with
    y(i) > y(j).  The memo shares the mapping, so it is read-only.

    >>> dict(lower_neighbors((2, 3, 1)))
    {(1, 3, 2): (1, 3), (2, 1, 3): (2, 3)}
    """
    out = {}
    for t in _reflections(len(y)):
        i, j = t[0] - 1, t[1] - 1
        if y[i] > y[j]:
            w = list(y)
            w[i], w[j] = w[j], w[i]
            out[tuple(w)] = t
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _reflections(n: int) -> tuple[Reflection, ...]:
    """The reflections of rank n as shared tuples, so that the memoized arrow
    maps and the interval label tables hold one copy of each label."""
    return tuple(reflections(n))


def incomparable(x: Perm, y: Perm) -> bool:
    return not bruhat_leq(x, y) and not bruhat_leq(y, x)


def direct_sum(a: Perm, b: Perm) -> Perm:
    """Block sum: acts as ``a`` on 1..len(a) and as ``b`` shifted above it.

    >>> direct_sum((2, 1), (2, 1))
    (2, 1, 4, 3)
    """
    k = len(a)
    return a + tuple(val + k for val in b)


def is_reduced_word(n: int, word) -> bool:
    """True iff the length of the product grows by one per letter."""
    w = list(range(1, n + 1))
    for i in word:
        if not 1 <= i < n:
            return False
        if w[i - 1] > w[i]:
            return False
        w[i - 1], w[i] = w[i], w[i - 1]
    return True


def conjugate_by_longest(w: Perm) -> Perm:
    """``w0 * w * w0``, the flip i -> n+1-i on positions and values."""
    n = len(w)
    return tuple(n + 1 - w[n - pos] for pos in range(1, n + 1))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
