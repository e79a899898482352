"""Reference computations that the benchmark checks the program against.

Nothing here imports ``bruhatcubes``.  Bruhat order is decided by rank
matrices (Björner and Brenti, *Combinatorics of Coxeter Groups*, Thm 2.1.5):
x <= y iff x[i, j] <= y[i, j] for all i, j, where w[i, j] counts the a <= i
with w(a) >= j.  The program uses the sorted-prefix (tableau) test instead,
so agreement between the two is evidence that both are right.

Permutations are one-line windows, tuples of 1..n.  Polynomials are
coefficient lists indexed by degree, as the program prints them.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations

# Each rank-matrix entry is packed into a 4-bit field: 3 value bits (n <= 7)
# and a guard bit that survives a fieldwise subtraction y - x only when the
# y entry is at least the x entry.
_FIELD = 4
_VALUE_BITS = 3


def inversions(w) -> int:
    """Coxeter length: the number of pairs of positions out of order."""
    return sum(1 for i, a in enumerate(w) for b in w[i + 1 :] if a > b)


def _packed_ranks(w) -> int:
    n = len(w)
    packed = 0
    shift = 0
    for i in range(1, n):
        prefix = w[:i]
        for j in range(2, n + 1):
            packed |= sum(1 for a in prefix if a >= j) << shift
            shift += _FIELD
    return packed


def _guard(n: int) -> int:
    fields = (n - 1) * (n - 1)
    return sum(1 << (_VALUE_BITS + _FIELD * k) for k in range(fields))


def rank_leq(x, y) -> bool:
    """Bruhat comparison of two windows by their rank matrices."""
    guard = _guard(len(x))
    return ((_packed_ranks(y) | guard) - _packed_ranks(x)) & guard == guard


class BruhatIndex:
    """Every permutation of one rank, its length, and its down-set and
    up-set in Bruhat order as bit masks over the positions of ``perms``."""

    def __init__(self, n: int):
        if not 1 <= n <= 7:
            raise ValueError(f"rank {n} is outside 1..7")
        self.n = n
        self.perms = sorted(permutations(range(1, n + 1)), key=lambda w: (inversions(w), w))
        self.position = {w: k for k, w in enumerate(self.perms)}
        self.lengths = [inversions(w) for w in self.perms]
        guard = _guard(n)
        packed = [_packed_ranks(w) for w in self.perms]
        # x <= y needs l(x) <= l(y), and perms is sorted by length, so each
        # down-set only has to look at positions before the end of y's level.
        level_end = {}
        for k, ell in enumerate(self.lengths):
            level_end[ell] = k + 1
        self.down = []
        for k, py in enumerate(packed):
            top = py | guard
            bits = 0
            for m in range(level_end[self.lengths[k]]):
                if (top - packed[m]) & guard == guard:
                    bits |= 1 << m
            self.down.append(bits)
        self.up = [0] * len(self.perms)
        for k, bits in enumerate(self.down):
            for m in _bit_positions(bits):
                self.up[m] |= 1 << k

    def leq(self, x, y) -> bool:
        return bool(self.down[self.position[y]] >> self.position[x] & 1)

    def length(self, w) -> int:
        return self.lengths[self.position[w]]

    def comparable_pair_count(self) -> int:
        return sum(bits.bit_count() for bits in self.down)

    def comparable_pairs(self):
        """All (u, v) with u <= v, in the order of ``perms`` for u then v."""
        return [
            (u, self.perms[m])
            for k, u in enumerate(self.perms)
            for m in _bit_positions(self.up[k])
        ]

    def interval_mask(self, u, v) -> int:
        return self.up[self.position[u]] & self.down[self.position[v]]

    def interval_size(self, u, v) -> int:
        return self.interval_mask(u, v).bit_count()

    def members(self, u, v) -> list:
        """Elements of [u, v] in (length, window) order; empty unless u <= v."""
        return [self.perms[m] for m in _bit_positions(self.interval_mask(u, v))]

    def arrows(self, u, v) -> dict:
        """The arrow graph of [u, v]: x -> x*t for every transposition t
        with x*t in the interval and l(x*t) > l(x)."""
        inside = set(self.members(u, v))
        out = {}
        for x in inside:
            targets = []
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    if x[i] < x[j]:
                        y = list(x)
                        y[i], y[j] = y[j], y[i]
                        y = tuple(y)
                        if y in inside:
                            targets.append(y)
            out[x] = targets
        return out

    def distances_from(self, u, v) -> dict:
        """Directed BFS distance from u to every element of [u, v]."""
        out = self.arrows(u, v)
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in out[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist


def _bit_positions(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# ---------------------------------------------------------------------------
# polynomials in q


def _trim(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_add(a, b) -> list:
    out = [0] * max(len(a), len(b))
    for d, c in enumerate(a):
        out[d] += c
    for d, c in enumerate(b):
        out[d] += c
    return _trim(out)


def poly_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for d, c in enumerate(a):
        for e, k in enumerate(b):
            out[d + e] += c * k
    return _trim(out)


def poly_shift(a, k: int) -> list:
    return [0] * k + list(a) if a else []


def is_transposition_apart(u, v) -> bool:
    """True iff u^-1 v is a transposition: the windows differ by one swap."""
    diff = [i for i, (a, b) in enumerate(zip(u, v)) if a != b]
    return len(diff) == 2 and u[diff[0]] == v[diff[1]] and u[diff[1]] == v[diff[0]]


def rtilde_problem(u, v, coeffs, index: BruhatIndex) -> str | None:
    """The first property of R-tilde(u, v) that ``coeffs`` breaks, or None.

    For u <= v the polynomial has degree l(v) - l(u), is monic with
    nonnegative coefficients, has only powers of the parity of l(v) - l(u),
    and its coefficient of q is 1 exactly when u^-1 v is a transposition.
    """
    coeffs = list(coeffs)
    if not index.leq(u, v):
        return None if not coeffs else "nonzero polynomial for an incomparable pair"
    ell = index.length(v) - index.length(u)
    if len(coeffs) - 1 != ell:
        return f"degree {len(coeffs) - 1}, expected {ell}"
    if coeffs[-1] != 1:
        return "not monic"
    if any(c < 0 for c in coeffs):
        return "negative coefficient"
    if any(c and (d - ell) % 2 for d, c in enumerate(coeffs)):
        return "a power of the wrong parity"
    linear = coeffs[1] if len(coeffs) > 1 else 0
    if (linear == 1) != is_transposition_apart(u, v):
        return f"coefficient of q is {linear}"
    return None


def inversion_residue(u, v, poly, index: BruhatIndex) -> list:
    """sum over x in [u, v] of (-1)^(l(x)-l(u)) R(u, x) R(x, v); zero for u < v.

    ``poly(a, b)`` returns the coefficient list the program gave for (a, b).
    """
    lu = index.length(u)
    total: list = []
    for x in index.members(u, v):
        term = poly_mul(poly(u, x), poly(x, v))
        if (index.length(x) - lu) % 2:
            term = [-c for c in term]
        total = poly_add(total, term)
    return total


def shortcut_expansion(shortcut_set, dist: dict, v, poly) -> list:
    """sum over p in the shortcut set of q^d(u, p) R(p, v)."""
    total: list = []
    for p in shortcut_set:
        total = poly_add(total, poly_shift(poly(p, v), dist[p]))
    return total
