"""Independent brute-force oracles used to freeze expected test values.

Everything here recomputes results from first principles: subword and
sorted-prefix (tableau) Bruhat comparison, literal path enumeration without
pruning, and hypercube cell assignment over the whole group.  None of it
shares a code path with the implementations under test beyond elementary
window arithmetic, except that the R-element form reads R-tilde values from
``rpoly.rtilde``, which ``test_rpoly`` checks against the path-counting route,
and ``hypercubes_by_windows`` calls ``hcd.spans_hypercube``: it pins the order
in which hypercubes are listed, not the spanning test, which
``antichain_hypercubes_brute`` checks.  Co-simplicity is decided here as
linear algebra: the exact integer rank of the coatom roots.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache

from bruhatcubes.hcd import HypercubeEmbedding, spans_hypercube
from bruhatcubes.permutations import (
    Perm,
    all_perms,
    direct_sum,
    identity,
    length,
    right_multiply_simple,
)
from bruhatcubes.rpoly import rtilde


@lru_cache(maxsize=None)
def reduced_word_of(w: Perm) -> tuple[int, ...]:
    """One reduced word, by repeatedly removing the smallest right descent."""
    word: list[int] = []
    cur = list(w)
    n = len(w)
    while True:
        i = next((i for i in range(1, n) if cur[i - 1] > cur[i]), None)
        if i is None:
            break
        cur[i - 1], cur[i] = cur[i], cur[i - 1]
        word.append(i)
    word.reverse()
    return tuple(word)


@lru_cache(maxsize=None)
def subword_products(v: Perm) -> frozenset[Perm]:
    """Products of all subwords of one fixed reduced word of v.

    This set is exactly the lower Bruhat cone of v, giving an independent
    comparison oracle.
    """
    word = reduced_word_of(v)
    n = len(v)
    seen = set()
    for mask in range(1 << len(word)):
        cur = identity(n)
        for k, letter in enumerate(word):
            if (mask >> k) & 1:
                cur = right_multiply_simple(cur, letter)
        seen.add(cur)
    return frozenset(seen)


def subword_leq(x: Perm, y: Perm) -> bool:
    return x in subword_products(y)


def tableau_leq(x: Perm, y: Perm) -> bool:
    """Bruhat comparison by the tableau criterion: every sorted k-prefix of x
    is entrywise dominated by the sorted k-prefix of y."""
    if len(x) != len(y):
        raise ValueError(f"rank mismatch: {len(x)} vs {len(y)}")
    if x == y:
        return True
    xs: list[int] = []
    ys: list[int] = []
    for k in range(len(x) - 1):
        insort(xs, x[k])
        insort(ys, y[k])
        if any(a > b for a, b in zip(xs, ys)):
            return False
    return True


def root(t: tuple[int, int], n: int) -> tuple[int, ...]:
    """The integer vector e_i - e_j attached to the reflection (i, j)."""
    vec = [0] * n
    vec[t[0] - 1] = 1
    vec[t[1] - 1] = -1
    return tuple(vec)


def integer_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(n_cols):
        pivot_row = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        pivot = m[rank][col]
        for r in range(rank + 1, n_rows):
            factor = m[r][col]
            for c in range(n_cols):
                m[r][c] = (m[r][c] * pivot - factor * m[rank][c]) // prev
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank


def coatom_labels_brute(u: Perm, v: Perm) -> list[tuple[int, int]]:
    """The coatom labels of [u, v], in label order: the transpositions t of
    positions with v*t one length below v and, by the tableau criterion, at
    or above u."""
    n, below = len(v), length(v) - 1
    labels = []
    for t in itertools.combinations(range(1, n + 1), 2):
        c = list(v)
        c[t[0] - 1], c[t[1] - 1] = c[t[1] - 1], c[t[0] - 1]
        if length(tuple(c)) == below and tableau_leq(u, tuple(c)):
            labels.append(t)
    return labels


def coatom_roots_brute(u: Perm, v: Perm) -> list[tuple[int, ...]]:
    """The root of each coatom label of [u, v], in label order."""
    return [root(t, len(v)) for t in coatom_labels_brute(u, v)]


def cosimple_brute(u: Perm, v: Perm) -> bool:
    """True iff the coatom roots of [u, v] have full integer rank."""
    rows = coatom_roots_brute(u, v)
    return integer_rank(rows) == len(rows)


def interval_elements_brute(u: Perm, v: Perm) -> set[Perm]:
    return {x for x in subword_products(v) if subword_leq(u, x)}


def bruhat_edges_brute(members: set[Perm]) -> set[tuple[Perm, Perm, tuple[int, int]]]:
    """All labeled arrows between members, found by pairwise window scan."""
    return set(_edges_brute(frozenset(members)))


@lru_cache(maxsize=4096)
def _edges_brute(members: frozenset[Perm]) -> frozenset[tuple[Perm, Perm, tuple[int, int]]]:
    edges = set()
    for x in members:
        for y in members:
            if length(x) >= length(y):
                continue
            diff = [i for i, (a, b) in enumerate(zip(x, y), start=1) if a != b]
            if len(diff) == 2:
                i, j = diff
                if x[i - 1] == y[j - 1] and x[j - 1] == y[i - 1]:
                    edges.add((x, y, (i, j)))
    return frozenset(edges)


def is_diamond_complete_brute(members: set[Perm], z: Perm) -> bool:
    """No diamond x -> a, x -> b, a -> y, b -> y (a != b) with a, b and y in
    [z, v] has its bottom x outside, checked over every quadruple of members."""
    zv = {x for x in members if subword_leq(z, x)}
    arrows = {(x, y) for x, y, _ in bruhat_edges_brute(members)}
    for x in members - zv:
        for a in zv:
            for b in zv:
                if a == b or (x, a) not in arrows or (x, b) not in arrows:
                    continue
                if any((a, y) in arrows and (b, y) in arrows for y in zv):
                    return False
    return True


def all_directed_paths(members: set[Perm], x: Perm, y: Perm) -> list[list[Perm]]:
    """Every directed edge path x -> ... -> y, by unpruned search."""
    adjacency: dict[Perm, list[Perm]] = {m: [] for m in members}
    for a, b, _ in bruhat_edges_brute(members):
        adjacency[a].append(b)
    paths: list[list[Perm]] = []

    def walk(c: Perm, acc: list[Perm]) -> None:
        if c == y:
            paths.append(list(acc))
            return
        for w in adjacency[c]:
            acc.append(w)
            walk(w, acc)
            acc.pop()

    walk(x, [x])
    return paths


def increasing_paths_brute(members: set[Perm], x: Perm, y: Perm, order) -> list[list[Perm]]:
    """The directed paths x -> ... -> y whose labels strictly increase in
    the reflection order ``order``, filtered from every path."""
    label = {(a, b): t for a, b, t in bruhat_edges_brute(members)}
    pos = order.position
    out = []
    for path in all_directed_paths(members, x, y):
        ranks = [pos[label[a, b]] for a, b in zip(path, path[1:])]
        if all(r < s for r, s in zip(ranks, ranks[1:])):
            out.append(path)
    return out


def geodesics_brute(members: set[Perm], x: Perm, y: Perm) -> list[list[Perm]]:
    paths = all_directed_paths(members, x, y)
    if not paths:
        return []
    best = min(len(p) for p in paths)
    return [p for p in paths if len(p) == best]


def shortcuts_brute(members: set[Perm], u: Perm, v: Perm, z: Perm) -> set[Perm]:
    """The geodesic shortcut definition, evaluated literally."""
    zv = {x for x in members if subword_leq(z, x)}
    out = set()
    for p in zv:
        geos = geodesics_brute(members, u, p)
        if all(set(g) & zv == {p} for g in geos):
            out.add(p)
    return out


def enumerate_cube_assignments_brute(
    top: Perm, sources: tuple[Perm, ...]
) -> list[dict[int, Perm]]:
    """Complete injective cell assignments with every candidate drawn from
    the whole group and every Boolean-algebra arrow checked directly."""
    n = len(top)
    k = len(sources)
    size = 1 << k
    full = size - 1
    table: dict[int, Perm] = {full: top}
    for b, s in enumerate(sources):
        table[full ^ (1 << b)] = s

    def is_arrow(x: Perm, y: Perm) -> bool:
        if length(x) >= length(y):
            return False
        diff = [i for i, (a, b) in enumerate(zip(x, y)) if a != b]
        return (
            len(diff) == 2
            and x[diff[0]] == y[diff[1]]
            and x[diff[1]] == y[diff[0]]
        )

    pending = sorted(
        (m for m in range(size) if bin(m).count("1") <= k - 2),
        key=lambda m: bin(m).count("1"),
        reverse=True,
    )
    candidates = list(all_perms(n))
    found: list[dict[int, Perm]] = []

    def fill(idx: int, used: set[Perm]) -> None:
        if idx == len(pending):
            found.append(dict(table))
            return
        m = pending[idx]
        covers = [table[m | (1 << b)] for b in range(k) if not (m >> b) & 1]
        for x in candidates:
            if x in used:
                continue
            if all(is_arrow(x, c) for c in covers):
                table[m] = x
                used.add(x)
                fill(idx + 1, used)
                used.discard(x)
                del table[m]

    fill(0, set(table.values()))
    return found


@lru_cache(maxsize=None)
def count_cube_assignments_brute(top: Perm, sources: tuple[Perm, ...]) -> int:
    return len(enumerate_cube_assignments_brute(top, sources))


def antichain_hypercubes_brute(
    members: set[Perm], u: Perm, v: Perm, z: Perm
) -> list[tuple[int, Perm]]:
    """(rank, p) pairs of the uniquely-spanned antichain hypercubes with
    bottom u whose vertex set meets [z, v] only at p, from first principles."""
    zv = {x for x in members if subword_leq(z, x)}
    edges = bruhat_edges_brute(members)
    out: list[tuple[int, Perm]] = []
    for p in sorted(zv):
        sources = sorted(x for x, y, _ in edges if y == p)
        for mask in range(1 << len(sources)):
            chosen = tuple(s for b, s in enumerate(sources) if (mask >> b) & 1)
            if any(
                subword_leq(a, b) or subword_leq(b, a)
                for i, a in enumerate(chosen)
                for b in chosen[i + 1 :]
            ):
                continue
            hits = enumerate_cube_assignments_brute(p, chosen)
            if len(hits) != 1:
                continue
            table = hits[0]
            image = set(table.values())
            if table[0] == u and image & zv == {p}:
                out.append((len(chosen), p))
    return out


def window_antichains(members: set[Perm], z: Perm) -> list[tuple[Perm, tuple[Perm, ...]]]:
    """(p, antichain) in the order of the window enumeration: p in [z, v]
    by (length, window); for each p, the antichains of the sorted windows of
    the sources of its arrows in depth-first preorder from the empty one,
    incomparability tested by subwords."""
    edges = bruhat_edges_brute(members)

    def antichains(items: list[Perm], start: int, chosen: tuple[Perm, ...]):
        yield chosen
        for i in range(start, len(items)):
            x = items[i]
            if not any(subword_leq(x, c) or subword_leq(c, x) for c in chosen):
                yield from antichains(items, i + 1, chosen + (x,))

    zv = (x for x in members if subword_leq(z, x))
    return [
        (p, sub)
        for p in sorted(zv, key=lambda x: (length(x), x))
        for sub in antichains(sorted(x for x, y, _ in edges if y == p), 0, ())
    ]


def hypercubes_by_windows(
    members: set[Perm], u: Perm, v: Perm, z: Perm
) -> list[tuple[HypercubeEmbedding, Perm]]:
    """(hypercube, p) for the antichain-spanned hypercubes of [u, v] for z,
    in the order of ``window_antichains``: each antichain that spans, with
    bottom u and vertex set meeting [z, v] only at p."""
    zv = {x for x in members if subword_leq(z, x)}
    out = []
    for p, sub in window_antichains(members, z):
        emb = spans_hypercube(p, sub)
        if emb is not None and emb.bottom == u and emb.image & zv == {p}:
            out.append((emb, p))
    return out


def join_brute(members: set[Perm], z: Perm, x: Perm) -> Perm | None:
    """Unique least member of the joint upper cone, by pairwise scan."""
    cone = [
        y for y in members if subword_leq(z, y) and subword_leq(x, y)
    ]
    least = [m for m in cone if all(subword_leq(m, y) for y in cone)]
    return least[0] if len(least) == 1 else None


def ds_multiset_brute(
    members: set[Perm], u: Perm, v: Perm, z: Perm, zp: Perm
) -> dict[tuple[int, Perm], int]:
    """Double-shortcut multiset computed entirely from the brute oracles."""
    out: dict[tuple[int, Perm], int] = {}
    for p in shortcuts_brute(members, u, v, z):
        d_up = len(geodesics_brute(members, u, p)[0]) - 1
        j = join_brute(members, zp, p)
        assert j is not None
        sub = {x for x in members if subword_leq(p, x)}
        for b in shortcuts_brute(sub, p, v, j):
            d_pb = len(geodesics_brute(sub, p, b)[0]) - 1
            key = (d_up + d_pb, b)
            out[key] = out.get(key, 0) + 1
    return out


def expansion_pairs_brute(
    members: set[Perm], u: Perm, v: Perm, z: Perm, zp: Perm
) -> set[tuple[Perm, Perm]]:
    """The (p, b) of the double-shortcut expansion of (z, z'): p a shortcut
    of [u, v] for z, b a shortcut of [p, v] for the join of z' and p."""
    out = set()
    for p in shortcuts_brute(members, u, v, z):
        j = join_brute(members, zp, p)
        assert j is not None
        sub = {x for x in members if subword_leq(p, x)}
        out.update((p, b) for b in shortcuts_brute(sub, p, v, j))
    return out


@lru_cache(maxsize=None)
def product_outcome_brute(
    f1: tuple[Perm, Perm], f2: tuple[Perm, Perm], zs: tuple[Perm, Perm], zps: tuple[Perm, Perm]
) -> tuple[str, str | None, str | None]:
    """(status, reason, witness) of the block-sum transfer check for the
    factors [u1, v1] and [u2, v2] and the pair ((z1, z2), (z1', z2')),
    evaluated from the definitions in the order of the check."""
    (u1, v1), (u2, v2) = f1, f2
    (z1, z2), (zp1, zp2) = zs, zps
    components = ((u1, v1, z1), (u2, v2, z2), (u1, v1, zp1), (u2, v2, zp2))
    if not all(amazing_brute(*c) for c in components):
        return "SKIP", "components not amazing", None
    m1, m2 = interval_elements_brute(u1, v1), interval_elements_brute(u2, v2)

    def ds_symmetric(members, u, v, a, b) -> bool:
        return ds_multiset_brute(members, u, v, a, b) == ds_multiset_brute(members, u, v, b, a)

    if not (ds_symmetric(m1, u1, v1, z1, zp1) and ds_symmetric(m2, u2, v2, z2, zp2)):
        return "SKIP", "component DS not symmetric", None
    u, v = direct_sum(u1, u2), direct_sum(v1, v2)
    members = interval_elements_brute(u, v)
    z, zp = direct_sum(z1, z2), direct_sum(zp1, zp2)
    problems = []
    if not (amazing_brute(u, v, z) and amazing_brute(u, v, zp)):
        problems.append("block sums not amazing in the product")
    for a, b, name in ((z1, z2, "z-shortcuts"), (zp1, zp2, "z'-shortcuts")):
        w1, w2 = shortcuts_brute(m1, u1, v1, a), shortcuts_brute(m2, u2, v2, b)
        expected = {direct_sum(x, y) for x in w1 for y in w2}
        if shortcuts_brute(members, u, v, direct_sum(a, b)) != expected:
            problems.append(f"{name} do not factor")
    for (a1, a2), (b1, b2), name in ((zs, zps, "inner"), (zps, zs, "reverse inner")):
        if problems:
            break
        pairs1 = expansion_pairs_brute(m1, u1, v1, a1, b1)
        pairs2 = expansion_pairs_brute(m2, u2, v2, a2, b2)
        expected = {
            (direct_sum(p1, p2), direct_sum(c1, c2)) for p1, c1 in pairs1 for p2, c2 in pairs2
        }
        got = expansion_pairs_brute(members, u, v, direct_sum(a1, a2), direct_sum(b1, b2))
        if got != expected:
            problems.append(f"{name} shortcuts do not factor")
    if not problems and not ds_symmetric(members, u, v, z, zp):
        problems.append("DS symmetry does not transfer")
    if problems:
        return "FAIL", None, "; ".join(problems)
    return "PASS", None, None


def dh_multiset_brute(
    members: set[Perm], u: Perm, v: Perm, z: Perm, zp: Perm
) -> dict[tuple[int, Perm], int]:
    """Double-hypercube multiset computed entirely from the brute oracles."""
    out: dict[tuple[int, Perm], int] = {}
    for r1, p in antichain_hypercubes_brute(members, u, v, z):
        j = join_brute(members, zp, p)
        assert j is not None
        sub = {x for x in members if subword_leq(p, x)}
        for r2, b in antichain_hypercubes_brute(sub, p, v, j):
            key = (r1 + r2, b)
            out[key] = out.get(key, 0) + 1
    return out


def rtilde_brute_by_hand_s3() -> dict[tuple[Perm, Perm], tuple[int, ...]]:
    """Hand-unfolded recurrence values for the rank-3 worked instance."""
    return {
        ((1, 2, 3), (3, 2, 1)): (0, 1, 0, 1),
        ((1, 2, 3), (2, 3, 1)): (0, 0, 1),
        ((1, 2, 3), (3, 1, 2)): (0, 0, 1),
        ((1, 2, 3), (1, 3, 2)): (0, 1),
        ((1, 2, 3), (2, 1, 3)): (0, 1),
        ((2, 3, 1), (3, 2, 1)): (0, 1),
        ((3, 1, 2), (3, 2, 1)): (0, 1),
    }


# ---------------------------------------------------------------------------
# the decomposition predicates, from their definitions; keyed on (u, v, z)


@lru_cache(maxsize=None)
def upper_hcd_brute(u: Perm, v: Perm, z: Perm) -> bool:
    """[z, v] is diamond complete, and at every p in [z, v] every antichain
    of two or more sources of arrows into p from [u, v] minus [z, v] has
    exactly one complete cube assignment."""
    members = interval_elements_brute(u, v)
    if not is_diamond_complete_brute(members, z):
        return False
    zv = {x for x in members if subword_leq(z, x)}
    edges = bruhat_edges_brute(members)
    for p in zv:
        sources = sorted(x for x, y, _ in edges if y == p and x not in zv)
        for k in range(2, len(sources) + 1):
            for family in itertools.combinations(sources, k):
                if any(
                    subword_leq(a, b) or subword_leq(b, a)
                    for a, b in itertools.combinations(family, 2)
                ):
                    continue
                if count_cube_assignments_brute(p, family) != 1:
                    return False
    return True


@lru_cache(maxsize=None)
def amazing_brute(u: Perm, v: Perm, z: Perm) -> bool:
    """Upper, and for every x the join of z and x exists and is an upper
    decomposition of [x, v]."""
    if not upper_hcd_brute(u, v, z):
        return False
    members = interval_elements_brute(u, v)
    for x in members:
        j = join_brute(members, z, x)
        if j is None or not upper_hcd_brute(x, v, j):
            return False
    return True


@lru_cache(maxsize=None)
def r_element_brute(u: Perm, v: Perm, z: Perm) -> bool:
    """The sum of q^{d(u,p)} R-tilde(p, v) over the shortcuts p for z equals
    R-tilde(u, v); d(u, p) is the length of a geodesic, found by search."""
    members = interval_elements_brute(u, v)
    total: list[int] = []
    for p in shortcuts_brute(members, u, v, z):
        d = len(geodesics_brute(members, u, p)[0]) - 1
        for k, c in enumerate(rtilde(p, v), start=d):
            total.extend([0] * (k + 1 - len(total)))
            total[k] += c
    while total and total[-1] == 0:
        total.pop()
    return tuple(total) == rtilde(u, v)


def amazing_r_element_brute(u: Perm, v: Perm, z: Perm) -> bool:
    """Amazing, and for every x the join of z and x is an R-element of
    [x, v]."""
    if not amazing_brute(u, v, z):
        return False
    members = interval_elements_brute(u, v)
    return all(r_element_brute(x, v, join_brute(members, z, x)) for x in members)
