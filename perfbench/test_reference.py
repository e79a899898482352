"""Tests of the benchmark's reference computations.

Run with ``python3 -m unittest discover -s perfbench`` from the repository
root (pytest collects them too).
"""

import unittest
from collections import deque
from itertools import permutations

import reference

# R-tilde in S3 by interval length: q, q^2, q^3 + q.
S3_RTILDE = {0: [1], 1: [0, 1], 2: [0, 0, 1], 3: [0, 1, 0, 1]}


def s3_poly(index):
    def poly(u, v):
        if not index.leq(u, v):
            return []
        return S3_RTILDE[index.length(v) - index.length(u)]

    return poly


def closure_leq(n):
    """Bruhat order as the transitive closure of the arrows x -> x*t."""
    below = {}
    for w in permutations(range(1, n + 1)):
        seen = {w}
        queue = deque([w])
        while queue:
            x = queue.popleft()
            for i in range(n):
                for j in range(i + 1, n):
                    if x[i] < x[j]:
                        y = list(x)
                        y[i], y[j] = y[j], y[i]
                        y = tuple(y)
                        if y not in seen:
                            seen.add(y)
                            queue.append(y)
        below[w] = seen
    return below


class BruhatIndexTest(unittest.TestCase):
    def test_comparable_pair_counts(self):
        counts = [reference.BruhatIndex(n).comparable_pair_count() for n in range(1, 7)]
        self.assertEqual(counts, [1, 3, 19, 213, 3781, 98407])
        self.assertEqual(len(reference.BruhatIndex(5).comparable_pairs()), 3781)

    def test_rank_matrices_match_the_arrow_closure(self):
        index = reference.BruhatIndex(4)
        up = closure_leq(4)
        for x in index.perms:
            for y in index.perms:
                self.assertEqual(index.leq(x, y), y in up[x], (x, y))
                self.assertEqual(reference.rank_leq(x, y), y in up[x], (x, y))

    def test_interval_members_and_distances(self):
        index = reference.BruhatIndex(3)
        u, v = (1, 2, 3), (3, 2, 1)
        self.assertEqual(index.interval_size(u, v), 6)
        self.assertEqual(index.members(u, (2, 3, 1)), [u, (1, 3, 2), (2, 1, 3), (2, 3, 1)])
        self.assertEqual(index.members((2, 1, 3), (1, 3, 2)), [])
        dist = index.distances_from(u, v)
        self.assertEqual(dist, {u: 0, (1, 3, 2): 1, (2, 1, 3): 1, v: 1, (2, 3, 1): 2, (3, 1, 2): 2})


class RtildeCheckTest(unittest.TestCase):
    def setUp(self):
        self.index = reference.BruhatIndex(3)
        self.e, self.w0 = (1, 2, 3), (3, 2, 1)

    def test_true_polynomials_pass(self):
        poly = s3_poly(self.index)
        for u, v in self.index.comparable_pairs():
            self.assertIsNone(reference.rtilde_problem(u, v, poly(u, v), self.index))
        self.assertIsNone(reference.rtilde_problem((2, 1, 3), (1, 3, 2), [], self.index))

    def test_tampered_polynomials_are_rejected(self):
        e, w0, index = self.e, self.w0, self.index
        self.assertEqual(reference.rtilde_problem(e, w0, [0, 1, 0, 2], index), "not monic")
        self.assertEqual(reference.rtilde_problem(e, w0, [0, 1, 1, 1], index), "a power of the wrong parity")
        self.assertEqual(reference.rtilde_problem(e, w0, [0, 5], index), "degree 1, expected 3")
        self.assertEqual(reference.rtilde_problem(e, w0, [0, 0, 0, 1], index), "coefficient of q is 0")
        self.assertEqual(reference.rtilde_problem(e, w0, [0, -1, 0, 1], index), "negative coefficient")
        self.assertEqual(reference.rtilde_problem(e, (2, 3, 1), [0, 1], index), "degree 1, expected 2")
        self.assertIsNotNone(reference.rtilde_problem((2, 1, 3), (1, 3, 2), [0, 1], index))

    def test_inversion_identity(self):
        index = self.index
        poly = s3_poly(index)
        for u, v in index.comparable_pairs():
            if u != v:
                self.assertEqual(reference.inversion_residue(u, v, poly, index), [], (u, v))

        # the x = u and x = v terms cancel for odd l(v) - l(u), so tamper
        # with an even-length pair
        def tampered(a, b):
            return [0, 0, 2] if (a, b) == (self.e, (2, 3, 1)) else poly(a, b)

        self.assertEqual(reference.inversion_residue(self.e, (2, 3, 1), tampered, index), [0, 0, 2])

    def test_shortcut_expansion(self):
        index = self.index
        poly = s3_poly(index)
        e, w0 = self.e, self.w0
        dist = index.distances_from(e, w0)
        # shortcut sets of [123, 321] for z = 123 and z = 231
        self.assertEqual(reference.shortcut_expansion([e], dist, w0, poly), [0, 1, 0, 1])
        expansion = reference.shortcut_expansion([(2, 3, 1), (3, 2, 1)], dist, w0, poly)
        self.assertEqual(expansion, [0, 1, 0, 1])


if __name__ == "__main__":
    unittest.main()
