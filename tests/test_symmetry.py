"""Inversion x -> x^-1 and conjugation by w0 are automorphisms of Bruhat
order that carry Bruhat-graph arrows to arrows and reflections to
reflections (Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 2).  So
each map carries the decompositions, shortcuts, R-elements, R-tilde,
co-simplicity and the DS, DH and hw-bijection answers of [u, v] to the same
values on the image interval [f(u), f(v)].

``lemma-paths`` is left out: its reflection orders are fixed, and the maps
do not carry them to each other.
"""

import random

import pytest

from bruhatcubes.appendix import dh_symmetric, is_cosimple, verify_hw_projection
from bruhatcubes.doubles import ds_symmetric
from bruhatcubes.hcd import (
    enumerate_hcds,
    is_amazing_r_element,
    is_r_element,
    shortcuts,
    standard_hcds,
)
from bruhatcubes.interval import comparable_pairs, interval, rank_index
from bruhatcubes.permutations import conjugate_by_longest, inverse
from bruhatcubes.rpoly import rtilde

MAPS = {"inverse": inverse, "conjugate-by-w0": conjugate_by_longest}


def _hw(I, z):
    rec = verify_hw_projection(I, z)
    return rec["status"], rec["hypercubes"], rec["shortcuts"]


def _assert_carried(f, u, v):
    """Every value above on [u, v], mapped by f, equals the same value on
    [f(u), f(v)]."""
    I, J = interval(u, v), interval(f(u), f(v))

    def image(xs):
        return {f(x) for x in xs}

    where = (u, v)
    assert image(standard_hcds(I)) == set(standard_hcds(J)), where
    assert image(enumerate_hcds(I)) == set(enumerate_hcds(J)), where
    amazing = enumerate_hcds(I, amazing_only=True)
    assert image(amazing) == set(enumerate_hcds(J, amazing_only=True)), where
    for z in I:
        assert is_r_element(J, f(z)) == is_r_element(I, z), (where, z)
    for z in amazing:
        assert is_amazing_r_element(J, f(z)) == is_amazing_r_element(I, z), (where, z)
        assert shortcuts(J, f(z)) == image(shortcuts(I, z)), (where, z)
        assert _hw(J, f(z)) == _hw(I, z), (where, z)
    assert rtilde(f(u), f(v)) == rtilde(u, v), where
    assert is_cosimple(J) == is_cosimple(I), where
    for z in amazing:
        for zp in amazing:
            assert ds_symmetric(J, f(z), f(zp)) == ds_symmetric(I, z, zp), (where, z, zp)
            assert dh_symmetric(J, f(z), f(zp)) == dh_symmetric(I, z, zp), (where, z, zp)


@pytest.mark.parametrize("name", MAPS)
def test_the_maps_carry_arrows_to_arrows_s4(name):
    # the premise: an involution of S4 that maps every arrow to an arrow,
    # so the order, its closure, maps onto itself too
    f, index = MAPS[name], rank_index(4)
    perms = index.perms
    assert all(f(f(x)) == x for x in perms)
    for x, row in enumerate(index.arrows):
        for y in row:
            assert index.id[f(perms[y])] in index.arrows[index.id[f(perms[x])]], (x, y)


@pytest.mark.parametrize("name", MAPS)
def test_every_s4_value_is_carried(name):
    pairs = comparable_pairs(4)
    assert len(pairs) == 213
    for u, v in pairs:
        _assert_carried(MAPS[name], u, v)


@pytest.mark.parametrize("name", MAPS)
def test_sampled_s5_values_are_carried(name):
    for u, v in random.Random(5).sample(comparable_pairs(5), 300):
        _assert_carried(MAPS[name], u, v)
