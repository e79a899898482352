"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import assume
from hypothesis import strategies as st

from oracles import interval_elements_brute, subword_products


@st.composite
def comparable_pair(draw, max_size: int | None = None):
    """A pair u <= v of rank 5 or 6, u drawn from the subword cone of v;
    with ``max_size``, only pairs whose interval has at most that many
    elements."""
    n = draw(st.sampled_from((5, 6)))
    v = draw(st.permutations(range(1, n + 1)).map(tuple))
    u = draw(st.sampled_from(sorted(subword_products(v))))
    if max_size is not None:
        assume(len(interval_elements_brute(u, v)) <= max_size)
    return u, v
