"""Bruhat-interval combinatorics at desk scale: R-tilde polynomials by two
independent routes, hypercube decompositions of intervals, shortcut and
double-shortcut multisets, and exhaustive verification sweeps."""

from .interval import Interval, comparable_pairs, dual_element, interval
from .permutations import (
    Perm,
    Reflection,
    bruhat_leq,
    compose,
    direct_sum,
    format_perm,
    identity,
    inverse,
    length,
    longest_element,
    parse_perm,
    reflections,
    right_multiply_reflection,
)
from .polynomials import QPoly, poly_str
from .rpoly import (
    ReflectionOrder,
    canonical_orders,
    constrained_orders,
    increasing_path_counts,
    is_reflection_order,
    reflection_order_from_word,
    rtilde,
    rtilde_dyer,
)
from .hcd import (
    HypercubeEmbedding,
    enumerate_hcds,
    inflow,
    is_amazing,
    is_amazing_r_element,
    is_r_element,
    is_upper_hcd,
    join,
    rtilde_z,
    shortcuts,
    shortcuts_by_cover_distance,
    spans_cluster,
    spans_hypercube,
    standard_hcds,
)
from .doubles import (
    ds_multiset,
    ds_symmetric,
    equivalence_classes,
    multiset_entries,
    verify_bologna,
    verify_congettura,
    verify_em0,
    verify_product,
    verify_strong_ds_pair,
)
from .appendix import (
    antichain_hypercubes,
    coatom_precedence_constraints,
    crossing_precedence_constraints,
    dh_multiset,
    dh_symmetric,
    is_cosimple,
    verify_dh_symmetry,
    verify_hw_projection,
    verify_lemma_incpaths,
)
from .sweep import ALL_CHECKS, SweepConfig, run_sweep

__version__ = "0.1.0"
