"""Sweep orchestration: interval enumeration, seeded sampling, check
dispatch, and deterministic report assembly.

A sweep runs a set of named checks over every comparable pair of one rank
(exhaustive mode) or over a seeded uniform sample of pairs (sample mode).
Records are emitted in pair order, so a report body is a pure function of
the configuration.  :func:`stream_sweep` yields them as they are made, so a
sweep holds one pair's records at a time; :func:`run_sweep` collects them.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations
from typing import Iterator, NamedTuple

from .appendix import (
    is_cosimple,
    verify_dh_symmetry,
    verify_hw_projection,
    verify_lemma_incpaths,
)
from .doubles import (
    _record,
    verify_bologna,
    verify_congettura,
    verify_em0,
    verify_product,
    verify_strong_ds_pair,
)
from .errors import ConfigError
from .hcd import enumerate_hcds, is_amazing, is_amazing_r_element, is_upper_hcd, standard_hcds
from .interval import MAX_RANK, Interval, comparable_pairs, interval, interval_size
from .permutations import Perm, bruhat_leq, format_perm
from .polynomials import poly_str
from .rpoly import canonical_orders, rtilde, rtilde_dyer

ALL_CHECKS = (
    "dyer",
    "standard-hcd",
    "congettura",
    "em0",
    "strong-ds",
    "bologna",
    "product",
    "cosimple-dh",
    "hw-bijection",
    "lemma-paths",
)

# the checks that evaluate R-tilde, and so read the polynomial memo
RTILDE_CHECKS = ("dyer", "standard-hcd", "congettura", "bologna")

# exhaustive sweeps are allowed up to the ranks at which they were measured
# to finish (S6 congettura and em0 take minutes)
_EXHAUSTIVE_LIMIT = {"dyer": 6, "standard-hcd": 6, "congettura": 6, "em0": 6, "lemma-paths": 4}
_EXHAUSTIVE_DEFAULT_LIMIT = 5

CONVENTIONS = {
    "edge_direction": "x->y iff y=x*t with increasing length; label t=x^{-1}y",
    "inflow_sources": "restricted to [u,v] minus [z,v]",
    "dh_hypercubes": "spanned by arrows into p (top-pinned); bottom must equal u",
}


class SweepConfig(NamedTuple):
    n: int
    checks: tuple[str, ...] = ALL_CHECKS
    mode: str = "exhaustive"
    sample_size: int = 50
    seed: int | None = None
    max_interval_size: int | None = None
    timings: bool = False
    # sweeps run serially; perfbench/tracer.py reads this as the worker count
    threads = 1

    def fingerprint(self) -> dict:
        return {
            "n": self.n,
            "checks": list(self.checks),
            "mode": self.mode,
            "sample_size": self.sample_size if self.mode == "sample" else None,
            "seed": self.seed if self.mode == "sample" else None,
            "max_interval_size": self.max_interval_size,
        }

    def fingerprint_digest(self) -> str:
        """Short stable id of the configuration and conventions; stamped on
        every record so appended report files stay self-describing."""
        # CPython's built-in sha256 (3.12 and later, then 3.10 and 3.11), not
        # hashlib, which maps OpenSSL's libcrypto: a few MB for one digest
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256

        blob = json.dumps(
            {"config": self.fingerprint(), "conventions": CONVENTIONS}, sort_keys=True
        )
        return sha256(blob.encode()).hexdigest()[:12]


def validate_config(cfg: SweepConfig) -> None:
    if "" in cfg.checks:
        raise ConfigError("empty check name in the check list")
    unknown = [c for c in cfg.checks if c not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks: {', '.join(unknown)}")
    repeated = [c for i, c in enumerate(cfg.checks) if c in cfg.checks[:i]]
    if repeated:
        raise ConfigError(f"repeated checks: {', '.join(dict.fromkeys(repeated))}")
    if not cfg.checks:
        raise ConfigError("no checks selected")
    if cfg.mode not in ("exhaustive", "sample"):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.n < 1:
        raise ConfigError("rank must be positive")
    if cfg.max_interval_size is not None and cfg.max_interval_size < 1:
        raise ConfigError("interval size bound must be positive")
    interval_checks = [c for c in cfg.checks if c in _CHECK_FUNCS]
    if interval_checks and cfg.n > MAX_RANK:
        raise ConfigError(
            f"{interval_checks[0]} builds intervals, which are limited to rank {MAX_RANK}"
        )
    if cfg.mode == "sample":
        # only the interval checks draw pairs; product enumerates its own
        if cfg.seed is None and interval_checks:
            raise ConfigError("sample mode requires a seed")
        if cfg.sample_size < 1:
            raise ConfigError("sample size must be positive")
    else:
        for check in cfg.checks:
            limit = _EXHAUSTIVE_LIMIT.get(check, _EXHAUSTIVE_DEFAULT_LIMIT)
            if check != "product" and cfg.n > limit:
                raise ConfigError(
                    f"exhaustive {check} is limited to rank {limit}; use sample mode"
                )


def sample_pairs(
    n: int, size: int, seed: int, max_interval_size: int | None
) -> list[tuple[Perm, Perm]]:
    """Seeded uniform sample of comparable pairs, with replacement, subject
    to the interval-size bound."""
    rng = random.Random(seed)
    base = list(range(1, n + 1))
    out: list[tuple[Perm, Perm]] = []
    while len(out) < size:
        u = tuple(rng.sample(base, n))
        v = tuple(rng.sample(base, n))
        if not bruhat_leq(u, v):
            continue
        if max_interval_size is not None and interval_size(u, v) > max_interval_size:
            continue
        out.append((u, v))
    return out


def sweep_pairs(cfg: SweepConfig) -> list[tuple[Perm, Perm]]:
    if cfg.mode == "exhaustive":
        pairs = comparable_pairs(cfg.n)
        if cfg.max_interval_size is not None:
            pairs = [
                p for p in pairs if interval_size(*p) <= cfg.max_interval_size
            ]
        return pairs
    assert cfg.seed is not None
    return sample_pairs(cfg.n, cfg.sample_size, cfg.seed, cfg.max_interval_size)


# ---------------------------------------------------------------------------
# per-interval checks


def check_dyer(I: Interval) -> list[dict]:
    orders = canonical_orders(I.n, 2 if I.n <= 4 else 3)
    expected = rtilde(I.u, I.v)
    for order in orders:
        got = rtilde_dyer(I, order)
        if got != expected:
            witness = {
                "order": str(order),
                "paths": poly_str(got),
                "recurrence": poly_str(expected),
            }
            return [_record("dyer", I, "FAIL", witness=witness)]
    return [_record("dyer", I, "PASS", orders=len(orders))]


def check_standard_hcd(I: Interval) -> list[dict]:
    try:
        zs = standard_hcds(I)
    except LookupError as exc:
        return [_record("standard-hcd", I, "FAIL", witness=str(exc))]
    for z in zs:
        for holds, what in (
            (is_upper_hcd, "an upper decomposition"),
            (is_amazing, "amazing"),
            (is_amazing_r_element, "an amazing R-element"),
        ):
            if not holds(I, z):
                witness = f"{format_perm(z)} not {what}"
                return [_record("standard-hcd", I, "FAIL", witness=witness)]
    return [_record("standard-hcd", I, "PASS", hcds=[format_perm(z) for z in zs])]


def check_congettura(I: Interval) -> list[dict]:
    return [verify_congettura(I)]


def check_em0(I: Interval) -> list[dict]:
    return [verify_em0(I)]


def check_strong_ds(I: Interval) -> list[dict]:
    amazing = enumerate_hcds(I, amazing_only=True)
    records = []
    for i, z in enumerate(amazing):
        for zp in amazing[i + 1 :]:
            records.append(verify_strong_ds_pair(I, z, zp))
    if not records:
        records.append(_record("strong-ds", I, "PASS", pairs=0))
    return records


def check_bologna(I: Interval) -> list[dict]:
    amazing = enumerate_hcds(I, amazing_only=True)
    records = []
    for z in amazing:
        for zp in amazing:
            if z != zp:
                records.append(verify_bologna(I, z, zp))
    return records


def check_cosimple_dh(I: Interval) -> list[dict]:
    if not is_cosimple(I):
        return [_record("cosimple-dh", I, "SKIP", reason="not co-simple")]
    records = []
    standard = list(combinations(sorted(standard_hcds(I)), 2))
    amazing = enumerate_hcds(I, amazing_only=True)
    for z, zp in standard:
        records.append(verify_dh_symmetry(I, z, zp, conjectural=False))
    for i, z in enumerate(amazing):
        for zp in amazing[i + 1 :]:
            if (z, zp) in standard or (zp, z) in standard:
                continue
            records.append(verify_dh_symmetry(I, z, zp, conjectural=True))
    if not records:
        records.append(_record("cosimple-dh", I, "PASS", reason="no pairs"))
    return records


def check_hw_bijection(I: Interval) -> list[dict]:
    return [verify_hw_projection(I, z) for z in enumerate_hcds(I, amazing_only=True)]


def check_lemma_paths(I: Interval) -> list[dict]:
    if not is_cosimple(I):
        return [_record("lemma-paths", I, "SKIP", reason="not co-simple")]
    limit = 48 if I.n >= 5 else None
    records = []
    for z in standard_hcds(I):
        records.append(verify_lemma_incpaths(I, z, reading="crossing", order_limit=limit))
        records.append(verify_lemma_incpaths(I, z, reading="coatom", order_limit=limit))
    return records


_CHECK_FUNCS = {
    "dyer": check_dyer,
    "standard-hcd": check_standard_hcd,
    "congettura": check_congettura,
    "em0": check_em0,
    "strong-ds": check_strong_ds,
    "bologna": check_bologna,
    "cosimple-dh": check_cosimple_dh,
    "hw-bijection": check_hw_bijection,
    "lemma-paths": check_lemma_paths,
}


def product_records(cfg: SweepConfig) -> Iterator[dict]:
    """Block-sum transfer checks, yielded one product at a time; rank 5
    splits as 2+3, rank 6 as 3+3."""
    if cfg.n == 5:
        splits = [(2, 3)]
    elif cfg.n == 6:
        splits = [(3, 3)]
    else:
        yield {
            "check": "product",
            "n": cfg.n,
            "status": "SKIP",
            "reason": "product check is defined for ranks 5 and 6",
        }
        return
    for n1, n2 in splits:
        for u1, v1 in comparable_pairs(n1):
            for u2, v2 in comparable_pairs(n2):
                if cfg.max_interval_size is not None:
                    if interval_size(u1, v1) * interval_size(u2, v2) > cfg.max_interval_size:
                        continue
                yield from verify_product(interval(u1, v1), interval(u2, v2))


# ---------------------------------------------------------------------------
# the sweep itself


def stream_sweep(cfg: SweepConfig) -> Iterator[dict]:
    """The report of a sweep as it is made: the header first, then each
    check's records as soon as that check of its pair is done, each stamped
    with ``fp``.  ``cfg`` is validated before the header is yielded, so a
    bad configuration raises :class:`ConfigError` before anything is written.
    """
    validate_config(cfg)
    digest = cfg.fingerprint_digest()
    yield {
        "report_version": 1,
        "tool": "bruhatcubes",
        "config": cfg.fingerprint(),
        "conventions": CONVENTIONS,
        "fp": digest,
    }
    interval_checks = [c for c in cfg.checks if c in _CHECK_FUNCS]
    if interval_checks:
        bottom = None
        for pair in sweep_pairs(cfg):
            I = interval(*pair)
            if I.uid != bottom:
                # a check of [u, v] reads no memo of a bottom below u, and
                # exhaustive mode visits the bottoms in id order, so there
                # the memos dropped here are never read again
                bottom = I.uid
                I.index.forget_below(bottom)
            for name in interval_checks:
                start = time.perf_counter()
                recs = _CHECK_FUNCS[name](I)
                if cfg.timings:
                    ms = int((time.perf_counter() - start) * 1000)
                    for rec in recs:
                        rec["ms"] = ms
                for rec in recs:
                    rec["fp"] = digest
                    yield rec
    if "product" in cfg.checks:
        for rec in product_records(cfg):
            rec["fp"] = digest
            yield rec


def run_sweep(cfg: SweepConfig) -> tuple[dict, list[dict], int]:
    """Run every selected check; returns (header, records, exit_code), with
    every record of :func:`stream_sweep` held in one list.

    Exit code 1 signals at least one FAIL record (a proved statement broke);
    FINDING records never affect the exit code.
    """
    header, *records = stream_sweep(cfg)
    failed = any(rec.get("status") == "FAIL" for rec in records)
    return header, records, 1 if failed else 0
