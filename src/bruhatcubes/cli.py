"""Command-line driver.

Commands: ``rtilde``, ``inspect``, ``shortcuts``, ``ds``, ``dh``, ``verify``.
Exit codes: 0 success, 1 a proved statement failed during verify, 2 Bruhat
order error, 3 parse error, 4 I/O error, 5 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from .appendix import dh_multiset, is_cosimple
from .cache import PolyCache, default_cache_path
from .doubles import ds_multiset, multiset_entries
from .errors import CacheError, ConfigError, OrderError, ParseError, WordError
from .hcd import enumerate_hcds, shortcuts, standard_hcds
from .interval import interval
from .permutations import bruhat_leq, format_perm, parse_perm
from .polynomials import poly_str
from .reports import json_line, write_report
from .rpoly import (
    canonical_orders,
    reflection_order_from_word,
    rtilde,
    rtilde_dyer,
    set_cache,
)
from .sweep import ALL_CHECKS, SweepConfig, run_sweep

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ORDER = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_CONFIG = 5


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", metavar="PATH", help="polynomial cache file (default: $BRUHAT_CACHE)")
    parser.add_argument("--no-cache", action="store_true", help="keep the polynomial memo in memory only")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--output", metavar="PATH", help="write output here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bruhatcubes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rtilde", help="R-tilde polynomial of a pair")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--method", choices=("recurrence", "dyer", "both"), default="recurrence")
    p.add_argument("--order-word", help="reduced word of the longest element, e.g. 1,2,1")
    _common(p)

    p = sub.add_parser("inspect", help="summary of one interval")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--edges", action="store_true", help="also dump the labeled arrow list")
    _common(p)

    p = sub.add_parser("shortcuts", help="shortcut set of an interval for z")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--z", required=True)
    _common(p)

    for name, help_text in (
        ("ds", "double-shortcut multiset for a pair of decompositions"),
        ("dh", "double-hypercube multiset for a pair of decompositions"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--u", required=True)
        p.add_argument("--v", required=True)
        p.add_argument("--z", required=True)
        p.add_argument("--z2", required=True)
        p.add_argument("--both", action="store_true", help="also print the reversed pair and a symmetry verdict")
        _common(p)

    p = sub.add_parser("verify", help="run verification sweeps and emit a report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default="all", help=f"comma list from: {', '.join(ALL_CHECKS)} (or 'all')")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default=None)
    p.add_argument("--sample-size", type=int, default=50)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-interval-size", type=int)
    p.add_argument("--timings", action="store_true", help="include per-record timings (breaks byte-identical reports)")
    _common(p)
    return parser


def _configure_cache(args) -> PolyCache:
    """Install the polynomial memo that ``args`` ask for, closing the one it
    replaces; returns the new one."""
    if getattr(args, "no_cache", False):
        path = None
    else:
        path = getattr(args, "cache", None) or default_cache_path()
    cache = PolyCache(path)
    set_cache(cache).close()
    return cache


@contextmanager
def _out_stream(args):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _parse_pair(args):
    u = parse_perm(args.u)
    v = parse_perm(args.v)
    if len(u) != len(v):
        raise ParseError("u and v must have the same rank")
    if not bruhat_leq(u, v):
        raise OrderError(f"{args.u} is not below {args.v} in Bruhat order")
    return u, v


def cmd_rtilde(args, fh) -> int:
    u, v = _parse_pair(args)
    if args.method in ("dyer", "both"):
        if args.order_word:
            raw = args.order_word
            parts = raw.split(",") if "," in raw else list(raw)
            try:
                word = tuple(int(p) for p in parts)
            except ValueError as exc:
                raise WordError(f"bad order word {raw!r}") from exc
            order = reflection_order_from_word(len(u), word)
        else:
            order = canonical_orders(len(u), 1)[0]
        by_paths = rtilde_dyer(interval(u, v), order)
    if args.method == "recurrence":
        result = poly_str(rtilde(u, v))
    elif args.method == "dyer":
        result = poly_str(by_paths)
    else:
        rec = rtilde(u, v)
        verdict = "AGREE" if rec == by_paths else "DISAGREE"
        result = f"{poly_str(rec)} | {poly_str(by_paths)} | {verdict}"
    if args.format == "json":
        payload = {"u": args.u, "v": args.v, "method": args.method, "result": result}
        if args.method != "dyer":
            payload["coeffs"] = list(rtilde(u, v))
        fh.write(json_line(payload) + "\n")
    else:
        fh.write(result + "\n")
    if args.method == "both" and rec != by_paths:
        return EXIT_FAIL
    return EXIT_OK


def cmd_inspect(args, fh) -> int:
    u, v = _parse_pair(args)
    I = interval(u, v)
    amazing = enumerate_hcds(I, amazing_only=True)
    info = {
        "n": I.n,
        "u": format_perm(u),
        "v": format_perm(v),
        "size": len(I),
        "cosimple": is_cosimple(I),
        "standard_hcds": [format_perm(z) for z in standard_hcds(I)],
        "amazing_hcds": [format_perm(z) for z in amazing],
        "shortcuts": {
            format_perm(z): sorted(format_perm(p) for p in shortcuts(I, z))
            for z in amazing
        },
    }
    if args.edges:
        from .permutations import format_reflection

        info["edges"] = [
            [format_perm(x), format_perm(y), format_reflection(t)]
            for x, y, t in I.edges
        ]
    if args.format == "json":
        fh.write(json_line(info) + "\n")
    else:
        fh.write(f"interval [{info['u']}, {info['v']}]  size={info['size']}  co-simple: {info['cosimple']}\n")
        fh.write(f"standard decompositions: {{{', '.join(info['standard_hcds'])}}}\n")
        fh.write(f"amazing decompositions:  {{{', '.join(info['amazing_hcds'])}}}\n")
        for z, ws in info["shortcuts"].items():
            fh.write(f"  shortcuts for {z}: {{{', '.join(ws)}}}\n")
        for edge in info.get("edges", []):
            fh.write(f"  {edge[0]} -> {edge[1]}  {edge[2]}\n")
    return EXIT_OK


def cmd_shortcuts(args, fh) -> int:
    u, v = _parse_pair(args)
    z = parse_perm(args.z)
    I = interval(u, v)
    ws = sorted(format_perm(p) for p in shortcuts(I, z))
    if args.format == "json":
        fh.write(json_line({"u": args.u, "v": args.v, "z": args.z, "shortcuts": ws}) + "\n")
    else:
        fh.write("{" + ", ".join(ws) + "}\n")
    return EXIT_OK


def _cmd_multiset(args, fh, compute) -> int:
    u, v = _parse_pair(args)
    z = parse_perm(args.z)
    zp = parse_perm(args.z2)
    I = interval(u, v)
    forward = compute(I, z, zp)
    payload = {"u": args.u, "v": args.v, "z": args.z, "z2": args.z2,
               "entries": multiset_entries(forward)}
    if args.both:
        backward = compute(I, zp, z)
        payload["entries_reversed"] = multiset_entries(backward)
        payload["symmetric"] = forward == backward
    if args.format == "json":
        fh.write(json_line(payload) + "\n")
    else:
        fh.write(f"{payload['entries']}\n")
        if args.both:
            fh.write(f"{payload['entries_reversed']}\n")
            fh.write(("SYMMETRIC" if payload["symmetric"] else "ASYMMETRIC") + "\n")
    return EXIT_OK


def cmd_verify(args, fh) -> int:
    checks = tuple(ALL_CHECKS) if args.checks == "all" else tuple(args.checks.split(","))
    mode = args.mode or ("exhaustive" if args.n <= 4 else "sample")
    max_size = args.max_interval_size
    if max_size is None and mode == "sample" and args.n >= 6:
        max_size = 60
    cfg = SweepConfig(
        n=args.n,
        checks=checks,
        mode=mode,
        sample_size=args.sample_size,
        seed=args.seed,
        max_interval_size=max_size,
        timings=args.timings,
    )
    header, records, code = run_sweep(cfg)
    write_report(fh, header, records, args.format)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cache = None
    try:
        cache = _configure_cache(args)
        with _out_stream(args) as fh:
            if args.command == "rtilde":
                return cmd_rtilde(args, fh)
            if args.command == "inspect":
                return cmd_inspect(args, fh)
            if args.command == "shortcuts":
                return cmd_shortcuts(args, fh)
            if args.command == "ds":
                return _cmd_multiset(args, fh, ds_multiset)
            if args.command == "dh":
                return _cmd_multiset(args, fh, dh_multiset)
            if args.command == "verify":
                return cmd_verify(args, fh)
            raise ConfigError(f"unknown command {args.command!r}")
    except (ParseError, WordError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CacheError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        # the memo stays installed and readable; only its file is closed
        if cache is not None:
            cache.close()


if __name__ == "__main__":
    sys.exit(main())
