"""Command-line driver.

Commands: ``rtilde``, ``inspect``, ``shortcuts``, ``ds``, ``dh``, ``verify``.
Each takes ``--format`` and ``--output``; only ``rtilde`` and ``verify``, the
two that evaluate R-tilde, take ``--cache``/``--no-cache`` and read
``BRUHAT_CACHE``: ``rtilde`` only when it runs the recurrence (not under
``--method dyer``, which refuses both), and ``verify`` only when a selected
check evaluates R-tilde (``sweep.RTILDE_CHECKS``); without one, ``verify``
refuses ``--cache``, accepts ``--no-cache`` and installs no memo.
``--output`` is replaced only when the command returns.  Exit codes: 0
success, 1 a proved statement failed during verify, 2 Bruhat order error,
3 parse error, 4 I/O error, 5 bad configuration.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress

from .appendix import dh_multiset, is_cosimple
from .cache import PolyCache, default_cache_path
from .doubles import ds_multiset, multiset_entries
from .errors import CacheError, ConfigError, OrderError, ParseError, WordError
from .hcd import enumerate_hcds, shortcuts, standard_hcds
from .interval import interval
from .permutations import bruhat_leq, format_perm, format_reflection, parse_perm
from .polynomials import poly_str
from .reports import json_line, write_report
from .rpoly import (
    canonical_orders,
    reflection_order_from_word,
    rtilde,
    rtilde_dyer,
    set_cache,
)
from .sweep import ALL_CHECKS, RTILDE_CHECKS, SweepConfig, run_sweep, validate_config

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ORDER = 2
EXIT_PARSE = 3
EXIT_IO = 4
EXIT_CONFIG = 5


@contextmanager
def _memo(args):
    """The polynomial memo that ``args`` ask for, installed in place of the
    one it replaces, which is closed; its file is closed on exit, and the
    memo stays installed and readable.  A command installs it only once its
    options are read, so that a refused command creates no cache file."""
    cache = PolyCache(None if args.no_cache else args.cache or default_cache_path())
    set_cache(cache).close()
    try:
        yield
    finally:
        cache.close()


def _command(sub, name: str, help_text: str, run, *perms: str, reads_rtilde: bool = False):
    """The subparser of ``name``, which runs ``run(args, fh)``: the output
    options, a required window option for each of ``perms`` and, for a
    command that evaluates R-tilde, the memo options, which ``run`` reads
    through :func:`_memo`."""
    p = sub.add_parser(name, help=help_text)
    for perm in perms:
        p.add_argument(f"--{perm}", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output", metavar="PATH", help="write output here instead of stdout")
    if reads_rtilde:
        p.add_argument("--cache", metavar="PATH", help="polynomial cache file (default: $BRUHAT_CACHE)")
        p.add_argument("--no-cache", action="store_true", help="keep the polynomial memo in memory only")
    p.set_defaults(run=run)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bruhatcubes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "rtilde", "R-tilde polynomial of a pair", cmd_rtilde, "u", "v", reads_rtilde=True)
    p.add_argument("--method", choices=("recurrence", "dyer", "both"), default="recurrence")
    p.add_argument("--order-word", help="reduced word of the longest element, e.g. 1,2,1")

    p = _command(sub, "inspect", "summary of one interval", cmd_inspect, "u", "v")
    p.add_argument("--edges", action="store_true", help="also dump the labeled arrow list")

    _command(sub, "shortcuts", "shortcut set of an interval for z", cmd_shortcuts, "u", "v", "z")

    for name, what, compute in (("ds", "double-shortcut", ds_multiset), ("dh", "double-hypercube", dh_multiset)):
        help_text = f"{what} multiset for a pair of decompositions"
        p = _command(sub, name, help_text, _cmd_multiset, "u", "v", "z", "z2")
        p.add_argument("--both", action="store_true", help="also print the reversed pair and a symmetry verdict")
        p.set_defaults(compute=compute)

    p = _command(sub, "verify", "run verification sweeps and emit a report", cmd_verify, reads_rtilde=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--checks", default="all", help=f"comma list from: {', '.join(ALL_CHECKS)} (or 'all')")
    p.add_argument("--mode", choices=("exhaustive", "sample"), default=None)
    p.add_argument("--sample-size", type=int, default=50)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-interval-size", type=int)
    p.add_argument("--timings", action="store_true", help="include per-record timings (breaks byte-identical reports)")
    return parser


@contextmanager
def _out_stream(path: str | None):
    """The stream a command writes to: stdout as found now, or a new file
    beside ``path`` that replaces it, with its mode, only when the command
    returns, so that a command that raises leaves ``path`` as it was.  A
    path that is not a regular file (a device, a pipe) is written in place."""
    if not path:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    mode = os.stat(target).st_mode if os.path.exists(target) else None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as fh:
            yield fh
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
        os.replace(tmp, target)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _parse_pair(args):
    u = parse_perm(args.u)
    v = parse_perm(args.v)
    if len(u) != len(v):
        raise ParseError("u and v must have the same rank")
    if not bruhat_leq(u, v):
        raise OrderError(f"{args.u} is not below {args.v} in Bruhat order")
    return u, v


def cmd_rtilde(args, fh) -> int:
    if args.order_word is not None and args.method == "recurrence":
        raise ConfigError("--order-word is read only by --method dyer or both")
    if (args.cache is not None or args.no_cache) and args.method == "dyer":
        raise ConfigError("--cache and --no-cache are read only by --method recurrence or both")
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
    rec = None
    if args.method != "dyer":
        with _memo(args):
            rec = rtilde(u, v)
    if args.method == "recurrence":
        result = poly_str(rec)
    elif args.method == "dyer":
        result = poly_str(by_paths)
    else:
        verdict = "AGREE" if rec == by_paths else "DISAGREE"
        result = f"{poly_str(rec)} | {poly_str(by_paths)} | {verdict}"
    if args.format == "json":
        payload = {"u": args.u, "v": args.v, "method": args.method, "result": result}
        if rec is not None:
            payload["coeffs"] = list(rec)
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


def _cmd_multiset(args, fh) -> int:
    u, v = _parse_pair(args)
    z = parse_perm(args.z)
    zp = parse_perm(args.z2)
    I = interval(u, v)
    forward = args.compute(I, z, zp)
    payload = {"u": args.u, "v": args.v, "z": args.z, "z2": args.z2,
               "entries": multiset_entries(forward)}
    if args.both:
        backward = args.compute(I, zp, z)
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
    validate_config(cfg)
    reads_rtilde = any(check in RTILDE_CHECKS for check in checks)
    if args.cache is not None and not reads_rtilde:
        raise ConfigError(
            f"--cache is read only by the checks that evaluate R-tilde: {', '.join(RTILDE_CHECKS)}"
        )
    with _memo(args) if reads_rtilde else nullcontext():
        header, records, code = run_sweep(cfg)
    write_report(fh, header, records, args.format)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _out_stream(args.output) as fh:
            return args.run(args, fh)
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


if __name__ == "__main__":
    sys.exit(main())
