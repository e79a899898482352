"""Per-layer tracing of the program, installed from outside it.

The tracer replaces public functions of each ``bruhatcubes`` module with
wrappers that count calls and, for the functions named in ``_TIMED``, keep
self time: a call's own time minus the time of the wrapped calls nested in
it.  Hot primitives (``length``, ``rtilde``'s recursion, cache lookups) are
counted, not timed, and ``functools.lru_cache`` memos report their own
``cache_info()``.

Modules bind names with ``from .x import f``, so a wrapper must replace the
function in every module namespace that holds it; ``_patch`` does that.  The
package-level ``interval`` function shadows the ``bruhatcubes.interval``
submodule, so modules are looked up in ``sys.modules``.
"""

from __future__ import annotations

import os
import resource
import sys
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

_PACKAGE = "bruhatcubes"

# (module, function, layer name): wrapped with self-time accounting.  Several
# functions may share a layer name; a call nested in another call of the same
# name is counted but not timed again, so recursion is timed once.
_TIMED = (
    ("rpoly", "rtilde", "rpoly.rtilde"),
    ("rpoly", "rtilde_dyer", "rpoly.rtilde_dyer"),
    ("rpoly", "canonical_orders", "rpoly.orders"),
    ("rpoly", "constrained_orders", "rpoly.orders"),
    ("rpoly", "reflection_order_from_word", "rpoly.orders"),
    ("hcd", "spans_hypercube", "hcd.spans_hypercube"),
    ("hcd", "is_upper_hcd", "hcd.is_upper_hcd"),
    ("hcd", "is_amazing", "hcd.is_amazing"),
    ("hcd", "shortcuts", "hcd.shortcuts"),
    ("hcd", "join", "hcd.join"),
    ("doubles", "ds_multiset", "doubles.ds_multiset"),
    ("doubles", "verify_bologna", "doubles.verify_bologna"),
    ("doubles", "equivalence_classes", "doubles.equivalence_classes"),
    ("appendix", "antichain_hypercubes", "appendix.antichain_hypercubes"),
    ("appendix", "dh_multiset", "appendix.dh_multiset"),
    ("appendix", "verify_lemma_incpaths", "appendix.verify_lemma_incpaths"),
    ("appendix", "is_cosimple", "appendix.is_cosimple"),
    ("sweep", "product_records", "sweep.product"),
    ("cli", "main", "cli.main"),
)

# Interval properties computed once per interval: (attribute, layer name).
_CACHED_PROPERTIES = (
    ("up", "interval.order"),
    ("down", "interval.order"),
    ("_graph", "interval.graph"),
    ("dist", "interval.dist"),
)


def _module(name: str):
    return sys.modules[f"{_PACKAGE}.{name}"]


def _package_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == _PACKAGE or key.startswith(_PACKAGE + "."))
    ]


def _patch(original, replacement) -> None:
    """Rebind every module-level name that holds ``original``."""
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _rusage_cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.values: defaultdict = defaultdict(float)
        self._frames: list = []
        self._active: Counter = Counter()
        self._lru_before: dict = {}
        self._cache_files: dict = {}

    # ---- wrappers -------------------------------------------------------

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn``: count calls and keep self time under ``name``.
        ``after(args, kwargs, result)`` runs after each outermost call."""
        calls, active, frames = self.calls, self._active, self._frames
        self_time = self.self_time

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                active[name] -= 1
                self_time[name] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn, after=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the program's layers; call once, after importing it."""
        permutations = _module("permutations")
        interval_mod = _module("interval")
        rpoly = _module("rpoly")
        cache = _module("cache")
        hcd = _module("hcd")
        sweep = _module("sweep")

        values, calls = self.values, self.calls

        def paths(args, kwargs, result):
            values["rpoly.paths"] += sum(result)

        after = {"rpoly.rtilde_dyer": paths}
        for mod_name, fn_name, name in _TIMED:
            original = getattr(_module(mod_name), fn_name)
            _patch(original, self.timed(name, original, after.get(name)))

        _patch(permutations.length, self.counted("permutations.length", permutations.length))

        # interval construction, and the permutations that the membership
        # scans of Interval(u, v) and interval_size(u, v) examine
        active = self._active
        all_perms = permutations.all_perms

        def scan(n):
            perms = all_perms(n)
            if active["interval.build"] or active["interval.interval_size"]:
                return self._scanned(perms)
            return perms

        setattr(interval_mod, "all_perms", scan)
        Interval = interval_mod.Interval
        Interval.__init__ = self.timed("interval.build", Interval.__init__)
        interval_size = interval_mod.interval_size

        def sized(u, v):
            calls["interval.interval_size"] += 1
            active["interval.interval_size"] += 1
            try:
                return interval_size(u, v)
            finally:
                active["interval.interval_size"] -= 1

        _patch(interval_size, sized)
        for attr, name in _CACHED_PROPERTIES:
            prop = Interval.__dict__[attr]
            wrapped = cached_property(self.timed(name, prop.func))
            wrapped.__set_name__(Interval, attr)
            setattr(Interval, attr, wrapped)

        # the persistent polynomial memo
        PolyCache = cache.PolyCache
        PolyCache.__init__ = self.timed("cache.load", PolyCache.__init__, self._loaded)
        PolyCache.put = self.timed("cache.put", PolyCache.put)
        get = PolyCache.get

        def counted_get(memo, u, v):
            calls["cache.get"] += 1
            poly = get(memo, u, v)
            if poly is not None:
                calls["cache.get.hits"] += 1
            return poly

        PolyCache.get = counted_get
        self._watch_file(rpoly.get_cache())

        # sweep dispatch: the check table is read by name at run time
        for check, fn in list(sweep._CHECK_FUNCS.items()):
            sweep._CHECK_FUNCS[check] = self.timed(f"sweep.check.{check}", fn)
        _patch(sweep.sweep_pairs, self.counted("sweep.sweep_pairs", sweep.sweep_pairs, self._pairs))
        sample_pairs = sweep.sample_pairs

        def counted_sample(*args, **kwargs):
            drawn = self.calls["interval.interval_size"]
            result = sample_pairs(*args, **kwargs)
            self.values["sweep.sample.accepted"] += len(result)
            self.values["sweep.sample.drawn"] += self.calls["interval.interval_size"] - drawn
            return result

        _patch(sample_pairs, counted_sample)
        run_sweep = sweep.run_sweep

        def traced_sweep(cfg):
            cpu = _rusage_cpu()
            header, records, code = run_sweep(cfg)
            self.values["sweep.cpu_s"] += _rusage_cpu() - cpu
            self.values["sweep.workers"] = max(self.values["sweep.workers"], cfg.threads)
            self.values["sweep.records"] += len(records)
            return header, records, code

        _patch(run_sweep, traced_sweep)
        write_report = _module("reports").write_report

        def measured_write(fh, *args, **kwargs):
            start = fh.tell() if fh.seekable() else None
            write_report(fh, *args, **kwargs)
            if start is not None:
                values["reports.bytes"] += fh.tell() - start

        _patch(write_report, self.timed("reports.write", measured_write))

        # lru_cache memos: read their counters as deltas from here on
        self._lru = {
            "permutations.bruhat_leq": permutations.bruhat_leq,
            "interval.interval": interval_mod.interval,
            "hcd.lower_neighbors": hcd.lower_neighbors,
            "hcd.spans_hypercube": _unwrap(hcd.spans_hypercube),
        }
        self._hcd_memos = [
            fn
            for fn in map(_unwrap, vars(hcd).values())
            if hasattr(fn, "cache_info") and fn.__module__ == hcd.__name__
        ]
        for name, fn in self._lru.items():
            self._lru_before[name] = fn.cache_info()

    def _scanned(self, perms):
        count = 0
        try:
            for perm in perms:
                count += 1
                yield perm
        finally:
            self.values["interval.scanned"] += count

    def _loaded(self, args, kwargs, result) -> None:
        memo = args[0]
        if memo.path is not None:
            self.values["cache.entries_loaded"] += len(memo)
        self._watch_file(memo)

    def _watch_file(self, memo) -> None:
        path = memo.path
        if path is not None and path not in self._cache_files:
            self._cache_files[path] = os.path.getsize(path)

    def _pairs(self, args, kwargs, result) -> None:
        self.values["sweep.pairs"] += len(result)

    # ---- report -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer value, keyed by the benchmark's metric names."""
        calls, self_time, values = self.calls, self.self_time, self.values
        lru = {}
        for name, fn in self._lru.items():
            before, after = self._lru_before[name], fn.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            lru[name] = (hits, misses, after.currsize)

        def hit_ratio(name):
            hits, misses, _ = lru[name]
            return hits / (hits + misses) if hits + misses else 0.0

        appended = sum(
            os.path.getsize(path) - size
            for path, size in self._cache_files.items()
            if os.path.exists(path)
        )
        gets = calls["cache.get"]
        drawn = values["sweep.sample.drawn"]
        out = {
            "permutations.length.calls": calls["permutations.length"],
            "permutations.bruhat_leq.calls": sum(lru["permutations.bruhat_leq"][:2]),
            "permutations.bruhat_leq.hit_ratio": hit_ratio("permutations.bruhat_leq"),
            "interval.built": calls["interval.build"],
            "interval.scanned": values["interval.scanned"],
            "interval.build_s": self_time["interval.build"],
            "interval.interval_size.calls": calls["interval.interval_size"],
            "interval.order_s": self_time["interval.order"],
            "interval.graph_s": self_time["interval.graph"],
            "interval.dist_s": self_time["interval.dist"],
            "interval.memo_size": lru["interval.interval"][2],
            "rpoly.rtilde.calls": calls["rpoly.rtilde"],
            "rpoly.rtilde.computed": calls["cache.put"],
            "rpoly.rtilde_s": self_time["rpoly.rtilde"],
            "rpoly.rtilde_dyer_s": self_time["rpoly.rtilde_dyer"],
            "rpoly.paths": values["rpoly.paths"],
            "rpoly.orders_s": self_time["rpoly.orders"],
            "cache.load_s": self_time["cache.load"],
            "cache.entries_loaded": values["cache.entries_loaded"],
            "cache.put.calls": calls["cache.put"],
            "cache.put_s": self_time["cache.put"],
            "cache.appended_bytes": appended,
            "cache.hit_ratio": calls["cache.get.hits"] / gets if gets else 0.0,
            "hcd.spans_hypercube.calls": calls["hcd.spans_hypercube"],
            "hcd.spans_hypercube.searches": lru["hcd.spans_hypercube"][1],
            "hcd.spans_hypercube_s": self_time["hcd.spans_hypercube"],
            "hcd.lower_neighbors.hit_ratio": hit_ratio("hcd.lower_neighbors"),
            "hcd.is_upper_hcd_s": self_time["hcd.is_upper_hcd"],
            "hcd.is_amazing_s": self_time["hcd.is_amazing"],
            "hcd.shortcuts_s": self_time["hcd.shortcuts"],
            "hcd.join_s": self_time["hcd.join"],
            "hcd.memo_entries": sum(fn.cache_info().currsize for fn in self._hcd_memos),
            "doubles.ds_multiset_s": self_time["doubles.ds_multiset"],
            "doubles.verify_bologna_s": self_time["doubles.verify_bologna"],
            "doubles.equivalence_classes_s": self_time["doubles.equivalence_classes"],
            "appendix.antichain_hypercubes_s": self_time["appendix.antichain_hypercubes"],
            "appendix.dh_multiset_s": self_time["appendix.dh_multiset"],
            "appendix.verify_lemma_incpaths_s": self_time["appendix.verify_lemma_incpaths"],
            "appendix.is_cosimple_s": self_time["appendix.is_cosimple"],
            "sweep.pairs": values["sweep.pairs"],
            "sweep.records": values["sweep.records"],
            "sweep.sample.acceptance": values["sweep.sample.accepted"] / drawn if drawn else 0.0,
            "sweep.product_s": self_time["sweep.product"],
            "sweep.cpu_s": values["sweep.cpu_s"],
            "sweep.workers": values["sweep.workers"],
            "reports.write_s": self_time["reports.write"],
            "reports.bytes": values["reports.bytes"],
            "cli.main_s": self_time["cli.main"],
        }
        for check in _module("sweep")._CHECK_FUNCS:
            out[f"sweep.check.{check}_s"] = self_time[f"sweep.check.{check}"]
        return out


def _unwrap(fn):
    return getattr(fn, "__wrapped__", fn) if not hasattr(fn, "cache_info") else fn
