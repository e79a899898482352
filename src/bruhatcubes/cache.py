"""Persistent memo for R-tilde polynomials.

The on-disk format is JSON lines: a header ``{"cache_version": 1}`` followed
by one record per entry, e.g.::

    {"n": 4, "u": "1234", "v": "4321", "coeffs": [0, 2, 0, 3, 0, 1]}

New entries are appended as they are computed, so interrupted sweeps keep
their work.  An unterminated last line that does not parse, as an interrupted
append leaves it, is cut off when the file is opened; a bad line anywhere else
is an error.  The environment variable ``BRUHAT_CACHE`` supplies a default
path when none is configured explicitly.
"""

from __future__ import annotations

import json
import os
import threading

from .errors import CacheError
from .permutations import Perm, format_perm, parse_perm
from .polynomials import QPoly

CACHE_VERSION = 1
ENV_VAR = "BRUHAT_CACHE"


class PolyCache:
    """Dict-backed polynomial memo, optionally mirrored to a JSON-lines file.

    Reads are plain dict lookups; writes are serialized by a lock.
    """

    def __init__(self, path: str | None = None):
        self._memo: dict[tuple[Perm, Perm], QPoly] = {}
        self._lock = threading.Lock()
        self._path = path
        self._fh = None
        if path is not None:
            self._open(path)

    def _open(self, path: str) -> None:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "r", encoding="utf-8") as fh:
                header_line = fh.readline()
                try:
                    header = json.loads(header_line)
                except json.JSONDecodeError as exc:
                    raise CacheError(f"{path}: bad cache header") from exc
                if header.get("cache_version") != CACHE_VERSION:
                    raise CacheError(f"{path}: unsupported cache_version {header.get('cache_version')}")
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        key = (parse_perm(rec["u"]), parse_perm(rec["v"]))
                        self._memo[key] = tuple(int(c) for c in rec["coeffs"])
                    except (json.JSONDecodeError, KeyError, ValueError) as exc:
                        if next(fh, None) is None and _drop_torn_tail(path):
                            break
                        raise CacheError(f"{path}: bad cache record {line!r}") from exc
            self._fh = open(path, "a", encoding="utf-8")
        else:
            self._fh = open(path, "w", encoding="utf-8")
            self._fh.write(json.dumps({"cache_version": CACHE_VERSION}) + "\n")
            self._fh.flush()

    @property
    def path(self) -> str | None:
        return self._path

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, u: Perm, v: Perm) -> QPoly | None:
        return self._memo.get((u, v))

    def put(self, u: Perm, v: Perm, poly: QPoly) -> None:
        with self._lock:
            if (u, v) in self._memo:
                return
            self._memo[(u, v)] = poly
            if self._fh is not None:
                rec = {
                    "n": len(u),
                    "u": format_perm(u),
                    "v": format_perm(v),
                    "coeffs": list(poly),
                }
                self._fh.write(json.dumps(rec) + "\n")
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _drop_torn_tail(path: str) -> bool:
    """Truncate the file after its last line break, dropping the unterminated
    line that an interrupted append leaves; False if the file ends whole."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n"):
            return False
        fh.truncate(data.rfind(b"\n") + 1)
        return True


def default_cache_path() -> str | None:
    return os.environ.get(ENV_VAR)
