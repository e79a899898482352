"""Persistent memo for R-tilde polynomials.

The on-disk format is JSON lines: a header ``{"cache_version": 2}`` followed
by one record per entry, e.g.::

    {"n": 4, "u": "1234", "v": "4321", "coeffs": [0, 0, 1, 0, 3, 0, 1], "crc": 3400976302}

``crc`` is the ``zlib.crc32`` of the record's own text up to the comma before
``"crc"``, so an edited record fails its check on load instead of silently
changing results.  It detects edits and damage, not forgeries: anyone who
edits a record can recompute its crc.  Files of version 1, whose records have
no crc, still load, unchecked, and are appended to in their own format.

New entries are appended as they are computed, so interrupted sweeps keep
their work.  An unterminated last line that does not parse or fails its
check, as an interrupted append leaves it, is cut off when the file is
opened; a bad line anywhere else is an error.

The environment variable ``BRUHAT_CACHE`` supplies the command line's default
path (``--cache PATH``); only ``cli._configure_cache`` reads it, so importing
the package opens no file.  An empty value counts as unset.
"""

from __future__ import annotations

import json
import os
import threading
import zlib

from .errors import CacheError
from .permutations import Perm, format_perm, parse_perm
from .polynomials import QPoly

CACHE_VERSION = 2
READABLE_VERSIONS = (1, 2)
ENV_VAR = "BRUHAT_CACHE"
_CRC = ', "crc": '


class PolyCache:
    """Dict-backed polynomial memo, optionally mirrored to a JSON-lines file.

    Reads are plain dict lookups; writes are serialized by a lock.
    """

    def __init__(self, path: str | None = None):
        self._memo: dict[tuple[Perm, Perm], QPoly] = {}
        self._lock = threading.Lock()
        self._path = path
        self._fh = None
        self._version = CACHE_VERSION
        if path is not None:
            self._open(path)

    def _open(self, path: str) -> None:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            with open(path, "r", encoding="utf-8") as fh:
                header_line = fh.readline()
                try:
                    header = json.loads(header_line)
                    version = self._version = header.get("cache_version")
                except (json.JSONDecodeError, AttributeError) as exc:
                    raise CacheError(f"{path}: bad cache header") from exc
                if version not in READABLE_VERSIONS:
                    raise CacheError(f"{path}: unsupported cache_version {version}")
                windows: dict[str, Perm] = {}

                def window(text: str) -> Perm:
                    # each distinct window is parsed and validated once per load
                    w = windows.get(text)
                    if w is None:
                        w = windows[text] = parse_perm(text)
                    return w

                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        if version >= 2:
                            _check_crc(line)
                        rec = json.loads(line)
                        key = (window(rec["u"]), window(rec["v"]))
                        self._memo[key] = tuple(map(int, rec["coeffs"]))
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                        if next(fh, None) is None and _drop_torn_tail(path):
                            break
                        raise CacheError(f"{path}: bad cache record {line!r} ({exc})") from exc
            self._fh = open(path, "a", encoding="utf-8")
            if not _ends_with_newline(path):
                # a whole last record without its line break: end it, so
                # that the next append starts a line of its own
                self._fh.write("\n")
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
                body = (
                    f'{{"n": {len(u)}, "u": "{format_perm(u)}", "v": "{format_perm(v)}", '
                    f'"coeffs": [{", ".join(map(str, poly))}]'
                )
                if self._version >= 2:
                    body = f"{body}{_CRC}{zlib.crc32(body.encode())}"
                self._fh.write(body + "}\n")
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _check_crc(line: str) -> None:
    """Raise ValueError unless ``line`` ends in the crc of its own text."""
    body, sep, crc = line.rpartition(_CRC)
    if not sep or not crc.endswith("}") or zlib.crc32(body.encode()) != int(crc[:-1]):
        raise ValueError("checksum mismatch")


def _ends_with_newline(path: str) -> bool:
    with open(path, "rb") as fh:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1) == b"\n"


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
    """The path named by ``BRUHAT_CACHE``, or None when it is unset or empty."""
    return os.environ.get(ENV_VAR) or None
