"""Persistent memo for R-tilde polynomials.

The on-disk format is JSON lines: a header ``{"cache_version": 2}`` followed
by one record per entry, e.g.::

    {"n": 4, "u": "1234", "v": "4321", "coeffs": [0, 0, 1, 0, 3, 0, 1], "crc": 3400976302}

``crc`` is the ``zlib.crc32`` of the record's own text up to the comma before
``"crc"``, so an edited record fails its check on load instead of silently
changing results.  It detects edits and damage, not forgeries: anyone who
edits a record can recompute its crc.  A header other than the integer 2,
including the crc-less version 1 of earlier releases, is refused: delete such
a file and it is rebuilt.

A record must be spelled exactly as ``PolyCache.put`` writes it: these keys
in this order, ``", "`` and ``": "`` as separators, numbers as digits without
leading zeros, windows as ``format_perm`` spells them, ``n`` the length of
both windows, and coefficients normalized (the list does not end in 0).
Only the header is read as JSON; a record that is valid JSON but spelled
otherwise is a bad record.

New entries are appended as they are computed, so interrupted sweeps keep
their work.  An unterminated last line that is not such a record or fails
its check, as an interrupted append leaves it, is cut off when the file is
opened; a bad line anywhere else is an error.

In memory the entries are rows by top, ``{v: {u: poly}}``, with no pair
tuple per entry.  Every window and polynomial the memo stores, computed or
loaded, goes through one intern table, so the memo holds one object per
distinct value: all of S6 keeps 720 windows and 81 polynomials.

The environment variable ``BRUHAT_CACHE`` supplies the command line's default
path (``--cache PATH``); only ``cli._configure_cache`` reads it, so importing
the package opens no file.  An empty value counts as unset.
"""

from __future__ import annotations

import json
import os
import re
import zlib

from .errors import CacheError
from .permutations import Perm, format_perm, parse_perm
from .polynomials import QPoly

CACHE_VERSION = 2
ENV_VAR = "BRUHAT_CACHE"

_NUM = rb"(?:[1-9][0-9]*|0)"
# one record exactly as ``put`` spells it; group 1 is the text its crc covers,
# then the rank, the windows u and v, the coefficient list and the crc
_RECORD = re.compile(
    rb'(\{"n": (%s), "u": "([0-9,]+)", "v": "([0-9,]+)", "coeffs": \[((?:%s(?:, %s)*)?)\])'
    rb', "crc": (%s)\}' % (_NUM, _NUM, _NUM, _NUM)
)


class PolyCache:
    """Polynomial memo in rows by top, optionally mirrored to a JSON-lines file."""

    def __init__(self, path: str | None = None):
        self._rows: dict[Perm, dict[Perm, QPoly]] = {}
        # one object per distinct window and polynomial, computed or loaded
        self._shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._size = 0
        self._path = path
        self._fh = None
        if path is not None:
            self._open(path)

    def _open(self, path: str) -> None:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            ended = self._load(path)
            self._size = sum(map(len, self._rows.values()))
            self._fh = open(path, "ab", buffering=0)
            if not ended:
                # a whole last record without its line break: end it, so
                # that the next append starts a line of its own
                self._write(b"\n")
        else:
            self._fh = open(path, "wb", buffering=0)
            self._write(json.dumps({"cache_version": CACHE_VERSION}).encode() + b"\n")

    def _load(self, path: str) -> bool:
        """Read every record of the file into the memo in one pass; True when
        the file ends in a line break."""
        with open(path, "rb") as fh:
            line = fh.readline()
            try:
                version = json.loads(line).get("cache_version")
            except (ValueError, AttributeError) as exc:
                raise CacheError(f"{path}: bad cache header") from exc
            if type(version) is not int or version != CACHE_VERSION:
                raise CacheError(f"{path}: unsupported cache_version {version!r}")
            # each distinct window and coefficient list is parsed once per load
            windows = _Parsed(_window, self._shared)
            polys = _Parsed(_coeffs, self._shared)
            rows = self._rows
            match = _RECORD.fullmatch
            crc32 = zlib.crc32
            for line in fh:
                record = line.strip()
                if not record:
                    continue
                m = match(record)
                try:
                    if m is None:
                        raise ValueError("not spelled as the cache writes records")
                    if crc32(m[1]) != int(m[6]):
                        raise ValueError("checksum mismatch")
                    u, v = windows[m[3]], windows[m[4]]
                    if not len(u) == len(v) == int(m[2]):
                        raise ValueError("rank n does not match the windows")
                    row = rows.get(v)
                    if row is None:
                        row = rows[v] = {}
                    row[u] = polys[m[5]]
                except ValueError as exc:
                    if not line.endswith(b"\n"):
                        # only the last line lacks its line break: this is the
                        # torn tail an interrupted append leaves, so cut it off
                        os.truncate(path, fh.tell() - len(line))
                        return True
                    text = record.decode(errors="backslashreplace")
                    raise CacheError(f"{path}: bad cache record {text!r} ({exc})") from exc
            return line.endswith(b"\n")

    @property
    def path(self) -> str | None:
        return self._path

    def __len__(self) -> int:
        return self._size

    def get(self, u: Perm, v: Perm) -> QPoly | None:
        row = self._rows.get(v)
        return None if row is None else row.get(u)

    def put(self, u: Perm, v: Perm, poly: QPoly) -> QPoly:
        """Store ``poly`` for (u, v) and append it to the file; returns the
        memo's shared tuple of the pair, the one already stored (and nothing
        appended) when the pair is known."""
        share = self._shared.setdefault
        row = self._rows.get(v)
        if row is None:
            row = self._rows[share(v, v)] = {}
        else:
            stored = row.get(u)
            if stored is not None:
                return stored
        shared = row[share(u, u)] = share(poly, poly)
        self._size += 1
        if self._fh is not None:
            body = (
                f'{{"n": {len(u)}, "u": "{format_perm(u)}", "v": "{format_perm(v)}", '
                f'"coeffs": [{", ".join(map(str, poly))}]'
            ).encode()
            self._write(body + b', "crc": %d}\n' % zlib.crc32(body))
        return shared

    def _write(self, data: bytes) -> None:
        """Hand ``data`` to the OS in one unbuffered write; a short write is
        taken back and raised, so no partial line stays in the file."""
        written = self._fh.write(data) or 0
        if written != len(data):
            self._fh.truncate(self._fh.tell() - written)
            raise OSError(f"{self._path}: wrote {written} of {len(data)} bytes")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class _Parsed(dict):
    """``{text: value}`` that parses each text on its first lookup only and
    takes the value's object from the intern table ``shared``."""

    def __init__(self, parse, shared: dict):
        super().__init__()
        self._parse = parse
        self._shared = shared

    def __missing__(self, text: bytes):
        value = self._parse(text)
        value = self[text] = self._shared.setdefault(value, value)
        return value


def _window(text: bytes) -> Perm:
    w = parse_perm(text.decode())
    if format_perm(w).encode() != text:
        raise ValueError(f"window {text.decode()!r} is not spelled as written")
    return w


def _coeffs(text: bytes) -> QPoly:
    poly = tuple(map(int, text.split(b", "))) if text else ()
    if poly and not poly[-1]:
        raise ValueError("coefficients are not normalized (the last one is 0)")
    return poly


def default_cache_path() -> str | None:
    """The path named by ``BRUHAT_CACHE``, or None when it is unset or empty."""
    return os.environ.get(ENV_VAR) or None
