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

A record must be spelled exactly as ``PolyCache.store`` writes it: these keys
in this order, ``", "`` and ``": "`` as separators, numbers as digits without
leading zeros, windows as ``format_perm`` spells them, ``n`` the length of
both windows, and coefficients normalized (the list does not end in 0).
Only the header is read as JSON; a record that is valid JSON but spelled
otherwise is a bad record.

New records are queued and appended in batches of ``BATCH`` records, each
batch in one write, and the last partial batch at ``close`` (or
``flush``).  An interrupted sweep keeps every batch written; the command
line closes its memo also when a command raises or is interrupted, so only
a hard kill loses work, at most one batch, which the next run recomputes.
An unterminated last line that is not such a record or fails its check, as
a write cut off mid-batch leaves it, is cut off when the file is opened; a
bad line anywhere else is an error.

In memory the memo numbers the windows of each rank in the order it meets
them (:class:`Rank`).  Each id keeps its window, its rank-matrix code (which
also rejects a non-window), its last right descent, the ids of w*s_i as the
recurrence asks for them, its file spelling and its row ``{u id: poly}`` of
the pairs with that top: rows by top id, with no pair tuple per entry.  Every
polynomial the memo stores, computed or loaded, goes through one intern
table, so the memo holds one object per distinct window and polynomial: all
of S6 keeps 720 windows and 81 polynomials.

The numbering is the memo's own, not the ids of ``interval.rank_index``: it
needs no index, so ``rpoly.rtilde`` runs at ranks above ``MAX_RANK`` too,
and the recurrence shares no table with the label passes of
``rpoly.rtilde_dyer``, the route it is checked against.

The environment variable ``BRUHAT_CACHE`` supplies the command line's default
path (``--cache PATH``) of ``rtilde`` and ``verify``; only the command line
reads it, when one of those two commands runs, so importing the package
opens no file.  An empty value counts as unset.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from functools import partial

from .errors import CacheError
from .permutations import Perm, _rank_code, format_perm, parse_perm
from .polynomials import QPoly

CACHE_VERSION = 2
ENV_VAR = "BRUHAT_CACHE"
# records queued before the memo writes them to its file in one call
BATCH = 512

_NUM = rb"(?:[1-9][0-9]*|0)"
# one record exactly as ``store`` spells it; group 1 is the text its crc covers,
# then the rank, the windows u and v, the coefficient list and the crc
_RECORD = re.compile(
    rb'(\{"n": (%s), "u": "([0-9,]+)", "v": "([0-9,]+)", "coeffs": \[((?:%s(?:, %s)*)?)\])'
    rb', "crc": (%s)\}' % (_NUM, _NUM, _NUM, _NUM)
)


class PolyCache:
    """Polynomial memo in rows by top id, optionally mirrored to a JSON-lines file."""

    def __init__(self, path: str | None = None):
        # the window numbering of each rank, made on first use
        self.ranks: dict[int, Rank] = _Made(Rank)
        # one object per distinct polynomial, computed or loaded
        self._polys: dict[QPoly, QPoly] = {}
        # R-tilde(us, vs) + q R-tilde(u, vs) of the recurrence, keyed by the
        # pair of shared summands: 150 distinct sums make all of S6
        self.sums: dict[tuple[QPoly, QPoly], QPoly] = {}
        # the file spelling of each polynomial written
        self._spelled = _Made(lambda poly: ", ".join(map(str, poly)))
        self._path = path
        self._fh = None
        # records stored since the last write, in order
        self._queue: list[bytes] = []
        if path is not None:
            self._open(path)

    def _open(self, path: str) -> None:
        if os.path.exists(path) and os.path.getsize(path) > 0:
            ended = self._load(path)
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

            def rank_of(text: bytes):
                # the window ids and the rows of rank ``text``
                rank = self.ranks[int(text)]
                return _Made(partial(_window_id, rank)), rank.rows

            # each distinct rank, window and coefficient list is parsed once
            # per load
            ranks = _Made(rank_of)
            polys = _Made(lambda text: self.share(_coeffs(text)))
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
                    ids, rows = ranks[m[2]]
                    rows[ids[m[4]]][ids[m[3]]] = polys[m[5]]
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
        return sum(len(row) for rank in self.ranks.values() for row in rank.rows)

    def share(self, poly: QPoly) -> QPoly:
        """The memo's one object equal to ``poly``."""
        return self._polys.setdefault(poly, poly)

    def get(self, u: Perm, v: Perm) -> QPoly | None:
        rank = self.ranks.get(len(v))
        if rank is None or len(u) != len(v):
            return None
        ui, vi = rank.ids.get(u), rank.ids.get(v)
        return None if ui is None or vi is None else rank.rows[vi].get(ui)

    def put(self, u: Perm, v: Perm, poly: QPoly) -> QPoly:
        """Store ``poly`` for (u, v) and queue its record for the file (see
        ``store``); returns the memo's shared tuple of the pair, the one
        already stored (and nothing queued) when the pair is known.  Raises
        ValueError, storing nothing, unless u and v are windows of one rank."""
        if len(u) != len(v):
            raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
        rank = self.ranks[len(v)]
        ui, vi = rank.id(u), rank.id(v)
        stored = rank.rows[vi].get(ui)
        if stored is not None:
            return stored
        return self.store(rank, ui, vi, self.share(poly))

    def store(self, rank: Rank, u: int, v: int, poly: QPoly) -> QPoly:
        """Store the shared ``poly`` for the ids (u, v), a pair the memo does
        not hold yet, and queue its record for the file, which is written
        when ``BATCH`` records are queued; returns ``poly``."""
        rank.rows[v][u] = poly
        if self._fh is not None:
            spellings = rank.spellings
            body = (
                f'{{"n": {rank.n}, "u": "{spellings[u]}", "v": "{spellings[v]}", '
                f'"coeffs": [{self._spelled[poly]}]'
            ).encode()
            queue = self._queue
            queue.append(body + b', "crc": %d}\n' % zlib.crc32(body))
            if len(queue) == BATCH:
                self.flush()
        return poly

    def flush(self) -> None:
        """Write the queued records to the file in one write.  The queue is
        emptied first: records of a batch that fails to write stay in the
        memo but not in the file, and the next run recomputes them."""
        if self._queue:
            data = b"".join(self._queue)
            self._queue.clear()
            self._write(data)

    def _write(self, data: bytes) -> None:
        """Hand ``data`` to the OS in one unbuffered write; a short write is
        taken back and raised, so no partial line stays in the file."""
        written = self._fh.write(data) or 0
        if written != len(data):
            self._fh.truncate(self._fh.tell() - written)
            raise OSError(f"{self._path}: wrote {written} of {len(data)} bytes")

    def close(self) -> None:
        """Write the last partial batch and close the file; the memo stays
        readable, and stores no more records in the file.  The file is
        closed also when that write fails."""
        if self._fh is not None:
            try:
                self.flush()
            finally:
                self._fh.close()
                self._fh = None


class Rank:
    """The windows of rank n that a memo has met, numbered 0, 1, ... in the
    order met.  Each id has its window, its rank-matrix code, its last right
    descent (0 for the identity), the ids of w*s_i as far as asked for
    (``moves[id][i]``, None until then), its file spelling and its row
    ``{u id: poly}`` of the pairs with this top.  ``recurrence`` is
    ``rpoly``'s R-tilde on these ids, made on first use."""

    __slots__ = ("n", "ids", "windows", "codes", "descents", "moves", "spellings", "rows", "recurrence")

    def __init__(self, n: int):
        self.n = n
        self.ids: dict[Perm, int] = {}
        self.windows: list[Perm] = []
        self.codes: list[int] = []
        self.descents: list[int] = []
        self.moves: list[list[int | None]] = []
        self.spellings: list[str] = []
        self.rows: list[dict[int, QPoly]] = []
        self.recurrence = None

    def id(self, w: Perm) -> int:
        """The id of the window w, numbered now if it is new; raises
        ValueError for anything but a window of rank n."""
        i = self.ids.get(w)
        if i is not None:
            return i
        n = self.n
        if len(w) != n or not n:
            raise ValueError(f"not a permutation window of rank {n}: {w}")
        code = _rank_code(w)  # raises ValueError for a non-window
        i = self.ids[w] = len(self.windows)
        d = n - 1
        while d and w[d - 1] < w[d]:
            d -= 1
        self.windows.append(w)
        self.codes.append(code)
        self.descents.append(d)
        self.moves.append([None] * n)
        self.spellings.append(format_perm(w))
        self.rows.append({})
        return i

    def move(self, w: int, i: int) -> int:
        """The id of w*s_i, recorded in ``moves``."""
        x = list(self.windows[w])
        x[i - 1], x[i] = x[i], x[i - 1]
        j = self.moves[w][i] = self.id(tuple(x))
        return j


class _Made(dict):
    """``{key: make(key)}``, made on the first lookup of each key."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(key)
        return value


def _window_id(rank: Rank, text: bytes) -> int:
    """The id in ``rank`` of the window spelled ``text``."""
    w = parse_perm(text.decode())
    if format_perm(w).encode() != text:
        raise ValueError(f"window {text.decode()!r} is not spelled as written")
    if len(w) != rank.n:
        raise ValueError("rank n does not match the windows")
    return rank.id(w)


def _coeffs(text: bytes) -> QPoly:
    poly = tuple(map(int, text.split(b", "))) if text else ()
    if poly and not poly[-1]:
        raise ValueError("coefficients are not normalized (the last one is 0)")
    return poly


def default_cache_path() -> str | None:
    """The path named by ``BRUHAT_CACHE``, or None when it is unset or empty."""
    return os.environ.get(ENV_VAR) or None
