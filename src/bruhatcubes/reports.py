"""Report rendering: JSON lines (machine) or aligned text (human).

The JSON body is deterministic for a fixed configuration: keys are sorted
and the only timestamp lives in the header.
"""

from __future__ import annotations

import json
from typing import IO, Iterable


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line_encoder():
    """The function behind :func:`json_line`: ``_ENCODER.encode`` without
    the C encoder that ``encode`` builds anew for every object.  It is built
    once, from ``json.encoder.c_make_encoder`` with the arguments that
    ``encode`` passes; without that function, ``_ENCODER.encode`` itself."""
    module, e = json.encoder, _ENCODER
    if module.c_make_encoder is None:
        return e.encode
    markers: dict = {}
    strings = module.encode_basestring_ascii if e.ensure_ascii else module.encode_basestring
    encode = module.c_make_encoder(
        markers, e.default, strings, e.indent, e.key_separator, e.item_separator,
        e.sort_keys, e.skipkeys, e.allow_nan,
    )

    def json_line(obj: dict) -> str:
        try:
            return "".join(encode(obj, 0))
        except BaseException:
            # ``encode`` starts each object with new circular-reference
            # markers; a failed object can leave some behind in these
            markers.clear()
            raise

    return json_line


json_line = _line_encoder()


def text_line(rec: dict) -> str:
    parts = [rec.get("status", "?"), rec.get("check", "?")]
    if "u" in rec and "v" in rec:
        parts.append(f"[{rec['u']},{rec['v']}]")
    for key in ("z", "z2"):
        if key in rec:
            parts.append(f"{key}={rec[key]}")
    extras = {
        k: v
        for k, v in rec.items()
        if k not in {"status", "check", "n", "u", "v", "z", "z2", "fp"}
    }
    if extras:
        parts.append(json.dumps(extras, sort_keys=True, default=str))
    return " ".join(str(p) for p in parts)


def write_report(
    fh: IO[str], header: dict, records: Iterable[dict], fmt: str = "json"
) -> None:
    if fmt == "json":
        # imported here: only the JSON header carries a timestamp
        import datetime

        stamped = dict(header)
        stamped["created"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        fh.write(json_line(stamped) + "\n")
        for rec in records:
            fh.write(json_line(rec) + "\n")
    else:
        fh.write(f"# {json_line(header)}\n")
        counts: dict[str, int] = {}
        for rec in records:
            counts[rec.get("status", "?")] = counts.get(rec.get("status", "?"), 0) + 1
            fh.write(text_line(rec) + "\n")
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        fh.write(f"# summary: {summary}\n")
