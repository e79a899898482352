import json

import pytest

from bruhatcubes import reports
from bruhatcubes.sweep import SweepConfig, run_sweep


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def objects() -> list:
    """The header and one record of every kind, by check, status and keys,
    that an exhaustive S4 sweep of every check writes, and a record whose
    strings hold quotes, a backslash, a control character and non-ASCII."""
    header, records, _ = run_sweep(SweepConfig(n=4, mode="exhaustive"))
    kinds = {}
    for rec in records:
        kinds.setdefault((rec["check"], rec["status"], tuple(sorted(rec))), rec)
    assert len(kinds) >= 15
    odd = {"say \"hi\"": "back\\slash", "tab": "a\tb\x01", "é": ["Bruhat–Chevalley", 1.5, None]}
    return [header, *kinds.values(), odd]


@pytest.mark.parametrize("c_encoder", [True, False])
def test_json_line_matches_json_dumps(monkeypatch, objects, c_encoder):
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    for json_line in (reports.json_line, reports._line_encoder()):
        for obj in objects:
            assert json_line(obj) == _dumps(obj)


def test_json_line_after_a_failed_object():
    # the encoder is reused, so an object that fails must leave no
    # circular-reference marker behind for the next one
    rec = {"a": [object()]}
    with pytest.raises(TypeError):
        reports.json_line(rec)
    rec["a"][0] = 1
    assert reports.json_line(rec) == '{"a":[1]}'
