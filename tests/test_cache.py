import hashlib
import json
import zlib

import pytest

from bruhatcubes.cache import CACHE_VERSION, PolyCache, default_cache_path
from bruhatcubes.errors import CacheError
from bruhatcubes.permutations import all_perms, identity, longest_element
from bruhatcubes.rpoly import get_cache, rtilde, set_cache


@pytest.fixture
def fresh_cache():
    old = set_cache(PolyCache(None))
    yield get_cache()
    set_cache(old)


def test_memory_cache_roundtrip(fresh_cache):
    u, v = identity(3), longest_element(3)
    assert rtilde(u, v) == (0, 1, 0, 1)
    assert fresh_cache.get(u, v) == (0, 1, 0, 1)
    assert len(fresh_cache) > 0


def test_file_cache_roundtrip(tmp_path):
    path = tmp_path / "poly.jsonl"
    installed = PolyCache(str(path))
    old = set_cache(installed)
    try:
        u, v = identity(4), longest_element(4)
        first = rtilde(u, v)
    finally:
        set_cache(old)
        installed.close()
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"cache_version": CACHE_VERSION}
    records = [json.loads(line) for line in lines[1:]]
    assert any(r["u"] == "1234" and r["v"] == "4321" for r in records)
    # reload sees the stored values
    warm = PolyCache(str(path))
    assert warm.get(u, v) == first
    warm.close()


def test_s4_cache_file_bytes_are_pinned(tmp_path):
    # rtilde of every ordered pair of S4, in all_perms order, into a fresh
    # file: the records, their order and their spelling are all pinned
    path = tmp_path / "poly.jsonl"
    installed = PolyCache(str(path))
    old = set_cache(installed)
    try:
        s4 = list(all_perms(4))
        for u in s4:
            for v in s4:
                rtilde(u, v)
    finally:
        set_cache(old)
        installed.close()
    data = path.read_bytes()
    assert len(data) == 40515
    assert hashlib.sha256(data).hexdigest() == (
        "136b3b87c8d77e1f19653eca1efadf2aa2bcd74e27d5b4a63e81983e8d1d1b93"
    )


def test_file_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "poly.jsonl"
    path.write_text(json.dumps({"cache_version": 999}) + "\n")
    with pytest.raises(CacheError):
        PolyCache(str(path))
    path.write_text("not json\n")
    with pytest.raises(CacheError):
        PolyCache(str(path))


def test_env_var_supplies_default(monkeypatch, tmp_path):
    target = tmp_path / "from_env.jsonl"
    monkeypatch.setenv("BRUHAT_CACHE", str(target))
    assert default_cache_path() == str(target)
    monkeypatch.delenv("BRUHAT_CACHE")
    assert default_cache_path() is None
    monkeypatch.setenv("BRUHAT_CACHE", "")
    assert default_cache_path() is None


def test_warm_cache_changes_no_results(tmp_path):
    from bruhatcubes.sweep import SweepConfig, run_sweep

    cfg = SweepConfig(n=3, checks=("congettura", "strong-ds"), mode="exhaustive")
    path = tmp_path / "poly.jsonl"

    old = set_cache(PolyCache(str(path)))
    try:
        _, cold_records, cold_code = run_sweep(cfg)
    finally:
        set_cache(old).close()

    # warm file cache
    old = set_cache(PolyCache(str(path)))
    try:
        _, warm_records, warm_code = run_sweep(cfg)
    finally:
        set_cache(old).close()

    # no cache file at all
    old = set_cache(PolyCache(None))
    try:
        _, memory_records, memory_code = run_sweep(cfg)
    finally:
        set_cache(old).close()

    assert cold_records == warm_records == memory_records
    assert cold_code == warm_code == memory_code == 0


def _write_cache(path, lines, version=CACHE_VERSION):
    header = json.dumps({"cache_version": version})
    path.write_text("\n".join([header, *lines]))


def _checked(record: dict) -> str:
    """A version-2 record line: the crc32 of the text before its crc field."""
    body = json.dumps(record)[:-1]
    return f'{body}, "crc": {zlib.crc32(body.encode())}}}'


RECORD_231 = _checked({"n": 3, "u": "123", "v": "231", "coeffs": [0, 0, 1]})
RECORD_321 = _checked({"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1]})


def test_torn_last_line_is_dropped(tmp_path):
    path = tmp_path / "poly.jsonl"
    torn = '{"n": 3, "u": "123", "v": "2'
    _write_cache(path, [RECORD_231, torn])
    memo = PolyCache(str(path))
    assert len(memo) == 1
    assert memo.get((1, 2, 3), (2, 3, 1)) == (0, 0, 1)
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.close()
    lines = path.read_text().splitlines()
    assert torn not in lines
    assert [json.loads(line) for line in lines[1:]] == [
        json.loads(RECORD_231),
        json.loads(RECORD_321),
    ]
    reloaded = PolyCache(str(path))
    assert len(reloaded) == 2
    reloaded.close()


def test_bad_line_before_the_end_still_fails(tmp_path):
    path = tmp_path / "poly.jsonl"
    _write_cache(path, ['{"n": 3, "u": "123", "v": "2', RECORD_321])
    with pytest.raises(CacheError):
        PolyCache(str(path))
    # a bad last line that is terminated was not cut short by an append
    _write_cache(path, [RECORD_231, '{"n": 3, "u": "123", "v": "2', ""])
    with pytest.raises(CacheError):
        PolyCache(str(path))
    assert path.read_text().endswith('"v": "2\n')


def test_edited_record_is_rejected(tmp_path):
    path = tmp_path / "poly.jsonl"
    _write_cache(path, [RECORD_231, RECORD_321, ""])
    memo = PolyCache(str(path))
    assert memo.get((1, 2, 3), (3, 2, 1)) == (0, 1, 0, 1)
    memo.close()
    edited = RECORD_321.replace("[0, 1, 0, 1]", "[0, 5]")
    _write_cache(path, [RECORD_231, edited, ""])
    with pytest.raises(CacheError, match="checksum"):
        PolyCache(str(path))
    # a record with its crc removed is rejected as well
    _write_cache(path, [RECORD_231, RECORD_321.rsplit(", ", 1)[0] + "}", ""])
    with pytest.raises(CacheError):
        PolyCache(str(path))


def test_unterminated_last_line_failing_its_check_is_dropped(tmp_path):
    path = tmp_path / "poly.jsonl"
    _write_cache(path, [RECORD_231, RECORD_321.replace("[0, 1, 0, 1]", "[0, 5]")])
    memo = PolyCache(str(path))
    assert len(memo) == 1
    memo.close()
    assert path.read_text().splitlines()[1:] == [RECORD_231]


def test_whole_unterminated_last_record_is_kept_and_ended(tmp_path):
    path = tmp_path / "poly.jsonl"
    _write_cache(path, [RECORD_231])
    memo = PolyCache(str(path))
    assert len(memo) == 1
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.close()
    assert path.read_text().splitlines()[1:] == [RECORD_231, RECORD_321]
    reloaded = PolyCache(str(path))
    assert len(reloaded) == 2
    reloaded.close()


def test_version_1_file_loads_unchecked_and_stays_version_1(tmp_path):
    path = tmp_path / "poly.jsonl"
    v1_231 = json.dumps({"n": 3, "u": "123", "v": "231", "coeffs": [0, 0, 1]})
    v1_321 = json.dumps({"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1]})
    _write_cache(path, [v1_231, ""], version=1)
    memo = PolyCache(str(path))
    assert memo.get((1, 2, 3), (2, 3, 1)) == (0, 0, 1)
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.close()
    assert path.read_text().splitlines() == ['{"cache_version": 1}', v1_231, v1_321]
    reloaded = PolyCache(str(path))
    assert reloaded.get((1, 2, 3), (3, 2, 1)) == (0, 1, 0, 1)
    reloaded.close()


def test_written_records_carry_their_checksum(tmp_path):
    path = tmp_path / "poly.jsonl"
    memo = PolyCache(str(path))
    memo.put((1, 2, 3), (2, 3, 1), (0, 0, 1))
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.close()
    assert path.read_text().splitlines()[1:] == [RECORD_231, RECORD_321]
