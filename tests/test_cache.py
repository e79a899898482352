import hashlib
import io
import json
import zlib

import pytest

from bruhatcubes.cache import BATCH, CACHE_VERSION, PolyCache, default_cache_path
from bruhatcubes.errors import CacheError
from bruhatcubes.interval import comparable_pairs
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


def _cache_every_pair(path, n: int) -> PolyCache:
    """rtilde of every ordered pair of S_n, in all_perms order, into a fresh
    file; returns the closed cache."""
    installed = PolyCache(str(path))
    old = set_cache(installed)
    try:
        perms = list(all_perms(n))
        for u in perms:
            for v in perms:
                rtilde(u, v)
    finally:
        set_cache(old)
        installed.close()
    return installed


def test_s4_cache_file_bytes_are_pinned(tmp_path):
    # the records, their order and their spelling are all pinned; a pair
    # u !<= v is decided by one comparison and writes no record
    path = tmp_path / "poly.jsonl"
    _cache_every_pair(path, 4)
    data = path.read_bytes()
    assert len(data) == 15928
    assert hashlib.sha256(data).hexdigest() == (
        "4d3ae6f7a828bda68aa278e4c265eabd649affd88964ca58f13f037eb839c570"
    )


def test_s5_cache_file_bytes_are_pinned_and_reload_shared(tmp_path):
    # reloading gives the memo back, with each distinct polynomial held once
    path = tmp_path / "poly.jsonl"
    installed = _cache_every_pair(path, 5)
    data = path.read_bytes()
    assert len(data) == 304399
    assert hashlib.sha256(data).hexdigest() == (
        "ca599faa7a05c80e8ac5210d6b96e878eb5e8c0c9dc9d5463425dad4f91533b5"
    )
    reloaded = PolyCache(str(path))
    reloaded.close()
    s5 = list(all_perms(5))
    assert len(reloaded) == len(installed) == 3781  # the comparable pairs
    polys = [reloaded.get(u, v) for u in s5 for v in s5]
    assert polys == [installed.get(u, v) for u in s5 for v in s5]
    assert len({id(p) for p in polys}) == len(set(polys))


def test_s6_cache_file_bytes_are_pinned(tmp_path):
    # every comparable pair in comparable_pairs order, as a sweep asks them
    path = tmp_path / "poly.jsonl"
    installed = PolyCache(str(path))
    old = set_cache(installed)
    try:
        for u, v in comparable_pairs(6):
            rtilde(u, v)
    finally:
        set_cache(old)
        installed.close()
    data = path.read_bytes()
    assert len(installed) == data.count(b"\n") - 1 == 98407
    assert hashlib.sha256(data).hexdigest() == (
        "f20c6b329f48fb9c0b6b108bff72d8b68d66d25dbe21c1df2aa06540473bfbe6"
    )


def test_non_window_pair_raises_and_stores_nothing(tmp_path):
    # a stored non-window would be a record that the loader refuses, so
    # that every later run on the file exits 4
    path = tmp_path / "poly.jsonl"
    memo = PolyCache(str(path))
    before = path.read_bytes()
    old = set_cache(memo)
    try:
        bad = ((1, 1), (1, 1)), ((1, 3), (1, 3)), ((2, 1), (1, 1)), ((), ()), ((1, 2), (1, 2, 3))
        for u, v in bad:
            with pytest.raises(ValueError):
                rtilde(u, v)
            with pytest.raises(ValueError):
                memo.put(u, v, (1,))
    finally:
        set_cache(old).close()
    assert len(memo) == 0
    assert memo.get((1, 1), (1, 1)) is None
    assert path.read_bytes() == before
    PolyCache(str(path)).close()


def _held(memo: PolyCache):
    """The windows and the polynomials the memo holds, one item per slot:
    each window as a key of its rank's id table and under its id, and each
    polynomial in its row."""
    ranks = memo.ranks.values()
    windows = [w for rank in ranks for w in (*rank.ids, *rank.windows)]
    polys = [p for rank in ranks for row in rank.rows for p in row.values()]
    return windows, polys


def _summed(memo: PolyCache):
    """The polynomials of the recurrence's sum memo, summands included."""
    return [p for key, total in memo.sums.items() for p in (*key, total)]


def _held_once(values) -> bool:
    return len({id(x) for x in values}) == len(set(values))


def test_computed_memo_holds_each_value_once(fresh_cache):
    s5 = list(all_perms(5))
    for u in s5:
        for v in s5:
            rtilde(u, v)
    windows, polys = _held(fresh_cache)
    assert len(fresh_cache) == len(polys) == 3781  # the comparable pairs
    assert len(set(windows)) == 120
    assert _held_once(windows) and _held_once(polys + _summed(fresh_cache))
    # ids number the windows in the order met, and each id has its window
    rank = fresh_cache.ranks[5]
    assert list(rank.ids.values()) == list(range(120))
    assert all(rank.windows[i] is w for w, i in rank.ids.items())


def test_rtilde_returns_the_memo_tuple(fresh_cache):
    s5 = list(all_perms(5))
    pairs = [(u, v) for u in s5 for v in s5]
    results = [rtilde(u, v) for u, v in pairs]
    # one object per distinct polynomial, zero included, and the memo's own
    assert _held_once(results + _summed(fresh_cache))
    assert len(set(results)) == 1 + len(set(_held(fresh_cache)[1]))
    assert all(p is fresh_cache.get(*pair) for p, pair in zip(results, pairs) if p)


def test_loaded_and_computed_values_share_one_object(tmp_path):
    path = tmp_path / "poly.jsonl"
    writer = PolyCache(str(path))
    old = set_cache(writer)
    try:
        e = identity(4)
        for v in all_perms(4):
            rtilde(e, v)
    finally:
        set_cache(old)
        writer.close()
    warm = PolyCache(str(path))
    warm.close()
    loaded = len(warm)
    assert warm.get((2, 3, 4, 1), (4, 3, 2, 1)) is None
    old = set_cache(warm)
    try:
        s4 = list(all_perms(4))
        for u in s4:
            for v in s4:
                rtilde(u, v)
    finally:
        set_cache(old)
    assert loaded < len(warm) == 213  # the comparable pairs of S4
    windows, polys = _held(warm)
    assert _held_once(windows) and _held_once(polys + _summed(warm))
    # R-tilde of (e, 1432) was loaded, the equal one of (2341, 4321) computed
    assert warm.get((2, 3, 4, 1), (4, 3, 2, 1)) is warm.get(e, (1, 4, 3, 2))


def test_put_of_a_stored_pair_appends_nothing(tmp_path):
    path = tmp_path / "poly.jsonl"
    memo = PolyCache(str(path))
    stored = memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    assert stored == (0, 1, 0, 1) and stored is memo.get((1, 2, 3), (3, 2, 1))
    memo.flush()
    before = path.read_bytes()
    assert before.count(b"\n") == 2  # the header and the record
    assert memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1)) is stored
    assert memo.put(tuple([1, 2, 3]), tuple([3, 2, 1]), tuple([0, 1, 0, 1])) is stored
    memo.close()
    assert path.read_bytes() == before
    assert len(memo) == 1
    # a loaded pair is stored as well
    warm = PolyCache(str(path))
    loaded = warm.get((1, 2, 3), (3, 2, 1))
    assert warm.put((1, 2, 3), (3, 2, 1), tuple([0, 1, 0, 1])) is loaded
    warm.close()
    assert path.read_bytes() == before
    assert len(warm) == 1


def test_file_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "poly.jsonl"
    path.write_text(json.dumps({"cache_version": 999}) + "\n")
    with pytest.raises(CacheError):
        PolyCache(str(path))
    path.write_text("not json\n")
    with pytest.raises(CacheError):
        PolyCache(str(path))
    # the version is the int 2: true would read as 1
    for version in ("true", "2.0", '"2"'):
        header = f'{{"cache_version": {version}}}\n'
        path.write_text(header)
        with pytest.raises(CacheError, match="cache_version"):
            PolyCache(str(path))
        assert path.read_text() == header


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


def _write_cache(path, lines):
    header = json.dumps({"cache_version": CACHE_VERSION})
    path.write_text("\n".join([header, *lines]))


def _sealed(body: str) -> str:
    """``body`` closed by the crc32 of its own text, as version 2 ends records."""
    return f'{body}, "crc": {zlib.crc32(body.encode())}}}'


def _checked(record: dict, **dumps) -> str:
    """A version-2 record line: the crc32 of the text before its crc field."""
    return _sealed(json.dumps(record, **dumps)[:-1])


RECORD_231 = _checked({"n": 3, "u": "123", "v": "231", "coeffs": [0, 0, 1]})
RECORD_321 = _checked({"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1]})
RECORD_132 = _checked({"n": 3, "u": "123", "v": "132", "coeffs": [0, 1]})


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


def test_version_1_file_is_refused_and_left_as_it_was(tmp_path):
    # version 1 wrote records without a crc; such a file is deleted and rebuilt
    path = tmp_path / "poly.jsonl"
    v1_231 = json.dumps({"n": 3, "u": "123", "v": "231", "coeffs": [0, 0, 1]})
    text = "\n".join([json.dumps({"cache_version": 1}), v1_231, ""])
    path.write_text(text)
    with pytest.raises(CacheError, match="cache_version"):
        PolyCache(str(path))
    assert path.read_text() == text


def test_zero_records_of_older_files_still_load(tmp_path):
    # files written before zeros stopped being stored hold such records
    path = tmp_path / "poly.jsonl"
    zero = _checked({"n": 3, "u": "321", "v": "123", "coeffs": []})
    _write_cache(path, [zero, RECORD_321, ""])
    old = set_cache(PolyCache(str(path)))
    try:
        assert len(get_cache()) == 2
        assert rtilde((3, 2, 1), (1, 2, 3)) == ()
    finally:
        set_cache(old).close()


def test_written_records_carry_their_checksum(tmp_path):
    path = tmp_path / "poly.jsonl"
    memo = PolyCache(str(path))
    memo.put((1, 2, 3), (2, 3, 1), (0, 0, 1))
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.close()
    assert path.read_text().splitlines()[1:] == [RECORD_231, RECORD_321]


def test_record_spelled_otherwise_is_refused(tmp_path):
    # valid JSON with a valid crc, but not spelled as the cache writes it
    path = tmp_path / "poly.jsonl"
    record = {"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1]}
    respelled = [
        _checked(record, separators=(",", ":")),
        _checked({"u": "123", "n": 3, "v": "321", "coeffs": [0, 1, 0, 1]}),
        _checked({**record, "u": "1,2,3"}),
        _sealed('{"n": 3, "u": "123", "v": "231", "coeffs": [0, 0, 01]'),
    ]
    for line in respelled:
        _write_cache(path, [RECORD_231, line, ""])
        with pytest.raises(CacheError, match="bad cache record"):
            PolyCache(str(path))
        # as an unterminated last line it is cut off like any torn tail
        _write_cache(path, [RECORD_231, line])
        memo = PolyCache(str(path))
        memo.close()
        assert len(memo) == 1
        assert path.read_text().splitlines()[1:] == [RECORD_231]


def test_record_rank_must_match_its_windows(tmp_path):
    # valid crcs, but n is not the length of both windows
    path = tmp_path / "poly.jsonl"
    for record in (
        {"n": 9, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1]},
        {"n": 3, "u": "123", "v": "3214", "coeffs": [0, 1, 0, 1]},
    ):
        _write_cache(path, [RECORD_231, _checked(record), ""])
        with pytest.raises(CacheError, match="rank n does not match"):
            PolyCache(str(path))


def test_unnormalized_coefficients_are_refused(tmp_path):
    path = tmp_path / "poly.jsonl"
    record = {"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1, 0]}
    _write_cache(path, [_checked(record), ""])
    with pytest.raises(CacheError, match="normalized"):
        PolyCache(str(path))


def test_crlf_line_ends_still_load(tmp_path):
    path = tmp_path / "poly.jsonl"
    header = json.dumps({"cache_version": CACHE_VERSION})
    path.write_bytes("\r\n".join([header, RECORD_231, RECORD_321, ""]).encode())
    memo = PolyCache(str(path))
    memo.close()
    assert memo.get((1, 2, 3), (2, 3, 1)) == (0, 0, 1)
    assert memo.get((1, 2, 3), (3, 2, 1)) == (0, 1, 0, 1)


def test_short_write_raises_and_leaves_no_partial_line(tmp_path):
    class ShortFile(io.FileIO):
        def write(self, data):
            return super().write(data[:10])

    path = tmp_path / "poly.jsonl"
    memo = PolyCache(str(path))
    memo.put((1, 2, 3), (2, 3, 1), (0, 0, 1))
    memo.flush()
    before = path.read_bytes()
    memo._fh.close()
    memo._fh = ShortFile(str(path), "ab")
    # a batch of two records surfaces its short write at flush, and the
    # whole batch is taken back
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.put((1, 2, 3), (1, 3, 2), (0, 1))
    assert path.read_bytes() == before
    with pytest.raises(OSError, match=f"wrote 10 of {len(RECORD_321) + 1 + len(RECORD_132) + 1} bytes"):
        memo.flush()
    assert path.read_bytes() == before
    memo.close()
    assert path.read_bytes() == before
    # the records stay in the memo, and a reload finds the file whole
    assert memo.get((1, 2, 3), (3, 2, 1)) == (0, 1, 0, 1)
    reloaded = PolyCache(str(path))
    reloaded.close()
    assert len(reloaded) == 1


def test_records_reach_the_file_in_batches(tmp_path, monkeypatch):
    # all 3,781 comparable S5 pairs: the header write, 7 writes of BATCH
    # records as they fill and one of the last 197 at close, with the
    # pinned S5 bytes
    writes = []
    write = PolyCache._write

    def counted(memo, data):
        writes.append(data.count(b"\n"))
        write(memo, data)

    monkeypatch.setattr(PolyCache, "_write", counted)
    path = tmp_path / "poly.jsonl"
    memo = _cache_every_pair(path, 5)
    assert BATCH == 512 and writes == [1] + [BATCH] * 7 + [3781 - 7 * BATCH]
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == (
        "ca599faa7a05c80e8ac5210d6b96e878eb5e8c0c9dc9d5463425dad4f91533b5"
    )
    # a memo whose file is closed writes nothing more
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.flush()
    assert len(writes) == 9 and path.read_bytes() == data
