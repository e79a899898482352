import importlib.util
import json
import os
import signal
import stat
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from bruhatcubes.appendix import dh_multiset
from bruhatcubes.cache import BATCH, PolyCache
from bruhatcubes.cli import main
from bruhatcubes.doubles import ds_multiset, multiset_entries
from bruhatcubes.errors import ConfigError
from bruhatcubes.hcd import shortcuts
from bruhatcubes.interval import interval
from bruhatcubes.permutations import format_perm, parse_perm
from bruhatcubes.rpoly import canonical_orders, get_cache, rtilde, set_cache
from bruhatcubes.sweep import ALL_CHECKS, RTILDE_CHECKS, SweepConfig, run_sweep, validate_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rtilde_both_agree(capsys):
    code, out, _ = run(capsys, "rtilde", "--u", "123", "--v", "321", "--method", "both", "--no-cache")
    assert code == 0
    assert out.strip() == "q^3+q | q^3+q | AGREE"


def test_rtilde_diagonal(capsys):
    code, out, _ = run(capsys, "rtilde", "--u", "123", "--v", "123", "--no-cache")
    assert code == 0
    assert out.strip() == "1"


def test_rtilde_recurrence_above_the_index_rank(capsys):
    argv = ["rtilde", "--u", "12345678", "--v", "87654321", "--method", "recurrence", "--no-cache"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("q^28+21q^26+190q^24+") and out.endswith("+18q^6+q^4\n")


def test_rtilde_incomparable_exits_2(capsys):
    code, _, err = run(capsys, "rtilde", "--u", "213", "--v", "132", "--no-cache")
    assert code == 2
    assert "Bruhat" in err


def test_rtilde_bad_window_exits_3(capsys):
    code, _, _ = run(capsys, "rtilde", "--u", "113", "--v", "321", "--no-cache")
    assert code == 3


def test_rtilde_bad_order_word_exits_3(capsys):
    code, _, _ = run(
        capsys, "rtilde", "--u", "123", "--v", "321", "--method", "dyer",
        "--order-word", "1,1,1",
    )
    assert code == 3


def test_rtilde_explicit_order_word(capsys):
    code, out, _ = run(
        capsys, "rtilde", "--u", "123", "--v", "321", "--method", "dyer",
        "--order-word", "212",
    )
    assert code == 0 and out.strip() == "q^3+q"


def test_rtilde_order_word_needs_dyer_or_both_exits_5(capsys):
    # the recurrence reads no reflection order
    for method in ((), ("--method", "recurrence")):
        code, out, err = run(
            capsys, "rtilde", "--u", "123", "--v", "321", *method,
            "--order-word", "1,1,1", "--no-cache",
        )
        assert (code, out) == (5, "") and "--order-word" in err


def test_rtilde_dyer_opens_no_memo(tmp_path, capsys, monkeypatch):
    # the increasing-path route reads no memo: --cache and --no-cache are
    # refused, as --order-word is under the recurrence, and BRUHAT_CACHE is
    # not opened
    path = tmp_path / "poly.jsonl"
    argv = ["rtilde", "--u", "123", "--v", "321", "--method", "dyer"]
    previous = get_cache()
    try:
        for memo in (["--cache", str(path)], ["--no-cache"]):
            code, out, err = run(capsys, *argv, *memo)
            assert (code, out) == (5, "") and "--cache and --no-cache" in err
        monkeypatch.setenv("BRUHAT_CACHE", str(path))
        assert run(capsys, *argv) == (0, "q^3+q\n", "")
        assert get_cache() is previous
    finally:
        set_cache(previous)
    assert not path.exists()


def test_verify_opens_a_memo_only_for_checks_that_evaluate_rtilde(
    tmp_path, capsys, monkeypatch, clear_memos
):
    # each check alone, with a fresh memo and every other memo cleared: the
    # memo fills for exactly the checks by which verify reads a cache
    # (product runs at ranks 5 and 6 only)
    previous = get_cache()
    filled = set()
    try:
        for check in ALL_CHECKS:
            clear_memos()
            memo = PolyCache(None)
            set_cache(memo)
            run_sweep(SweepConfig(n=5 if check == "product" else 4, checks=(check,)))
            if len(memo):
                filled.add(check)
    finally:
        set_cache(previous)
    assert filled == set(RTILDE_CHECKS)
    # without such a check, --cache is refused, --no-cache accepted, and
    # neither option nor BRUHAT_CACHE installs a memo or opens a file
    path = tmp_path / "poly.jsonl"
    argv = ["verify", "--n", "3", "--checks", "em0,strong-ds", "--mode", "exhaustive"]
    code, out, err = run(capsys, *argv, "--cache", str(path))
    assert (code, out) == (5, "") and "--cache" in err
    monkeypatch.setenv("BRUHAT_CACHE", str(path))
    for memo in ([], ["--no-cache"]):
        assert run(capsys, *argv, *memo)[0] == 0
        assert get_cache() is previous
    assert not path.exists()


def test_rtilde_json_coeffs(capsys):
    code, out, _ = run(
        capsys, "rtilde", "--u", "123", "--v", "321", "--format", "json", "--no-cache"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == [0, 1, 0, 1]


def test_inspect_full_s3(capsys):
    code, out, _ = run(capsys, "inspect", "--u", "123", "--v", "321")
    assert code == 0
    assert "size=6" in out
    assert "co-simple: True" in out
    assert "{231, 312}" in out
    assert "{123, 231, 312}" in out


def test_inspect_point(capsys):
    code, out, _ = run(capsys, "inspect", "--u", "321", "--v", "321")
    assert code == 0
    assert "size=1" in out


def test_inspect_diamond(capsys):
    code, out, _ = run(capsys, "inspect", "--u", "123", "--v", "231", "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 4


def test_inspect_edge_dump(capsys):
    code, out, _ = run(
        capsys, "inspect", "--u", "123", "--v", "321", "--edges", "--format", "json"
    )
    assert code == 0
    edges = json.loads(out)["edges"]
    assert ["123", "321", "t(1,3)"] in edges
    assert len(edges) == 9  # eight covers plus the long arrow to the top
    code, out, _ = run(capsys, "inspect", "--u", "123", "--v", "321", "--edges")
    assert code == 0
    assert "123 -> 321  t(1,3)" in out


def test_shortcuts_command(capsys):
    code, out, _ = run(capsys, "shortcuts", "--u", "123", "--v", "321", "--z", "231")
    assert code == 0
    assert out.strip() == "{231, 321}"


def test_shortcuts_outside_interval_exits_2(capsys):
    code, _, _ = run(capsys, "shortcuts", "--u", "231", "--v", "321", "--z", "132")
    assert code == 2


def test_ds_and_dh_commands(capsys):
    for cmd in ("ds", "dh"):
        code, out, _ = run(
            capsys, cmd, "--u", "123", "--v", "321", "--z", "231", "--z2", "312",
            "--both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"] == [[1, "321", 1], [3, "321", 1]]
        assert payload["symmetric"] is True


def test_verify_exhaustive_s3_all_checks(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--checks", "all", "--mode", "exhaustive",
        "--format", "json", "--no-cache",
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header["report_version"] == 1
    assert "conventions" in header
    records = [json.loads(line) for line in lines[1:]]
    assert records
    assert all(r["status"] != "FAIL" for r in records)


def test_verify_report_bodies_deterministic(capsys, tmp_path):
    argv = [
        "verify", "--n", "4", "--checks", "dyer,em0", "--mode", "sample",
        "--sample-size", "12", "--seed", "7", "--format", "json", "--no-cache",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    body1 = out1.strip().splitlines()[1:]
    body2 = out2.strip().splitlines()[1:]
    assert body1 == body2


def test_ds_and_dh_text_output(capsys):
    for cmd in ("ds", "dh"):
        argv = [cmd, "--u", "123", "--v", "321", "--z", "231", "--z2", "312"]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "[(1, '321', 1), (3, '321', 1)]\n")
        code, out, _ = run(capsys, *argv, "--both")
        entries = "[(1, '321', 1), (3, '321', 1)]\n"
        assert (code, out) == (0, entries + entries + "SYMMETRIC\n")


def test_shortcuts_json(capsys):
    code, out, _ = run(capsys, "shortcuts", "--u", "123", "--v", "321", "--z", "231", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"u": "123", "v": "321", "z": "231", "shortcuts": ["231", "321"]}


def test_inspect_rank_mismatch_exits_3(capsys):
    code, out, err = run(capsys, "inspect", "--u", "12", "--v", "321")
    assert (code, out) == (3, "") and "same rank" in err


def test_rtilde_order_word_that_is_not_a_word_exits_3(capsys):
    code, out, err = run(
        capsys, "rtilde", "--u", "123", "--v", "321", "--method", "dyer",
        "--order-word", "1,x",
    )
    assert (code, out) == (3, "") and "bad order word" in err


def test_verify_rank_and_sample_size_below_one_exit_5(capsys):
    for argv, message in (
        (["--n", "0", "--checks", "dyer"], "rank must be positive"),
        (["--n", "3", "--checks", "dyer", "--mode", "sample", "--seed", "1", "--sample-size", "0"],
         "sample size must be positive"),
    ):
        code, out, err = run(capsys, "verify", *argv, "--no-cache")
        assert (code, out) == (5, "") and message in err, argv


def test_validate_config_refuses_no_checks_and_an_unknown_mode():
    with pytest.raises(ConfigError, match="no checks selected"):
        validate_config(SweepConfig(n=3, checks=()))
    with pytest.raises(ConfigError, match="unknown mode 'bogus'"):
        validate_config(SweepConfig(n=3, checks=("dyer",), mode="bogus"))


def test_verify_text_report_shows_both_decompositions(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--checks", "bologna", "--mode", "exhaustive",
        "--format", "text", "--no-cache",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("PASS bologna [123,132] z=123 z2=132 {")
    assert all(" z=" in line and " z2=" in line for line in lines[1:-1])


def test_verify_sample_requires_seed(capsys):
    code, _, err = run(capsys, "verify", "--n", "5", "--mode", "sample", "--no-cache")
    assert code == 5
    assert "seed" in err


def test_verify_product_alone_needs_no_seed(capsys):
    # product enumerates its own pairs, so sample mode, the default at rank
    # 5, asks for no seed when no interval check is selected
    bodies = []
    for mode in ([], ["--mode", "exhaustive"]):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--checks", "product", *mode,
            "--format", "json", "--no-cache",
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()[1:]]
        for rec in records:
            del rec["fp"]
        bodies.append(records)
    assert bodies[0] and bodies[0] == bodies[1]
    assert {rec["check"] for rec in bodies[0]} == {"product"}


def test_verify_exhaustive_rank_limit(capsys):
    for n, check in ((5, "lemma-paths"), (6, "strong-ds")):
        code, _, err = run(
            capsys, "verify", "--n", str(n), "--checks", check, "--mode", "exhaustive", "--no-cache"
        )
        assert code == 5
        assert f"exhaustive {check} is limited" in err


def test_verify_repeated_or_empty_check_names(capsys):
    # a repeated check would write each of its records twice; an empty name
    # is refused as such, not as an unknown check without a name
    for checks, message in (
        ("dyer,dyer", "repeated checks: dyer"),
        ("em0,dyer,em0,em0", "repeated checks: em0"),
        ("dyer,", "empty check name"),
        (",dyer", "empty check name"),
        ("", "empty check name"),
    ):
        code, out, err = run(
            capsys, "verify", "--n", "4", "--checks", checks, "--mode", "exhaustive", "--no-cache"
        )
        assert code == 5, checks
        assert message in err, (checks, err)
        assert out == ""


def test_verify_unknown_check(capsys):
    code, _, _ = run(capsys, "verify", "--n", "3", "--checks", "nonsense", "--no-cache")
    assert code == 5


def test_verify_output_file(capsys, tmp_path):
    target = tmp_path / "report.jsonl"
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--checks", "dyer", "--mode", "exhaustive",
        "--format", "json", "--output", str(target), "--no-cache",
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert json.loads(lines[0])["report_version"] == 1
    assert all(json.loads(line)["status"] == "PASS" for line in lines[1:])


def test_verify_output_io_error(capsys, monkeypatch):
    from bruhatcubes import cli

    # the output path fails before the sweep starts
    monkeypatch.setattr(cli, "stream_sweep", _refuse)
    code, _, _ = run(
        capsys, "verify", "--n", "3", "--checks", "dyer", "--mode", "exhaustive",
        "--output", "/nonexistent-dir/report.jsonl", "--no-cache",
    )
    assert code == 4


def test_failed_command_leaves_the_output_file_as_it_was(capsys, tmp_path):
    # the output file was opened, and so emptied, before the command checked
    # anything
    for name, argv, code in (
        ("rep.jsonl", ["verify", "--n", "3", "--checks", "nonsense"], 5),
        ("rep.txt", ["inspect", "--u", "321", "--v", "123"], 2),
    ):
        target = tmp_path / name
        target.write_bytes(b"precious\n")
        assert main([*argv, "--output", str(target)]) == code
        assert target.read_bytes() == b"precious\n"
        assert sorted(os.listdir(tmp_path)) == sorted({"rep.jsonl", name})
    capsys.readouterr()


def test_output_file_is_replaced_with_its_mode(capsys, tmp_path):
    argv = ["shortcuts", "--u", "123", "--v", "321", "--z", "231", "--output"]
    target = tmp_path / "rep.txt"
    target.write_bytes(b"precious\n")
    target.chmod(0o640)
    assert main([*argv, str(target)]) == 0
    assert target.read_bytes() == b"{231, 321}\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    # through a link, the file it names is written and the link stays
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main(["shortcuts", "--u", "123", "--v", "231", "--z", "132", "--output", str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == b"{132}\n"
    # a pipe is written in place, not replaced by a file
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    fd = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main([*argv, str(pipe)]) == 0
        assert os.read(fd, 100) == b"{231, 321}\n"
    finally:
        os.close(fd)
    assert stat.S_ISFIFO(pipe.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "pipe", "rep.txt"]
    capsys.readouterr()


def test_new_output_file_has_the_default_mode(capsys, tmp_path):
    umask = os.umask(0o027)
    try:
        assert main(["inspect", "--u", "12", "--v", "21", "--output", str(tmp_path / "rep.txt")]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "rep.txt").stat().st_mode) == 0o640
    capsys.readouterr()


def test_verify_text_format_summary(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--checks", "congettura", "--mode", "exhaustive",
        "--format", "text", "--no-cache",
    )
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("# summary:")


def test_verify_timings_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "3", "--checks", "dyer", "--mode", "exhaustive",
        "--format", "json", "--timings", "--no-cache",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()[1:]]
    assert all("ms" in r for r in records)


def test_verify_rank1_and_rank2(capsys):
    for n in ("1", "2"):
        code, out, _ = run(
            capsys, "verify", "--n", n, "--checks", "all", "--mode", "exhaustive",
            "--format", "json", "--no-cache",
        )
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()[1:]]
        assert all(r["status"] in ("PASS", "SKIP") for r in records)


def test_ds_missing_join_exits_2(capsys):
    # 132 and 213 join two ways above 123, so the pair is not amazing
    code, _, err = run(
        capsys, "ds", "--u", "123", "--v", "321", "--z", "132", "--z2", "213"
    )
    assert code == 2
    assert "amazing" in err


def test_verify_rank6_sample_deterministic(capsys):
    argv = [
        "verify", "--n", "6", "--checks", "strong-ds", "--mode", "sample",
        "--sample-size", "8", "--seed", "7", "--format", "json", "--no-cache",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.splitlines()[1:] == out2.splitlines()[1:]
    records = [json.loads(line) for line in out1.strip().splitlines()[1:]]
    assert records and all(r["status"] in ("PASS", "FINDING") for r in records)


def test_threads_is_not_an_option(capsys):
    # sweeps are serial: pure-Python checks hold the interpreter lock
    with pytest.raises(SystemExit):
        main(["verify", "--n", "3", "--checks", "dyer", "--no-cache", "--threads", "2"])
    assert "--threads" in capsys.readouterr().err


def test_sweep_config_fields_defaults_and_fingerprint():
    cfg = SweepConfig(n=3)
    assert SweepConfig._fields == (
        "n", "checks", "mode", "sample_size", "seed", "max_interval_size", "timings",
    )
    assert cfg == SweepConfig(3, ALL_CHECKS, "exhaustive", 50, None, None, False)
    # the worker count is a constant of the class, not a field
    assert cfg.threads == SweepConfig.threads == 1
    with pytest.raises(TypeError):
        SweepConfig(n=3, threads=2)
    assert cfg.fingerprint_digest() == "5327f7fca850"
    sample = SweepConfig(n=4, checks=("dyer",), mode="sample", seed=7, sample_size=3)
    assert sample.fingerprint() == {
        "n": 4, "checks": ["dyer"], "mode": "sample", "sample_size": 3,
        "seed": 7, "max_interval_size": None,
    }


def test_exhaustive_report_body_ignores_an_unused_seed(capsys):
    # an exhaustive sweep draws no pairs, so its fingerprint holds no seed
    argv = ["verify", "--n", "3", "--checks", "dyer", "--mode", "exhaustive", "--format", "json"]
    bodies = []
    for seed in ((), ("--seed", "1"), ("--seed", "2")):
        code, out, _ = run(capsys, *argv, *seed, "--no-cache")
        assert code == 0
        bodies.append(out.splitlines()[1:])
    assert bodies[0] and bodies[0] == bodies[1] == bodies[2]


def test_size_bound_below_one_is_rejected():
    # the rejection sampler could never draw an interval of size 0
    for mode in ("sample", "exhaustive"):
        cfg = SweepConfig(n=3, checks=("dyer",), mode=mode, seed=1, max_interval_size=0)
        with pytest.raises(ConfigError):
            validate_config(cfg)
    validate_config(SweepConfig(n=3, checks=("dyer",), mode="sample", seed=1, max_interval_size=1))


def test_replaced_cache_file_is_closed(tmp_path, capsys):
    path = str(tmp_path / "poly.jsonl")
    argv = ["rtilde", "--u", "123", "--v", "321", "--cache", path]
    previous = get_cache()
    try:
        assert main(argv) == 0
        first = get_cache()
        assert main(argv) == 0
        assert first._fh is None
    finally:
        set_cache(previous).close()
    capsys.readouterr()



def test_installed_cache_file_is_closed_on_return(tmp_path, capsys):
    path = str(tmp_path / "poly.jsonl")
    previous = get_cache()
    try:
        assert main(["rtilde", "--u", "123", "--v", "321", "--cache", path]) == 0
        installed = get_cache()
        assert installed is not previous and installed.path == path
        assert installed._fh is None
        # the memo stays readable after the file is closed
        assert installed.get((1, 2, 3), (3, 2, 1)) == (0, 1, 0, 1)
    finally:
        set_cache(previous).close()
    capsys.readouterr()


def test_edited_cache_record_exits_with_io_error(tmp_path, capsys):
    path = tmp_path / "poly.jsonl"
    argv = ["rtilde", "--u", "123", "--v", "321", "--method", "both", "--cache", str(path)]
    previous = get_cache()
    try:
        assert main(argv) == 0
        text = path.read_text()
        path.write_text(text.replace('"v": "321", "coeffs": [0, 1, 0, 1]', '"v": "321", "coeffs": [0, 5]'))
        assert path.read_text() != text
        capsys.readouterr()
        assert main(argv) == 4
        assert "checksum" in capsys.readouterr().err
    finally:
        set_cache(previous).close()


@pytest.mark.parametrize(
    "bad_record",
    [
        # a trailing zero coefficient under a valid crc: a bad cache, not a
        # disagreement between the two routes
        b'{"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1, 0], "crc": %d}'
        % zlib.crc32(b'{"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1, 0]'),
        # a byte that is not UTF-8
        b'{"n": 3, "u": "123", "v": "321", "coeffs": [0, 1, 0, 1]\xff}',
    ],
    ids=["not-normalized", "not-utf-8"],
)
def test_bad_cache_record_exits_with_io_error(tmp_path, capsys, bad_record):
    path = tmp_path / "poly.jsonl"
    path.write_bytes(b'{"cache_version": 2}\n' + bad_record + b"\n")
    argv = ["rtilde", "--u", "123", "--v", "321", "--method", "both", "--cache", str(path)]
    previous = get_cache()
    try:
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "bad cache record" in err
    finally:
        set_cache(previous).close()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--n", "3", "--checks", "nonsense"], 5),
        (["verify", "--n", "0", "--checks", "dyer"], 5),
        (["rtilde", "--u", "123", "--v", "321", "--order-word", "121"], 5),
        (["rtilde", "--u", "321", "--v", "123"], 2),
        (["rtilde", "--u", "12", "--v", "321"], 3),
        (["rtilde", "--u", "123", "--v", "321", "--method", "both", "--order-word", "1,x"], 3),
        (["rtilde", "--u", "123", "--v", "321", "--method", "both", "--order-word", "1,1,1"], 3),
        (["verify", "--n", "3", "--checks", "em0,strong-ds", "--mode", "exhaustive"], 5),
    ],
    ids=["unknown-check", "rank-0", "order-word-unread", "not-below", "rank-mismatch",
         "order-word-not-a-word", "order-word-not-reduced", "cache-unread"],
)
def test_refused_command_creates_no_cache_file(tmp_path, capsys, argv, code):
    # the memo, and with it the cache file, is installed only once the
    # options are accepted; the memo installed before stays installed
    path = tmp_path / "poly.jsonl"
    previous = get_cache()
    try:
        assert main([*argv, "--cache", str(path)]) == code
        assert get_cache() is previous
    finally:
        set_cache(previous)
    assert not path.exists()
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


def test_rtilde_both_disagreement_exits_1(capsys, monkeypatch):
    from bruhatcubes import cli

    monkeypatch.setattr(cli, "rtilde_dyer", lambda I, order: (0, 1))
    code, out, _ = run(capsys, "rtilde", "--u", "123", "--v", "321", "--method", "both", "--no-cache")
    assert code == 1
    assert out == "q^3+q | q | DISAGREE\n"


def test_failing_checks_write_standard_fail_records(monkeypatch):
    from bruhatcubes import sweep
    from bruhatcubes.polynomials import ZERO

    monkeypatch.setattr(sweep, "rtilde_dyer", lambda I, order: ZERO)
    monkeypatch.setattr(sweep, "is_amazing", lambda I, z: False)
    cfg = SweepConfig(n=3, checks=("dyer", "standard-hcd"), mode="exhaustive")
    _, records, code = sweep.run_sweep(cfg)
    assert code == 1
    by_check = {(r["check"], r["u"], r["v"]): r for r in records}
    fp = cfg.fingerprint_digest()
    assert by_check[("dyer", "123", "321")] == {
        "check": "dyer",
        "n": 3,
        "u": "123",
        "v": "321",
        "status": "FAIL",
        "witness": {
            "order": str(canonical_orders(3, 2)[0]),
            "paths": "0",
            "recurrence": "q^3+q",
        },
        "fp": fp,
    }
    assert by_check[("standard-hcd", "123", "321")] == {
        "check": "standard-hcd",
        "n": 3,
        "u": "123",
        "v": "321",
        "status": "FAIL",
        "witness": "231 not amazing",
        "fp": fp,
    }


def test_stream_sweep_yields_the_report_of_run_sweep():
    from bruhatcubes.sweep import stream_sweep

    cfg = SweepConfig(n=4, checks=ALL_CHECKS, mode="exhaustive")
    header, records, code = run_sweep(cfg)
    streamed = list(stream_sweep(cfg))
    assert code == 0
    assert streamed == [header, *records]
    assert all(rec["fp"] == header["fp"] == cfg.fingerprint_digest() for rec in records)


def test_verify_writes_each_record_before_the_next_check_runs(monkeypatch):
    # the stand-in check notes how many lines the report holds when it is
    # called: the header and one record for each call before it
    import io

    from bruhatcubes import sweep
    from bruhatcubes.doubles import _record

    out = io.StringIO()
    written = []

    def counting(I):
        written.append(out.getvalue().count("\n"))
        return [_record("dyer", I, "PASS")]

    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setitem(sweep._CHECK_FUNCS, "dyer", counting)
    argv = ["verify", "--n", "3", "--checks", "dyer", "--mode", "exhaustive", "--format", "json"]
    assert main([*argv, "--no-cache"]) == 0
    assert written == list(range(1, 20))  # 19 comparable S3 pairs
    assert out.getvalue().count("\n") == 20


@pytest.mark.parametrize("fail", [None, "first", "last"])
def test_verify_exits_1_once_a_fail_record_has_been_written(monkeypatch, capsys, fail):
    # the only FAIL is the report's first record (the first pair's dyer
    # record) or its last (the last product record)
    from bruhatcubes import sweep

    check_dyer, product_records = sweep.check_dyer, sweep.product_records

    def first_fails(I):
        records = check_dyer(I)
        if (I.u, I.v) == ((1, 2, 3, 4, 5), (1, 2, 3, 4, 5)):
            records[0]["status"] = "FAIL"
        return records

    def last_fails(cfg):
        records = list(product_records(cfg))
        records[-1]["status"] = "FAIL"
        yield from records

    if fail == "first":
        monkeypatch.setitem(sweep._CHECK_FUNCS, "dyer", first_fails)
    elif fail == "last":
        monkeypatch.setattr(sweep, "product_records", last_fails)
    code, out, _ = run(
        capsys, "verify", "--n", "5", "--checks", "dyer,product", "--mode", "exhaustive",
        "--max-interval-size", "4", "--no-cache", "--format", "json",
    )
    records = [json.loads(line) for line in out.splitlines()[1:]]
    statuses = [rec["status"] for rec in records]
    assert records[0]["check"] == "dyer" and records[-1]["check"] == "product"
    if fail is None:
        assert code == 0 and "FAIL" not in statuses
    else:
        assert code == 1
        assert statuses.count("FAIL") == 1
        assert statuses[0 if fail == "first" else -1] == "FAIL"


@pytest.mark.parametrize(
    "cfg",
    [
        SweepConfig(n=4),
        SweepConfig(n=5, checks=("dyer", "bologna"), mode="sample", seed=11, sample_size=7),
        SweepConfig(n=6, checks=("standard-hcd",), mode="exhaustive", max_interval_size=60),
    ],
    ids=["all-checks", "sample-seeded", "size-bound"],
)
def test_fingerprint_digest_is_the_sha256_of_hashlib(cfg):
    import hashlib

    from bruhatcubes.sweep import CONVENTIONS

    blob = json.dumps({"config": cfg.fingerprint(), "conventions": CONVENTIONS}, sort_keys=True)
    assert cfg.fingerprint_digest() == hashlib.sha256(blob.encode()).hexdigest()[:12]


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="this Python has no built-in sha256 module",
)
def test_verify_loads_no_openssl():
    # hashlib maps OpenSSL's libcrypto, a few MB of RSS; fp needs only the
    # built-in sha256
    code = (
        "import sys\n"
        "from bruhatcubes import cli\n"
        "argv = ['verify', '--n', '3', '--checks', 'dyer', '--mode', 'exhaustive', '--no-cache']\n"
        "assert cli.main(argv) == 0\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n"
    )
    proc = _python("-c", code, cache_env="")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] == "# summary: PASS=19"
    assert lines[-1] == "[]"


def _refuse(*args, **kwargs):
    raise AssertionError("the sweep enumerated pairs for a check that needs none")


def test_product_only_sweep_enumerates_no_pairs(monkeypatch, capsys):
    # at rank 8 the pair list alone took longer than any timeout, for a check
    # that writes one SKIP record
    from bruhatcubes import sweep

    monkeypatch.setattr(sweep, "comparable_pairs", _refuse)
    monkeypatch.setattr(sweep, "sample_pairs", _refuse)
    for mode in (["--mode", "exhaustive"], ["--mode", "sample", "--seed", "1"]):
        code, out, _ = run(
            capsys, "verify", "--n", "8", "--checks", "product", *mode, "--no-cache", "--format", "json"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()[1:]]
        assert [(r["check"], r["status"]) for r in records] == [("product", "SKIP")]


def test_interval_checks_above_max_rank_are_rejected_before_sampling(monkeypatch, capsys):
    # the rejection sampler walked rank-12 intervals before the rank error came
    from bruhatcubes import sweep
    from bruhatcubes.interval import MAX_RANK

    for n in (MAX_RANK + 1, 12):
        for checks in (("dyer",), ("product", "em0")):
            cfg = SweepConfig(n=n, checks=checks, mode="sample", seed=1, sample_size=1)
            with pytest.raises(ConfigError):
                validate_config(cfg)
    validate_config(SweepConfig(n=12, checks=("product",), mode="sample", seed=1, sample_size=1))
    validate_config(SweepConfig(n=MAX_RANK, checks=("dyer",), mode="sample", seed=1, sample_size=1))
    monkeypatch.setattr(sweep, "sample_pairs", _refuse)
    for n in ("9", "12"):
        code, _, err = run(
            capsys, "verify", "--n", n, "--checks", "dyer", "--mode", "sample",
            "--seed", "1", "--sample-size", "1", "--no-cache",
        )
        assert code == 5
        assert f"rank {MAX_RANK}" in err


# ---------------------------------------------------------------------------
# $BRUHAT_CACHE, read only by the command line, in fresh interpreters

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(*args, cache_env):
    env = {k: v for k, v in os.environ.items() if k != "BRUHAT_CACHE"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["BRUHAT_CACHE"] = cache_env
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _cache_file(tmp_path, edited: bool = False) -> str:
    """A cache file holding R-tilde(123, 321), its record edited on request."""
    path = tmp_path / "poly.jsonl"
    memo = PolyCache(str(path))
    memo.put((1, 2, 3), (3, 2, 1), (0, 1, 0, 1))
    memo.close()
    if edited:
        text = path.read_text()
        path.write_text(text.replace('"coeffs": [0, 1, 0, 1]', '"coeffs": [0, 5]'))
        assert path.read_text() != text
    return str(path)


def test_empty_env_cache_is_unset():
    proc = _python("-m", "bruhatcubes.cli", "rtilde", "--u", "123", "--v", "321", cache_env="")
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "q^3+q", "")


def test_import_opens_no_env_cache_file(tmp_path):
    path = tmp_path / "missing" / "p.jsonl"
    code = "import bruhatcubes.cli, bruhatcubes.rpoly as r; assert r.get_cache().path is None"
    proc = _python("-c", code, cache_env=str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert not path.parent.exists()


def test_edited_env_cache_exits_with_io_error(tmp_path):
    path = _cache_file(tmp_path, edited=True)
    proc = _python("-m", "bruhatcubes.cli", "rtilde", "--u", "123", "--v", "321", cache_env=path)
    assert proc.returncode == 4
    assert proc.stderr.startswith("error:") and "checksum" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_edited_env_cache_is_not_read_with_no_cache(tmp_path):
    path = _cache_file(tmp_path, edited=True)
    argv = ("-m", "bruhatcubes.cli", "rtilde", "--u", "123", "--v", "321", "--no-cache")
    proc = _python(*argv, cache_env=path)
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "q^3+q", "")


_S5_DYER = ["verify", "--n", "5", "--checks", "dyer", "--mode", "exhaustive", "--format", "json"]


def test_killed_verify_keeps_its_batches_and_resumes(tmp_path, capsys):
    # a child kills itself right after its third batch write, at a fixed
    # point of the sweep: the file holds those batches, whole, and a second
    # run resumes on it to the body of a run without a cache file
    path = str(tmp_path / "poly.jsonl")
    code = (
        "import os, signal, sys\n"
        "from bruhatcubes import cache, cli\n"
        "write, batches = cache.PolyCache._write, []\n"
        "def write_then_die(memo, data):\n"
        "    write(memo, data)\n"
        "    if data.count(b'\\n') == cache.BATCH:\n"
        "        batches.append(data)\n"
        "        if len(batches) == 3:\n"
        "            os.kill(os.getpid(), signal.SIGKILL)\n"
        "cache.PolyCache._write = write_then_die\n"
        f"cli.main({_S5_DYER!r} + ['--cache', sys.argv[1]])\n"
    )
    proc = _python("-c", code, path, cache_env="")
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    killed = PolyCache(path)
    killed.close()
    assert len(killed) == 3 * BATCH
    previous = set_cache(PolyCache(None))
    try:
        for rank in killed.ranks.values():
            for v, row in enumerate(rank.rows):
                for u, poly in row.items():
                    assert poly == rtilde(rank.windows[u], rank.windows[v])
        assert main([*_S5_DYER, "--no-cache"]) == 0
    finally:
        set_cache(previous)
    memory = capsys.readouterr().out.splitlines()[1:]
    proc = _python("-m", "bruhatcubes.cli", *_S5_DYER, "--cache", path, cache_env="")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[1:] == memory and len(memory) == 3781
    resumed = PolyCache(path)
    resumed.close()
    assert len(resumed) == 3781


def test_env_cache_file_is_loaded_once(tmp_path):
    path = _cache_file(tmp_path)
    # every load of an existing file ends by opening it for appending; count
    # those from before the package is imported to the end of one command
    code = (
        "import sys\n"
        "loads = []\n"
        "def hook(event, args):\n"
        "    if event == 'open' and args[0] == sys.argv[1] and args[1] == 'a':\n"
        "        loads.append(args[0])\n"
        "sys.addaudithook(hook)\n"
        "from bruhatcubes import cli\n"
        "assert cli.main(['rtilde', '--u', '123', '--v', '321']) == 0\n"
        "print(len(loads))\n"
    )
    proc = _python("-c", code, path, cache_env=path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["q^3+q", "1"]


def test_rtilde_command_imports_no_unused_stdlib_module():
    # hashlib maps OpenSSL's libcrypto, a few MB of RSS, and dataclasses pulls
    # in inspect; no command needs either, and only a JSON report needs
    # datetime
    code = (
        "import sys\n"
        "heavy = ('hashlib', '_hashlib', 'dataclasses', 'datetime')\n"
        "before = set(sys.modules)\n"
        "from bruhatcubes import cache, cli, rpoly\n"
        "assert cli.main(['rtilde', '--u', '123', '--v', '321', '--no-cache']) == 0\n"
        "print(sorted(set(heavy) & set(sys.modules) - before))\n"
        "argv = ['verify', '--n', '3', '--checks', 'dyer', '--no-cache', '--format', 'json']\n"
        "assert cli.main(argv) == 0\n"
    )
    proc = _python("-c", code, cache_env="")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["q^3+q", "[]"]
    header = json.loads(lines[2])
    assert header["fp"] == SweepConfig(n=3, checks=("dyer",)).fingerprint_digest()
    assert "created" in header
    assert len(lines) == 3 + 19  # one dyer record per comparable S3 pair


# the four commands that never evaluate R-tilde, with the parent's stdout
_NO_RTILDE = {
    ("inspect", "--u", "123", "--v", "321"): (
        "interval [123, 321]  size=6  co-simple: True\n"
        "standard decompositions: {231, 312}\n"
        "amazing decompositions:  {123, 231, 312}\n"
        "  shortcuts for 123: {123}\n"
        "  shortcuts for 231: {231, 321}\n"
        "  shortcuts for 312: {312, 321}\n"
    ),
    ("shortcuts", "--u", "123", "--v", "321", "--z", "231"): "{231, 321}\n",
    ("ds", "--u", "123", "--v", "321", "--z", "231", "--z2", "312"): "[(1, '321', 1), (3, '321', 1)]\n",
    ("dh", "--u", "123", "--v", "321", "--z", "231", "--z2", "312"): "[(1, '321', 1), (3, '321', 1)]\n",
}


def test_commands_without_rtilde_ignore_the_env_cache(tmp_path):
    # they opened $BRUHAT_CACHE, and so exited 4 on a missing directory or an
    # edited file, or created a file that held only a header
    missing = tmp_path / "missing" / "p.jsonl"
    edited = _cache_file(tmp_path, edited=True)
    before = Path(edited).read_bytes()
    for argv, expected in _NO_RTILDE.items():
        for cache_env in (str(missing), edited):
            proc = _python("-m", "bruhatcubes.cli", *argv, cache_env=cache_env)
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, ""), argv
    assert not missing.parent.exists()
    assert os.listdir(tmp_path) == ["poly.jsonl"]
    assert Path(edited).read_bytes() == before


def test_commands_without_rtilde_reject_the_cache_options(capsys, tmp_path):
    for argv in _NO_RTILDE:
        for option in (["--no-cache"], ["--cache", str(tmp_path / "p.jsonl")]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *option])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# size bounds and FINDING witnesses


def test_exhaustive_size_bound_keeps_exactly_the_small_pairs(capsys):
    import itertools

    import oracles

    perms = list(itertools.permutations(range(1, 5)))
    sizes = {(u, v): len(oracles.interval_elements_brute(u, v)) for u in perms for v in perms}
    expected = sorted(
        (format_perm(u), format_perm(v)) for (u, v), size in sizes.items() if 0 < size <= 4
    )
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--checks", "dyer", "--mode", "exhaustive",
        "--max-interval-size", "4", "--no-cache", "--format", "json",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()[1:]]
    assert sorted((r["u"], r["v"]) for r in records) == expected
    assert 0 < len(expected) < sum(1 for size in sizes.values() if size)


def test_product_size_bound_keeps_exactly_the_small_products(capsys):
    import oracles

    def size(factor):
        u, v = map(parse_perm, factor)
        return len(oracles.interval_elements_brute(u, v))

    def factor_pairs(*bound):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--checks", "product", "--mode", "exhaustive",
            *bound, "--no-cache", "--format", "json",
        )
        assert code == 0
        return {tuple(map(tuple, json.loads(line)["factors"])) for line in out.splitlines()[1:]}

    every = factor_pairs()
    bounded = factor_pairs("--max-interval-size", "4")
    assert bounded == {f for f in every if size(f[0]) * size(f[1]) <= 4}
    assert 0 < len(bounded) < len(every)


def test_finding_records_carry_what_the_library_computes(monkeypatch):
    from bruhatcubes import appendix, doubles
    from bruhatcubes.hcd import enumerate_hcds

    I = interval((1, 2, 3, 4), (4, 3, 2, 1))
    amazing = enumerate_hcds(I, amazing_only=True)
    z, zp = amazing[1], amazing[2]
    image = sorted({format_perm(p) for _, p in appendix.antichain_hypercubes(I, z)})
    assert image
    monkeypatch.setattr(doubles, "is_r_element", lambda I, z: False)
    monkeypatch.setattr(doubles, "ds_symmetric", lambda I, z, zp: False)
    monkeypatch.setattr(appendix, "dh_symmetric", lambda I, z, zp: False)

    rec = doubles.verify_congettura(I)
    assert (rec["status"], rec["z"]) == ("FINDING", format_perm(amazing[0]))
    rec = doubles.verify_strong_ds_pair(I, z, zp)
    assert rec["status"] == "FINDING"
    assert rec["ds"] == multiset_entries(ds_multiset(I, z, zp))
    assert rec["ds_rev"] == multiset_entries(ds_multiset(I, zp, z))
    rec = appendix.verify_dh_symmetry(I, z, zp, conjectural=True)
    assert rec["status"] == "FINDING"
    assert rec["dh"] == multiset_entries(dh_multiset(I, z, zp))
    assert rec["dh_rev"] == multiset_entries(dh_multiset(I, zp, z))
    # a repeated pair makes the projection fail to be injective; patched
    # here, after the DH records, which walk the same level
    real_level = appendix.hypercube_level
    monkeypatch.setattr(appendix, "hypercube_level", lambda *key: real_level(*key) * 2)
    rec = appendix.verify_hw_projection(I, z)
    assert rec["status"] == "FINDING"
    assert rec["witness"] == {
        "injective": False,
        "image": image,
        "shortcut_set": sorted(format_perm(p) for p in shortcuts(I, z)),
    }
