"""README's command block runs as shown: each ``bruhatcubes ...`` line exits
0 through ``cli.main``, and the output shown under it in ``#`` comments is
the start of what it prints."""

import shlex
from pathlib import Path

import pytest

from bruhatcubes.cli import main
from bruhatcubes.rpoly import get_cache, set_cache

README = Path(__file__).resolve().parents[1] / "README.md"


def _command_block() -> list[tuple[str, list[str]]]:
    """(command line, shown output lines) for every ``bruhatcubes`` line of
    the first ``sh`` block under "## Command line".  A shown line ``...``
    elides the rest of the output."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands: list[tuple[str, list[str]]] = []
    elided = False
    for line in block.splitlines():
        if line.startswith("bruhatcubes "):
            commands.append((line, []))
            elided = False
        elif line.startswith("# ") and commands and not elided:
            elided = line[2:].strip() == "..."
            if not elided:
                commands[-1][1].append(line[2:])
    return commands


COMMANDS = _command_block()


def test_the_block_is_found():
    assert len(COMMANDS) >= 8
    assert {line.split()[1] for line, _ in COMMANDS} >= {"rtilde", "inspect", "verify"}
    assert sum(bool(shown) for _, shown in COMMANDS) >= 2


@pytest.mark.parametrize("line, shown", COMMANDS, ids=[line for line, _ in COMMANDS])
def test_readme_command_runs_as_shown(line, shown, capsys, monkeypatch):
    monkeypatch.delenv("BRUHAT_CACHE", raising=False)
    previous = get_cache()
    try:
        code = main(shlex.split(line)[1:])
    finally:
        set_cache(previous)
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[: len(shown)] == shown
