"""The CLI's output, byte for byte, against the digest pinned under ``tests/digest``.

``tools/cli_digest.py`` runs every command over fixed inputs, in porcelain
and in human mode, and hashes both streams of each call.  Its ``parser``
lines hash argparse's help and usage text, which differs between Python
minor versions, so they are pinned per minor in ``parser-3.N.txt``; every
other line is the same on 3.10-3.13 and is pinned once in ``common.txt``.
Changing those files is the one way to change the CLI's output.  To pin a
new minor, run the tool with that interpreter and keep its ``parser`` lines.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import pytest

from nmshom import cli

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "digest"
_spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def first_difference(actual: list[str], expected: list[str]) -> str | None:
    """Name the first call whose digest line differs from the pinned one, or None."""
    for got, want in itertools.zip_longest(actual, expected):
        if got != want:
            workload, seed, case_id, mode = (got or want).split()[:4]
            return (
                f"first difference at workload {workload}, seed {seed}, id {case_id} "
                f"({mode} mode)\n  made:   {got}\n  pinned: {want}"
            )
    return None


def test_cli_output_matches_the_pinned_digest(tmp_path, monkeypatch):
    minor = f"{sys.version_info.major}.{sys.version_info.minor}"
    parser_pinned = PINNED / f"parser-{minor}.txt"
    if not parser_pinned.is_file():
        pytest.skip(f"no digest pinned for Python {minor}: no tests/digest/{parser_pinned.name}")
    monkeypatch.setenv("COLUMNS", cli_digest.COLUMNS)
    lines = list(cli_digest.digest(cli.main, tmp_path / "inputs"))
    parser_lines = [line for line in lines if line.startswith("parser ")]
    other_lines = [line for line in lines if not line.startswith("parser ")]
    for made, pinned in ((other_lines, PINNED / "common.txt"), (parser_lines, parser_pinned)):
        difference = first_difference(made, pinned.read_text(encoding="utf-8").splitlines())
        assert difference is None, f"{pinned.name}: {difference}"


def test_first_difference_names_the_call():
    pinned = ["snf-small 0 4 porcelain 0 aa bb", "snf-small 0 4 human 0 aa bb"]
    assert first_difference(pinned, pinned) is None
    changed = [pinned[0], "snf-small 0 4 human 0 aa bc"]
    assert first_difference(changed, pinned).startswith(
        "first difference at workload snf-small, seed 0, id 4 (human mode)"
    )
    assert "id 4 (human mode)" in first_difference(pinned[:1], pinned)
