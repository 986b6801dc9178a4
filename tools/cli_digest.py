"""Digest nmshom's CLI output over fixed inputs, to check two source trees agree byte for byte.

Usage, from the root of a source checkout::

    python3 tools/cli_digest.py SRC > digest.txt

SRC is the ``src`` directory to import nmshom from.  The inputs are the
benchmark's three workload pools (``perfbench/gen.py`` with the sizes in
``perfbench/run.py``'s ``WORKLOADS``) for seeds 101 and 7, each run in
porcelain and in human mode, plus 300 seeded small matrices run through
``snf --witness`` in both modes.  Every call goes in-process through
``nmshom.cli.main`` and prints one line::

    workload seed id mode exit sha256(stdout) sha256(stderr)

The input files are written under ``.cli-digest/`` in the checkout, a fixed
directory, so a path that reaches the output is the same on every run.  Run
the script once per source tree and ``diff`` the two outputs: no difference
means the same exit codes and the same bytes on both streams.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".cli-digest"
SEEDS = (101, 7)
SMALL_MATRICES = 300


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(main, argv: list[str]) -> tuple[str, str, str]:
    """Run ``main(argv)``; return the exit (or the raised type) and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # an escaped exception is itself a difference
            code = f"!{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _small_matrix_text(rng: random.Random) -> str:
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    bound = rng.choice((3, 40, 1000, 10**6))
    density = rng.choice((0.3, 0.7, 1.0))
    lines = [f"rows {rows} cols {cols}"]
    if cols:
        for _ in range(rows):
            row = (rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols))
            lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _inputs():
    """Yield (workload, seed, id, porcelain argv with ``{path}``, file text)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import run

    for name, params in run.WORKLOADS.items():
        for seed in SEEDS:
            for case in gen.make_pool(name, seed, params["pool"], params["lo"], params["hi"]):
                yield name, seed, case.id, case.argv, case.text
    rng = random.Random("cli-digest")
    argv = ["--porcelain", "snf", "--witness", "{path}"]
    for i in range(SMALL_MATRICES):
        yield "snf-small", 0, i, argv, _small_matrix_text(rng)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_digest.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "nmshom" / "cli.py").is_file():
        print(f"error: no nmshom sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from nmshom import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"error: nmshom was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    for workload, seed, case_id, porcelain_argv, text in _inputs():
        path = WORK / f"{workload}-{seed}-{case_id}.txt"
        path.write_text(text, encoding="utf-8")
        porcelain_argv = [str(path) if a == "{path}" else a for a in porcelain_argv]
        human_argv = [a for a in porcelain_argv if a != "--porcelain"]
        for mode, call_argv in (("porcelain", porcelain_argv), ("human", human_argv)):
            code, out, err = _call(cli.main, call_argv)
            print(workload, seed, case_id, mode, code, _sha(out), _sha(err))
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
