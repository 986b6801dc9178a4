"""Replays the acceptance-criteria verdict lines after the test run.

Test output is normally captured; recording the one-line verdicts here and
writing them from a terminal-summary hook keeps them visible in every run.
The configure hook passes the source directory on to subprocesses.
"""

import os
from pathlib import Path

SOURCE = str(Path(__file__).resolve().parent.parent / "src")

VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_configure(config):
    # pyproject.toml's pythonpath puts src on this process's sys.path only;
    # the tests that run ``python -m nmshom`` need it in the environment.
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SOURCE not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SOURCE, *paths]))


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
