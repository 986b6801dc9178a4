"""Structured validation reports and the exceptions raised on bad input.

Validation never throws on its own: structurally questionable objects can be
built and inspected, and ``validate`` methods return a ValidationReport
listing every problem found.  Operations that *require* a valid object
(homology, conversion to a chain complex) raise ValidationError carrying the
report.  Text parsers raise ParseError with a 1-based line number.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One validation finding.

    ``code`` is a stable kebab-case identifier, ``message`` a human sentence,
    and ``subjects`` the ids or labels the finding is about (used by the
    command-line porcelain output).
    """

    code: str
    message: str
    subjects: tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        """Itemized human-readable rendering, one line per violation."""
        return "\n".join(f"- [{v.code}] {v.message}" for v in self.violations)

    def __bool__(self) -> bool:
        return self.ok


class ValidationError(ValueError):
    """Raised when an operation needs a valid object but the report is not ok."""

    def __init__(self, report: ValidationReport, context: str = ""):
        self.report = report
        self.context = context
        head = context or "validation failed"
        super().__init__(head + ("\n" + report.describe() if report.violations else ""))


class ParseError(ValueError):
    """Malformed text input.  ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.reason = message
        super().__init__(f"line {line}: {message}")


_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _parse_int(token: str, line: int, what: str, shown: str | None = None) -> int:
    """Read an integer token of any of the three text formats: ``[+-]?[0-9]+`` only.

    ``int`` alone would also take ``1_0``, digits of other scripts and
    surrounding blanks.  A malformed token is reported as a non-integer
    ``what``, quoting ``shown`` (the token itself by default).
    """
    if not _INTEGER_RE.fullmatch(token):
        raise ParseError(line, f"non-integer {what} {token if shown is None else shown!r}")
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts from text
        limit = sys.get_int_max_str_digits()
        raise ParseError(line, f"too long {what}: over {limit} digits") from None
