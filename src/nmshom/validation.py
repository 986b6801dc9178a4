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
from typing import NamedTuple


class Violation(NamedTuple):
    """One validation finding.

    ``code`` is a stable kebab-case identifier, ``message`` a human sentence,
    and ``subjects`` the ids or labels the finding is about (used by the
    command-line porcelain output).
    """

    code: str
    message: str
    subjects: tuple[str, ...] = ()


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        """Itemized human-readable rendering, one line per violation."""
        return "\n".join(f"- [{v.code}] {v.message}" for v in self.violations)

    def __bool__(self) -> bool:  # a 1-tuple is always true; a report is true when ok
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
# What integer tokens are made of.  Over these characters ``int`` takes exactly
# ``_INTEGER_RE``, so it rejects the rest: a lone or misplaced sign.  The parsers
# check many tokens at once by matching this class against their concatenation.
_INTEGER_CHARS = re.compile(r"[0-9+-]*")


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


def _significant_lines(text: str):
    """Yield (line_number, stripped_line) of flow or matrix text, skipping blanks and # comments.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``: the further breaks of ``str.splitlines``
    (``\\x0c``, ``\\x85``, U+2028, ...) would turn the rest of a comment into input.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


_CHUNK = 10**600  # 600 digits: below 640, the least digit limit the interpreter accepts


def _format_int(n: int) -> str:
    """``str(n)``, also for more digits than ``sys.get_int_max_str_digits()``.

    A computed divisor, witness entry or d.d value can be longer than any
    input token, and the answer is exact, so it is printed in full.
    """
    if -_CHUNK < n < _CHUNK:
        return str(n)
    rest, chunks = abs(n), []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(f"{low:0600}")
    return "-" * (n < 0) + str(rest) + "".join(reversed(chunks))
