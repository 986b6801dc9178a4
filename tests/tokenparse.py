"""Reference readers for the nmsflow and matrix text formats, token by token.

These are the format rules written out directly: a document is split into
lines at ``\\n``, ``\\r\\n`` and ``\\r``, each line is stripped, blank lines
and ``#`` comments are skipped, and every other line is split into tokens by
``str.split()``.  Each token is then checked by looking at its characters.
Nothing here uses nmshom's line patterns, its integer or id checks or its
line reader, so the differential tests can hold the fast parsers to these
rules: equal records, or a ParseError with the same line and reason.
"""

from __future__ import annotations

import string
import sys

from nmshom import FlowComplex, Incidence, IntegerMatrix, Orbit, ParseError

DIGITS = frozenset(string.digits)
ID_LETTERS = frozenset(string.ascii_letters + string.digits + "_")


def _lines(text: str):
    """(line number, stripped line) of every line that is neither blank nor a comment."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [
        (number, line.strip())
        for number, line in enumerate(lines, start=1)
        if line.strip() and not line.strip().startswith("#")
    ]


def _is_digits(token: str) -> bool:
    return bool(token) and set(token) <= DIGITS


def _integer(token: str, line: int, what: str) -> int:
    """An optionally signed run of ASCII digits, no longer than the interpreter converts."""
    unsigned = token[1:] if token[:1] in ("+", "-") else token
    if not _is_digits(unsigned):
        raise ParseError(line, f"non-integer {what} {token!r}")
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            line, f"too long {what}: over {sys.get_int_max_str_digits()} digits"
        ) from None


def _orbit_id(token: str, line: int) -> str:
    if not token or not set(token) <= ID_LETTERS:
        raise ParseError(line, f"invalid orbit id {token!r}")
    return token


def parse_flow(text: str) -> FlowComplex:
    lines = _lines(text)
    if not lines:
        raise ParseError(1, "missing 'format nmsflow 1' header")
    (header_line, header), body = lines[0], lines[1:]
    tokens = header.split()
    if tokens[0] != "format":
        raise ParseError(header_line, "expected 'format nmsflow 1' header")
    if len(tokens) != 3 or tokens[1] != "nmsflow":
        raise ParseError(header_line, f"malformed format header {header!r}")
    if tokens[2] != "1":
        raise ParseError(header_line, f"unsupported nmsflow version {tokens[2]!r}")
    dimension = None
    orbits, incidences = [], []
    for number, line in body:
        tokens = line.split()
        if tokens[0] == "format":
            raise ParseError(number, "duplicate format header")
        if tokens[0] == "dim":
            if dimension is not None:
                raise ParseError(number, "duplicate dim directive")
            if len(tokens) != 2:
                raise ParseError(number, f"malformed dim directive {line!r}")
            dimension = _integer(tokens[1], number, "dimension")
            if dimension < 2:
                raise ParseError(number, f"dimension must be at least 2, got {dimension}")
        elif tokens[0] == "orbit":
            if len(tokens) != 4 or tokens[2] != "index":
                raise ParseError(number, f"malformed orbit directive {line!r}")
            orbit_id = _orbit_id(tokens[1], number)
            orbits.append(Orbit(orbit_id, _integer(tokens[3], number, "orbit index")))
        elif tokens[0] == "incidence":
            if len(tokens) != 4:
                raise ParseError(number, f"malformed incidence directive {line!r}")
            upper, lower = _orbit_id(tokens[1], number), _orbit_id(tokens[2], number)
            incidences.append(Incidence(upper, lower, _integer(tokens[3], number, "coefficient")))
        else:
            raise ParseError(number, f"unknown directive {tokens[0]!r}")
    if dimension is None:
        raise ParseError(lines[-1][0] + 1, "missing dim directive")
    return FlowComplex(dimension, orbits, incidences)


def parse_matrix(text: str) -> IntegerMatrix:
    lines = _lines(text)
    if not lines:
        raise ParseError(1, "missing 'rows R cols C' header")
    (header_line, header), body = lines[0], lines[1:]
    tokens = header.split()
    if not (
        len(tokens) == 4
        and (tokens[0], tokens[2]) == ("rows", "cols")
        and _is_digits(tokens[1])
        and _is_digits(tokens[3])
    ):
        raise ParseError(header_line, f"expected 'rows R cols C' header, got {header!r}")
    rows = _integer(tokens[1], header_line, "row count")
    cols = _integer(tokens[3], header_line, "column count")
    expected = rows if cols else 0
    if len(body) < expected:
        raise ParseError(lines[-1][0], f"expected {expected} matrix rows, found {len(body)}")
    if len(body) > expected:
        raise ParseError(body[expected][0], "unexpected content after the last matrix row")
    entries = []
    for number, line in body:
        tokens = line.split()
        if len(tokens) != cols:
            raise ParseError(number, f"expected {cols} entries, found {len(tokens)}")
        entries += [_integer(token, number, "entry") for token in tokens]
    return IntegerMatrix(rows, cols, entries)
