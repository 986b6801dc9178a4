"""Combinatorial round-handle data for non-singular Morse-Smale flows.

A flow on a closed orientable n-manifold (n >= 2), all of whose recurrence
is a finite set of periodic orbits, is described here by those orbits and
integer incidence coefficients between them.  Every orbit carries an index in
0..n-1 (the number of expanding directions of its round handle) and each
incidence joins an orbit of index k to one of index k-1; orbits of equal
index never connect.  Summing handles by index gives a filtration of the
manifold, and the orbits become generators of a chain complex whose degree-k
group is free on the index-k orbits and whose boundary matrices are the
incidence coefficients.  Homology of that complex is the homology of the
one-dimensional oriented foliation the flow defines, not of the manifold:
the complex has degrees 0..n-1 only.

Text format (one directive per line, ``#`` comments and blank lines
ignored)::

    format nmsflow 1
    dim 3
    orbit a index 0
    orbit b index 1
    incidence b a 2

Orbit ids are words over [A-Za-z0-9_].  ``incidence U L c`` records the net
coefficient c of lower orbit L in the boundary of upper orbit U; pairs not
listed have coefficient 0.

:func:`parse_flow_complex` splits each line after the header once.  If the
lines are well-formed records and one ``dim`` line, one match over the
concatenated ids and one over the concatenated integers check their
characters, and ``int`` converts the integers.  If any of that fails, the
document is read again token by token, by the checks that name the first
fault in a ParseError.  The parser keeps plain tuples; the records
:class:`Orbit` and :class:`Incidence`, which :class:`FlowComplex` takes, are
made from them when :attr:`FlowComplex.orbits` or
:attr:`FlowComplex.incidences` is first read.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .chain import ChainComplex
from .validation import ParseError, ValidationError, ValidationReport, Violation
from .validation import _INTEGER_CHARS, _parse_int, _significant_lines

__all__ = ["Orbit", "Incidence", "FlowComplex", "parse_flow_complex"]

_ORBIT_ID_PATTERN = re.compile(r"[A-Za-z0-9_]+")


class Orbit(NamedTuple):
    """A periodic orbit with its round-handle index, as the named tuple ``(id, index)``."""

    id: str
    index: int


class Incidence(NamedTuple):
    """Net boundary coefficient of ``lower`` in the boundary of ``upper``, as a named tuple."""

    upper: str
    lower: str
    coefficient: int


class FlowComplex:
    """Orbits plus incidences on a manifold of the given dimension.

    The constructor accepts structurally dubious data (dangling incidence
    endpoints, out-of-range indices, duplicate ids) so that :meth:`validate`
    can report on it.  Only the dimension, the record types and the types of
    their fields are checked up front: ids are ``str``, indices and
    coefficients are ``int`` and not ``bool``, so sorting and
    :meth:`validate` never meet a value they cannot compare.
    """

    __slots__ = ("_dimension", "_orbits", "_incidences", "_orbit_records", "_incidence_records")

    def __init__(self, dimension: int, orbits=(), incidences=()):
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise TypeError(f"dimension must be an int, got {dimension!r}")
        if dimension < 2:
            raise ValueError(f"dimension must be at least 2, got {dimension}")
        orbits, incidences = tuple(orbits), tuple(incidences)
        for orbit in orbits:
            if not isinstance(orbit, Orbit):
                raise TypeError(f"not an Orbit: {orbit!r}")
            name, index = orbit
            if isinstance(index, bool) or not (isinstance(name, str) and isinstance(index, int)):
                raise TypeError(f"Orbit fields must be (id: str, index: int): {orbit!r}")
        for inc in incidences:
            if not isinstance(inc, Incidence):
                raise TypeError(f"not an Incidence: {inc!r}")
            upper, lower, coefficient = inc
            if isinstance(coefficient, bool) or not (
                isinstance(upper, str) and isinstance(lower, str) and isinstance(coefficient, int)
            ):
                raise TypeError(
                    f"Incidence fields must be (upper: str, lower: str, coefficient: int): {inc!r}"
                )
        self._dimension = dimension
        self._orbits = self._orbit_records = tuple(sorted(orbits))
        self._incidences = self._incidence_records = tuple(sorted(incidences))

    @classmethod
    def _from_parsed(cls, dimension: int, orbits: list, incidences: list) -> "FlowComplex":
        """Build from the parser's ``(id, index)`` and ``(upper, lower, coefficient)`` tuples.

        Their fields cannot fail the checks of ``__init__``, which are not
        made.  Both lists are sorted in place, as their records would sort,
        and kept as plain tuples, which equal and hash as the records do.
        """
        orbits.sort()
        incidences.sort()
        flow = cls.__new__(cls)
        flow._dimension = dimension
        flow._orbits, flow._orbit_records = tuple(orbits), None
        flow._incidences, flow._incidence_records = tuple(incidences), None
        return flow

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def orbits(self) -> tuple[Orbit, ...]:
        if self._orbit_records is None:
            self._orbit_records = tuple(Orbit(*fields) for fields in self._orbits)
        return self._orbit_records

    @property
    def incidences(self) -> tuple[Incidence, ...]:
        if self._incidence_records is None:
            self._incidence_records = tuple(Incidence(*fields) for fields in self._incidences)
        return self._incidence_records

    def __eq__(self, other) -> bool:
        if not isinstance(other, FlowComplex):
            return NotImplemented
        return (
            self._dimension == other._dimension
            and self._orbits == other._orbits
            and self._incidences == other._incidences
        )

    def __hash__(self) -> int:
        return hash((self._dimension, self._orbits, self._incidences))

    def __repr__(self) -> str:
        return (
            f"FlowComplex(dimension={self._dimension}, "
            f"{len(self._orbits)} orbits, {len(self._incidences)} incidences)"
        )

    def validate(self) -> ValidationReport:
        """Structural checks; every finding is reported, none raises.

        Checked: orbit ids well formed and unique, indices within 0..n-1,
        incidence endpoints declared, no incidence between equal indices,
        index drop of exactly one, at most one incidence per orbit pair, and
        presence of an index-0 and an index-(n-1) orbit when any orbits exist.
        The ids, the indices and the incidence pairs are each first tested
        all at once; records are looked at one by one only where that test
        fails, so the violations come in the same order either way.
        """
        violations: list[Violation] = []
        top = self._dimension - 1

        # Every dict here is filled from the sorted records, so its keys come out ascending.
        index_of = dict(self._orbits)  # a duplicated id keeps its last index
        # nonempty ids are all words when their concatenation is one
        ids_ok = "" not in index_of and _ORBIT_ID_PATTERN.fullmatch("".join(index_of))
        unique = index_of  # the ids declared once, for the index checks
        if not ids_ok or len(index_of) < len(self._orbits):
            by_id: dict[str, list[int]] = {}  # id -> its declared indices
            for orbit_id, index in self._orbits:
                by_id.setdefault(orbit_id, []).append(index)
            for orbit_id, group in by_id.items():
                if not ids_ok and not _ORBIT_ID_PATTERN.fullmatch(orbit_id):
                    violations.append(
                        Violation(
                            "bad-orbit-id",
                            f"orbit id {orbit_id!r} is not a word over [A-Za-z0-9_]",
                            (orbit_id,),
                        )
                    )
                if len(group) > 1:
                    indices = ", ".join(map(str, group))
                    violations.append(
                        Violation(
                            "duplicate-orbit-id",
                            f"orbit id {orbit_id!r} is declared {len(group)} times "
                            f"(indices {indices})",
                            (orbit_id,),
                        )
                    )
            unique = {oid: group[0] for oid, group in by_id.items() if len(group) == 1}

        present = {index for _, index in self._orbits}
        if present and not (0 <= min(present) and max(present) <= top):
            for orbit_id, index in self._orbits:
                if not 0 <= index <= top:
                    violations.append(
                        Violation(
                            "index-out-of-range",
                            f"orbit {orbit_id!r} has index {index}, outside 0..{top}",
                            (orbit_id,),
                        )
                    )

        for upper, lower, _ in self._incidences:
            upper_index = unique.get(upper)
            lower_index = unique.get(lower)
            if upper_index is None or lower_index is None:
                for endpoint in (upper, lower):
                    if endpoint not in index_of:
                        violations.append(
                            Violation(
                                "unknown-orbit",
                                f"incidence {upper!r} -> {lower!r} references "
                                f"undeclared orbit {endpoint!r}",
                                (endpoint,),
                            )
                        )
            elif upper_index == lower_index:
                violations.append(
                    Violation(
                        "equal-index-incidence",
                        f"incidence joins {upper!r} and {lower!r}, both of index "
                        f"{upper_index}; orbits of equal index never connect",
                        (upper, lower),
                    )
                )
            elif upper_index != lower_index + 1:
                violations.append(
                    Violation(
                        "non-adjacent-incidence",
                        f"incidence {upper!r} (index {upper_index}) -> {lower!r} "
                        f"(index {lower_index}) must drop the index by exactly one",
                        (upper, lower),
                    )
                )

        if self._incidences:
            uppers, lowers, _ = zip(*self._incidences)
            pairs = list(zip(uppers, lowers))
            if len(set(pairs)) < len(pairs):
                seen_pairs: dict[tuple[str, str], int] = {}
                for pair in pairs:
                    seen_pairs[pair] = seen_pairs.get(pair, 0) + 1
                for (upper, lower), count in seen_pairs.items():
                    if count > 1:
                        violations.append(
                            Violation(
                                "duplicate-incidence",
                                f"{count} incidences recorded for pair {upper!r} -> {lower!r}; "
                                f"at most one net coefficient per pair is allowed",
                                (upper, lower),
                            )
                        )

        if present:
            if 0 not in present:
                violations.append(
                    Violation(
                        "missing-attracting-orbit",
                        "no orbit of index 0; a nonempty flow needs an attracting orbit",
                    )
                )
            if top not in present:
                violations.append(
                    Violation(
                        "missing-repelling-orbit",
                        f"no orbit of index {top}; a nonempty flow needs a repelling orbit",
                    )
                )

        return ValidationReport(tuple(violations))

    def to_chain_complex(self) -> ChainComplex:
        """Assemble the chain complex generated by the orbits.

        Degree-k generators are the index-k orbits in lexicographic id
        order, and entry (i, j) of d_k is the recorded coefficient of the
        i-th index-(k-1) orbit in the boundary of the j-th index-k orbit.
        Raises ValidationError if structural validation fails or the
        resulting boundaries do not compose to zero.
        """
        report = self.validate()
        if not report.ok:
            raise ValidationError(report, "flow complex is not structurally valid")

        # Orbits are sorted by id, so each degree's list comes out sorted.
        by_degree: dict[int, list[str]] = {}
        position: dict[str, tuple[int, int]] = {}
        for orbit_id, index in self._orbits:
            ids = by_degree.setdefault(index, [])
            position[orbit_id] = (index, len(ids))
            ids.append(orbit_id)

        # Only occupied degrees get lists; the empty ones share (), so a large
        # dimension costs a slot per degree in each of labels, ranks and rows.
        labels: list = [()] * self._dimension
        # Row i of d_k maps j to the nonzero coefficient of the i-th
        # index-(k-1) orbit in the boundary of the j-th index-k orbit.
        rows: list = [()] * (self._dimension - 1)
        for k, ids in by_degree.items():
            labels[k] = ids
            if k < self._dimension - 1:
                rows[k] = [{} for _ in ids]
        for upper, lower, coefficient in self._incidences:
            if coefficient:
                k, j = position[upper]
                rows[k - 1][position[lower][1]][j] = coefficient

        complex_ = ChainComplex._from_rows(tuple(map(len, labels)), rows, labels)
        square_report = complex_.check_boundary_condition()
        if not square_report.ok:
            raise ValidationError(square_report, "incidence data violates d.d = 0")
        return complex_

    def serialize(self) -> str:
        """Deterministic rendering in the nmsflow text format."""
        lines = ["format nmsflow 1", f"dim {self._dimension}"]
        lines.extend(f"orbit {orbit_id} index {index}" for orbit_id, index in self._orbits)
        lines.extend(
            f"incidence {upper} {lower} {coefficient}"
            for upper, lower, coefficient in self._incidences
        )
        return "\n".join(lines) + "\n"


def _checked_id(token: str, lineno: int) -> str:
    if not _ORBIT_ID_PATTERN.fullmatch(token):
        raise ParseError(lineno, f"invalid orbit id {token!r}")
    return token


def _read_well_formed(lines) -> FlowComplex | None:
    """The flow of a body of well-formed records and one dim line; None for any other body.

    Ids and integers are each checked by one character class over their concatenation;
    a pattern with a repeated group would keep a backtracking entry per token.
    """
    dim, orbits, incidences = None, [], []
    for _, line in lines:
        tokens = line.split()
        if len(tokens) == 4:
            directive, first, second, third = tokens
            if directive == "incidence":
                incidences.append((first, second, third))
            elif directive == "orbit" and second == "index":
                orbits.append((first, third))
            else:
                return None
        elif tokens[0] == "dim" and len(tokens) == 2 and dim is None:
            dim = tokens[1]
        else:
            return None
    if dim is None or not orbits:
        return None
    ids, indices = zip(*orbits)
    uppers, lowers, coefficients = zip(*incidences) if incidences else ((),) * 3
    if not (
        _ORBIT_ID_PATTERN.fullmatch("".join((*ids, *uppers, *lowers)))
        and _INTEGER_CHARS.fullmatch("".join((dim, *indices, *coefficients)))
    ):
        return None
    try:
        dimension = int(dim)
        orbits = list(zip(ids, map(int, indices)))
        incidences = list(zip(uppers, lowers, map(int, coefficients)))
    except ValueError:  # a misplaced sign, or past the interpreter's digit limit
        return None
    return FlowComplex._from_parsed(dimension, orbits, incidences) if dimension >= 2 else None


def parse_flow_complex(text: str) -> FlowComplex:
    """Read the nmsflow text format documented in this module.

    Raises ParseError (with a line number) on malformed text.  Structural
    problems such as dangling incidences are not parse errors; they are left
    for :meth:`FlowComplex.validate`.
    """
    lines = _significant_lines(text)
    first = next(lines, None)
    if first is None:
        raise ParseError(1, "missing 'format nmsflow 1' header")
    lineno, line = first
    tokens = line.split()
    if tokens[0] != "format":
        raise ParseError(lineno, "expected 'format nmsflow 1' header")
    if len(tokens) != 3 or tokens[1] != "nmsflow":
        raise ParseError(lineno, f"malformed format header {line!r}")
    if tokens[2] != "1":
        raise ParseError(lineno, f"unsupported nmsflow version {tokens[2]!r}")
    flow = _read_well_formed(lines)
    if flow is not None:
        return flow
    # Some line is not well formed: read the body again, token by token as the format says.
    lines = _significant_lines(text)
    next(lines)
    dimension: int | None = None
    orbits: list[tuple[str, int]] = []
    incidences: list[tuple[str, str, int]] = []
    for lineno, line in lines:
        tokens = line.split()
        directive = tokens[0]
        if directive == "format":
            raise ParseError(lineno, "duplicate format header")
        if directive == "dim":
            if dimension is not None:
                raise ParseError(lineno, "duplicate dim directive")
            if len(tokens) != 2:
                raise ParseError(lineno, f"malformed dim directive {line!r}")
            value = _parse_int(tokens[1], lineno, "dimension")
            if value < 2:
                raise ParseError(lineno, f"dimension must be at least 2, got {value}")
            dimension = value
        elif directive == "orbit":
            if len(tokens) != 4 or tokens[2] != "index":
                raise ParseError(lineno, f"malformed orbit directive {line!r}")
            orbit_id = _checked_id(tokens[1], lineno)
            orbits.append((orbit_id, _parse_int(tokens[3], lineno, "orbit index")))
        elif directive == "incidence":
            if len(tokens) != 4:
                raise ParseError(lineno, f"malformed incidence directive {line!r}")
            upper = _checked_id(tokens[1], lineno)
            lower = _checked_id(tokens[2], lineno)
            incidences.append((upper, lower, _parse_int(tokens[3], lineno, "coefficient")))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if dimension is None:
        raise ParseError(lineno + 1, "missing dim directive")
    return FlowComplex._from_parsed(dimension, orbits, incidences)
