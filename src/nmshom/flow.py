"""Combinatorial round-handle data for non-singular Morse-Smale flows.

A flow on a closed orientable n-manifold (n >= 2), all of whose recurrence
is a finite set of periodic orbits, is described here by those orbits and
integer incidence coefficients between them.  Every orbit carries an index in
0..n-1 (the number of expanding directions of its round handle) and each
incidence joins an orbit of index k to one of index k-1; orbits of equal
index never connect.  Summing handles by index gives a filtration of the
manifold, and the orbits become generators of a chain complex whose degree-k
group is free on the index-k orbits and whose boundary matrices are the
incidence coefficients.  Homology of that complex is homology of the
manifold.

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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .chain import ChainComplex
from .linalg import _significant_lines
from .validation import ParseError, ValidationError, ValidationReport, Violation, _parse_int

__all__ = ["Orbit", "Incidence", "FlowComplex", "parse_flow_complex", "ORBIT_ID_PATTERN"]

ORBIT_ID_PATTERN = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True, order=True)
class Orbit:
    """A periodic orbit with its round-handle index."""

    id: str
    index: int


@dataclass(frozen=True, order=True)
class Incidence:
    """Net boundary coefficient of ``lower`` in the boundary of ``upper``."""

    upper: str
    lower: str
    coefficient: int


class FlowComplex:
    """Orbits plus incidences on a manifold of the given dimension.

    The constructor accepts structurally dubious data (dangling incidence
    endpoints, out-of-range indices, duplicate ids) so that :meth:`validate`
    can report on it; only the dimension is constrained up front.
    """

    __slots__ = ("_dimension", "_orbits", "_incidences")

    def __init__(self, dimension: int, orbits=(), incidences=()):
        if not isinstance(dimension, int) or isinstance(dimension, bool):
            raise TypeError(f"dimension must be an int, got {dimension!r}")
        if dimension < 2:
            raise ValueError(f"dimension must be at least 2, got {dimension}")
        self._dimension = dimension
        self._orbits = tuple(sorted(orbits))
        self._incidences = tuple(sorted(incidences))
        for orbit in self._orbits:
            if not isinstance(orbit, Orbit):
                raise TypeError(f"not an Orbit: {orbit!r}")
        for incidence in self._incidences:
            if not isinstance(incidence, Incidence):
                raise TypeError(f"not an Incidence: {incidence!r}")

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def orbits(self) -> tuple[Orbit, ...]:
        return self._orbits

    @property
    def incidences(self) -> tuple[Incidence, ...]:
        return self._incidences

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
        """
        violations: list[Violation] = []
        top = self._dimension - 1

        by_id: dict[str, list[Orbit]] = {}
        for orbit in self._orbits:
            by_id.setdefault(orbit.id, []).append(orbit)

        for orbit_id, group in sorted(by_id.items()):
            if not ORBIT_ID_PATTERN.fullmatch(orbit_id):
                violations.append(
                    Violation(
                        "bad-orbit-id",
                        f"orbit id {orbit_id!r} is not a word over [A-Za-z0-9_]",
                        (orbit_id,),
                    )
                )
            if len(group) > 1:
                indices = ", ".join(str(o.index) for o in group)
                violations.append(
                    Violation(
                        "duplicate-orbit-id",
                        f"orbit id {orbit_id!r} is declared {len(group)} times (indices {indices})",
                        (orbit_id,),
                    )
                )

        for orbit in self._orbits:
            if not 0 <= orbit.index <= top:
                violations.append(
                    Violation(
                        "index-out-of-range",
                        f"orbit {orbit.id!r} has index {orbit.index}, outside 0..{top}",
                        (orbit.id,),
                    )
                )

        index_of = {oid: group[0].index for oid, group in by_id.items() if len(group) == 1}
        seen_pairs: dict[tuple[str, str], int] = {}
        for inc in self._incidences:
            for endpoint in (inc.upper, inc.lower):
                if endpoint not in by_id:
                    violations.append(
                        Violation(
                            "unknown-orbit",
                            f"incidence {inc.upper!r} -> {inc.lower!r} references "
                            f"undeclared orbit {endpoint!r}",
                            (endpoint,),
                        )
                    )
            pair = (inc.upper, inc.lower)
            seen_pairs[pair] = seen_pairs.get(pair, 0) + 1
            upper_index = index_of.get(inc.upper)
            lower_index = index_of.get(inc.lower)
            if upper_index is None or lower_index is None:
                continue
            if upper_index == lower_index:
                violations.append(
                    Violation(
                        "equal-index-incidence",
                        f"incidence joins {inc.upper!r} and {inc.lower!r}, both of index "
                        f"{upper_index}; orbits of equal index never connect",
                        (inc.upper, inc.lower),
                    )
                )
            elif upper_index != lower_index + 1:
                violations.append(
                    Violation(
                        "non-adjacent-incidence",
                        f"incidence {inc.upper!r} (index {upper_index}) -> {inc.lower!r} "
                        f"(index {lower_index}) must drop the index by exactly one",
                        (inc.upper, inc.lower),
                    )
                )
        for (upper, lower), count in sorted(seen_pairs.items()):
            if count > 1:
                violations.append(
                    Violation(
                        "duplicate-incidence",
                        f"{count} incidences recorded for pair {upper!r} -> {lower!r}; "
                        f"at most one net coefficient per pair is allowed",
                        (upper, lower),
                    )
                )

        if self._orbits:
            present = {orbit.index for orbit in self._orbits}
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
        by_degree: list[list[str]] = [[] for _ in range(self._dimension)]
        position: dict[str, tuple[int, int]] = {}
        for orbit in self._orbits:
            ids = by_degree[orbit.index]
            position[orbit.id] = (orbit.index, len(ids))
            ids.append(orbit.id)

        ranks = [len(ids) for ids in by_degree]
        # Column j of d_k lists the nonzero incidences of the j-th index-k orbit.
        columns = [[[] for _ in range(ranks[k])] for k in range(1, self._dimension)]
        for inc in self._incidences:
            if inc.coefficient:
                k, j = position[inc.upper]
                columns[k - 1][j].append((position[inc.lower][1], inc.coefficient))

        complex_ = ChainComplex._from_columns(ranks, columns, by_degree)
        square_report = complex_.check_boundary_condition()
        if not square_report.ok:
            raise ValidationError(square_report, "incidence data violates d.d = 0")
        return complex_

    def serialize(self) -> str:
        """Deterministic rendering in the nmsflow text format."""
        lines = ["format nmsflow 1", f"dim {self._dimension}"]
        lines.extend(f"orbit {o.id} index {o.index}" for o in self._orbits)
        lines.extend(
            f"incidence {i.upper} {i.lower} {i.coefficient}" for i in self._incidences
        )
        return "\n".join(lines) + "\n"


def _checked_id(token: str, lineno: int) -> str:
    if not ORBIT_ID_PATTERN.fullmatch(token):
        raise ParseError(lineno, f"invalid orbit id {token!r}")
    return token


def parse_flow_complex(text: str) -> FlowComplex:
    """Read the nmsflow text format documented in this module.

    Raises ParseError (with a line number) on malformed text.  Structural
    problems such as dangling incidences are not parse errors; they are left
    for :meth:`FlowComplex.validate`.
    """
    saw_format = False
    dimension: int | None = None
    orbits: list[Orbit] = []
    incidences: list[Incidence] = []
    last_line = 0
    for lineno, line in _significant_lines(text):
        last_line = lineno
        tokens = line.split()
        if not saw_format:
            if tokens[0] != "format":
                raise ParseError(lineno, "expected 'format nmsflow 1' header")
            if len(tokens) != 3 or tokens[1] != "nmsflow":
                raise ParseError(lineno, f"malformed format header {line!r}")
            if tokens[2] != "1":
                raise ParseError(lineno, f"unsupported nmsflow version {tokens[2]!r}")
            saw_format = True
            continue
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
            index = _parse_int(tokens[3], lineno, "orbit index")
            orbits.append(Orbit(orbit_id, index))
        elif directive == "incidence":
            if len(tokens) != 4:
                raise ParseError(lineno, f"malformed incidence directive {line!r}")
            upper = _checked_id(tokens[1], lineno)
            lower = _checked_id(tokens[2], lineno)
            coefficient = _parse_int(tokens[3], lineno, "coefficient")
            incidences.append(Incidence(upper, lower, coefficient))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if not saw_format:
        raise ParseError(1, "missing 'format nmsflow 1' header")
    if dimension is None:
        raise ParseError(last_line + 1, "missing dim directive")
    return FlowComplex(dimension, orbits, incidences)
