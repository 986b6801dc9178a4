"""Seifert fibrations over an orientable base, as flows and in closed form.

A fibration over a genus-g orientable surface with unnormalized invariants
(g; b1/a1, ..., bm/am), all a_i >= 1 and gcd(a_i, b_i) = 1, carries a flow
with m orbits of index 0 (one per invariant pair), m + 2g - 1 orbits of
index 1, and a single orbit of index 2 on the fibered 3-manifold.  The only
nonzero incidences tie the first m - 1 index-1 orbits
to consecutive index-0 orbits with weights +a_j and -a_(j+1), giving the
bidiagonal boundary matrix this module also exposes directly.  Its
elementary divisors are the invariant factors of diag(a_1, ..., a_m) less
the largest, lcm(a_1, ..., a_m), so the closed form reads the torsion of
the foliation's H_0 straight off the a_i.

The compact text form is ``g;b1/a1,b2/a2,...`` (note beta before alpha, the
traditional fraction), e.g. ``2;1/2,1/3,1/5``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .chain import HomologyGroup
from .flow import FlowComplex, Incidence, Orbit
from .linalg import IntegerMatrix, _divisor_chain
from .validation import ParseError, ValidationError, ValidationReport, Violation, _format_int, _parse_int

__all__ = [
    "SeifertInvariant",
    "seifert_equivalent",
    "boundary_matrix",
    "parse_invariant",
    "format_invariant",
]


class _Invariant(NamedTuple):
    genus: int
    pairs: tuple[tuple[int, int], ...]


class SeifertInvariant(_Invariant):
    """Unnormalized invariants (genus; beta_1/alpha_1, ..., beta_m/alpha_m).

    Pairs are stored as a tuple of (alpha, beta) tuples.  Construction checks
    types and does not coerce them: each pair must be a tuple or list of two
    items, and the genus and every alpha and beta an ``int`` and not a
    ``bool``.  Semantic requirements (m >= 1, alpha_i >= 1, coprimality,
    nonnegative genus) are reported by :meth:`validate`.
    """

    __slots__ = ()

    def __new__(cls, genus: int, pairs: tuple[tuple[int, int], ...]):
        pairs = tuple(tuple(pair) if isinstance(pair, (tuple, list)) else pair for pair in pairs)
        if any(not isinstance(pair, tuple) or len(pair) != 2 for pair in pairs) or any(
            isinstance(n, bool) or not isinstance(n, int)
            for n in (genus, *(n for pair in pairs for n in pair))
        ):
            raise TypeError(
                "SeifertInvariant fields must be (genus: int, "
                f"pairs: ((alpha: int, beta: int), ...)): {(genus, pairs)!r}"
            )
        return super().__new__(cls, genus, pairs)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make; check there too
        return cls(*iterable)

    def __str__(self) -> str:
        return format_invariant(self)

    def validate(self) -> ValidationReport:
        violations = []
        if self.genus < 0:
            violations.append(
                Violation("negative-genus", f"genus must be nonnegative, got {self.genus}")
            )
        if not self.pairs:
            violations.append(
                Violation("empty-fiber-list", "at least one invariant pair is required")
            )
        for position, (alpha, beta) in enumerate(self.pairs, start=1):
            if alpha < 1:
                violations.append(
                    Violation(
                        "alpha-below-one",
                        f"pair {position}: alpha must be at least 1, got {alpha}",
                        (str(position),),
                    )
                )
            elif math.gcd(alpha, beta) != 1:
                violations.append(
                    Violation(
                        "non-coprime-pair",
                        f"pair {position}: {beta}/{alpha} has gcd {math.gcd(alpha, beta)}, "
                        f"alpha and beta must be coprime",
                        (str(position),),
                    )
                )
        return ValidationReport(tuple(violations))

    def _require_valid(self) -> None:
        report = self.validate()
        if not report.ok:
            raise ValidationError(report, f"invalid Seifert invariants {format_invariant(self)!r}")

    def to_flow_complex(self) -> FlowComplex:
        """The flow on the fibered 3-manifold these invariants describe.

        Orbit ids are zero-padded so lexicographic order within each index
        agrees with construction order however many orbits there are.
        """
        self._require_valid()
        m = len(self.pairs)
        saddle_count = m + 2 * self.genus - 1
        width = len(str(max(m, saddle_count, 1)))

        def name(index: int, position: int) -> str:
            return f"o{index}_{position:0{width}d}"

        minima = [name(0, i) for i in range(1, m + 1)]
        saddles = [name(1, j) for j in range(1, saddle_count + 1)]
        orbits = [Orbit(oid, 0) for oid in minima]
        orbits += [Orbit(oid, 1) for oid in saddles]
        orbits.append(Orbit(name(2, 1), 2))

        alphas = [alpha for alpha, _ in self.pairs]
        incidences = []
        for j in range(m - 1):
            incidences.append(Incidence(saddles[j], minima[j], alphas[j]))
            incidences.append(Incidence(saddles[j], minima[j + 1], -alphas[j + 1]))
        return FlowComplex(3, orbits, incidences)

    def homology_closed_form(self) -> list[HomologyGroup]:
        """Homology of the flow's one-dimensional foliation, without building the flow.

        These are the base surface's groups, with torsion in H_0 from the
        exceptional fibers: H_2 is free of rank one, H_1 is free of rank 2g,
        and H_0 is Z plus the invariant factors of diag(a_1, ..., a_m) above
        1, with the largest one, lcm(a_1, ..., a_m), dropped.  No matrix is
        built.

        >>> [str(group) for group in parse_invariant("0;1/6,1/10,1/15").homology_closed_form()]
        ['Z + Z/30', '0', 'Z']
        """
        self._require_valid()
        factors = _divisor_chain(alpha for alpha, _ in self.pairs)[:-1]
        torsion = tuple(d for d in factors if d > 1)
        return [
            HomologyGroup(degree=0, betti=1, torsion=torsion),
            HomologyGroup(degree=1, betti=2 * self.genus),
            HomologyGroup(degree=2, betti=1),
        ]

    def normalized(self) -> "SeifertInvariant":
        """Canonical representative of the equivalence class.

        Pairs with alpha > 1 are reduced to 0 <= beta < alpha and sorted;
        one trailing pair with alpha = 1 absorbs what that drops, the sum of
        beta // alpha (beta/alpha = (beta mod alpha)/alpha + beta // alpha),
        so the total sum of beta/alpha is preserved exactly.
        """
        self._require_valid()
        reduced = sorted((alpha, beta % alpha) for alpha, beta in self.pairs if alpha > 1)
        excess = sum(beta // alpha for alpha, beta in self.pairs)
        return SeifertInvariant(self.genus, (*reduced, (1, excess)))


def boundary_matrix(invariant: SeifertInvariant) -> IntegerMatrix:
    """The m x (m-1) matrix of weights tying saddles to index-0 orbits.

    Column j carries +alpha_j in row j and -alpha_(j+1) in row j+1; the
    elementary divisors of this matrix are the torsion of H_0.
    """
    invariant._require_valid()
    alphas = [alpha for alpha, _ in invariant.pairs]
    m = len(alphas)
    rows = [[0] * (m - 1) for _ in range(m)]
    for j in range(m - 1):
        rows[j][j] = alphas[j]
        rows[j + 1][j] = -alphas[j + 1]
    return IntegerMatrix.from_rows(rows, cols=m - 1)


def seifert_equivalent(first: SeifertInvariant, second: SeifertInvariant) -> bool:
    """Do the two invariant lists describe the same fibration?

    True exactly when the genera agree and the pairs with alpha > 1 can be
    matched up so that matched alphas are equal, matched betas agree modulo
    alpha, and the exact rational sums of beta/alpha coincide, compared as
    integers after scaling both by the lcm L of all alphas: sum of
    beta * (L / alpha).  Both arguments must be valid.
    """
    first._require_valid()
    second._require_valid()
    if first.genus != second.genus:
        return False

    # Pairs can be matched exactly when the multisets of (alpha, beta mod
    # alpha) agree; this follows the definition, not the normal form.
    def residues(invariant: SeifertInvariant) -> Counter:
        return Counter((alpha, beta % alpha) for alpha, beta in invariant.pairs if alpha > 1)

    if residues(first) != residues(second):
        return False

    lcm = math.lcm(*(alpha for invariant in (first, second) for alpha, _ in invariant.pairs))

    def total(invariant: SeifertInvariant) -> int:
        return sum(beta * (lcm // alpha) for alpha, beta in invariant.pairs)

    return total(first) == total(second)


def parse_invariant(text: str) -> SeifertInvariant:
    """Read the compact form ``g;b1/a1,b2/a2,...``.

    Whitespace around tokens is tolerated.  An empty pair list parses (to an
    invariant that then fails validation), so ``0;`` is a parse success but
    semantically invalid.
    """
    s = text.strip()
    head, sep, tail = s.partition(";")
    if not sep:
        raise ParseError(1, f"expected ';' after the genus in {text!r}")
    genus = _parse_int(head.strip(), 1, "genus")
    pairs = []
    if tail.strip():
        for chunk in tail.split(","):
            beta_text, slash, alpha_text = chunk.partition("/")
            if not slash:
                raise ParseError(1, f"expected beta/alpha, got {chunk.strip()!r}")
            beta = _parse_int(beta_text.strip(), 1, "invariant pair", chunk.strip())
            alpha = _parse_int(alpha_text.strip(), 1, "invariant pair", chunk.strip())
            pairs.append((alpha, beta))
    return SeifertInvariant(genus, tuple(pairs))


def format_invariant(invariant: SeifertInvariant) -> str:
    """Inverse of :func:`parse_invariant`; betas come before alphas."""
    body = ",".join(f"{_format_int(beta)}/{alpha}" for alpha, beta in invariant.pairs)
    return f"{invariant.genus};{body}"
