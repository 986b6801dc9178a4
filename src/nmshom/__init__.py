"""Homology of non-singular Morse-Smale flows from combinatorial orbit data.

The package computes over the integers only: Smith normal form with
unimodular witnesses (:mod:`nmshom.linalg`), chain complexes and their
homology (:mod:`nmshom.chain`), the orbit-and-incidence description of a
flow with its text format (:mod:`nmshom.flow`), and the Seifert-fibration
family with a closed-form answer to check the pipeline against
(:mod:`nmshom.seifert`).  The ``nmshom`` console script in
:mod:`nmshom.cli` exposes all of it.
"""

from .chain import ChainComplex, HomologyGroup
from .linalg import (
    IntegerMatrix,
    SmithDecomposition,
    elementary_divisors,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)
from .flow import FlowComplex, Incidence, Orbit, parse_flow_complex
from .seifert import (
    SeifertInvariant,
    boundary_matrix,
    format_invariant,
    parse_invariant,
    seifert_equivalent,
)
from .validation import (
    ParseError,
    ValidationError,
    ValidationReport,
    Violation,
)

__version__ = "0.1.0"

__all__ = [
    "ChainComplex",
    "HomologyGroup",
    "IntegerMatrix",
    "SmithDecomposition",
    "elementary_divisors",
    "format_matrix",
    "parse_matrix",
    "smith_normal_form",
    "FlowComplex",
    "Incidence",
    "Orbit",
    "parse_flow_complex",
    "SeifertInvariant",
    "boundary_matrix",
    "format_invariant",
    "parse_invariant",
    "seifert_equivalent",
    "ParseError",
    "ValidationError",
    "ValidationReport",
    "Violation",
    "__version__",
]
