"""The contract of nmshom's value records, its public names, and what importing the CLI loads.

Eight types carry values: Orbit, Incidence, Violation, ValidationReport,
HomologyGroup, SeifertInvariant, SmithDecomposition and CommandResult.  Each
keeps its field names, their order and defaults, its repr, equality and hash
of equal records, and refuses assignment.  The package exports a fixed list
of names, and the checks of its Smith core live in ``tests/oracles.py``.
"""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import nmshom
from nmshom import (
    HomologyGroup,
    Incidence,
    IntegerMatrix,
    Orbit,
    SeifertInvariant,
    ValidationReport,
    Violation,
    smith_normal_form,
)
from nmshom.cli import CommandResult

NO_DEFAULT = inspect.Parameter.empty

# (build, repr of the built record, (field name, default) in order)
RECORDS = {
    "Orbit": (
        lambda: Orbit("a", 0),
        "Orbit(id='a', index=0)",
        [("id", NO_DEFAULT), ("index", NO_DEFAULT)],
    ),
    "Incidence": (
        lambda: Incidence("b", "a", 2),
        "Incidence(upper='b', lower='a', coefficient=2)",
        [("upper", NO_DEFAULT), ("lower", NO_DEFAULT), ("coefficient", NO_DEFAULT)],
    ),
    "Violation": (
        lambda: Violation("code", "msg", ("a", "b")),
        "Violation(code='code', message='msg', subjects=('a', 'b'))",
        [("code", NO_DEFAULT), ("message", NO_DEFAULT), ("subjects", ())],
    ),
    "ValidationReport": (
        lambda: ValidationReport((Violation("c", "m"),)),
        "ValidationReport(violations=(Violation(code='c', message='m', subjects=()),))",
        [("violations", ())],
    ),
    "HomologyGroup": (
        lambda: HomologyGroup(0, 1, (2,)),
        "HomologyGroup(degree=0, betti=1, torsion=(2,))",
        [("degree", NO_DEFAULT), ("betti", NO_DEFAULT), ("torsion", ())],
    ),
    "SeifertInvariant": (
        lambda: SeifertInvariant(1, ((2, 1), (3, -1))),
        "SeifertInvariant(genus=1, pairs=((2, 1), (3, -1)))",
        [("genus", NO_DEFAULT), ("pairs", NO_DEFAULT)],
    ),
    "SmithDecomposition": (
        lambda: smith_normal_form(IntegerMatrix.from_rows([[2, 0], [0, 3]])),
        "SmithDecomposition(s=IntegerMatrix.from_rows([[1, 0], [0, 6]]), "
        "u=IntegerMatrix.from_rows([[1, 1], [-3, -2]]), "
        "v=IntegerMatrix.from_rows([[-1, -3], [1, 2]]), divisors=(1, 6))",
        [("s", NO_DEFAULT), ("u", NO_DEFAULT), ("v", NO_DEFAULT), ("divisors", NO_DEFAULT)],
    ),
    "CommandResult": (
        lambda: CommandResult(0, "valid", ("valid",)),
        "CommandResult(exit_code=0, human_text='valid', machine_lines=('valid',), diagnostics='')",
        [
            ("exit_code", NO_DEFAULT),
            ("human_text", ""),
            ("machine_lines", None),
            ("diagnostics", ""),
        ],
    ),
}


@pytest.mark.parametrize("name", RECORDS)
class TestRecordContract:
    def test_repr(self, name):
        build, expected, _ = RECORDS[name]
        assert repr(build()) == expected

    def test_fields_in_order_with_defaults(self, name):
        build, _, fields = RECORDS[name]
        record = build()
        parameters = inspect.signature(type(record)).parameters.values()
        assert [(p.name, p.default) for p in parameters] == fields
        rebuilt = type(record)(*(getattr(record, field) for field, _ in fields))
        assert rebuilt == record

    def test_equal_records_hash_equal(self, name):
        build = RECORDS[name][0]
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_assignment_refused(self, name):
        build, _, fields = RECORDS[name]
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, fields[0][0], None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_defaults_fill_in(self, name):
        build, _, fields = RECORDS[name]
        record = build()
        required = [getattr(record, field) for field, default in fields if default is NO_DEFAULT]
        defaulted = type(record)(*required)
        for field, default in fields:
            if default is not NO_DEFAULT:
                assert getattr(defaulted, field) == default


def test_differing_records_are_unequal():
    assert HomologyGroup(0, 1) != HomologyGroup(0, 2)
    assert SeifertInvariant(0, ((2, 1),)) != SeifertInvariant(0, ((2, -1),))
    assert Violation("a", "m") != Violation("a", "m", ("x",))


def test_public_names():
    assert nmshom.__all__ == [
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


def test_oracles_live_outside_the_package():
    """No module of nmshom defines the checks, and the checks take only IntegerMatrix from it."""
    checks = {
        "matrix_multiply",
        "minors_gcd_oracle",
        "_cofactor_determinant",
        "integer_determinant",
        "is_unimodular",
        # IntegerMatrix methods that only the checks used
        "identity",
        "column",
        "transposed",
        "is_zero",
        "__matmul__",
    }
    for path in sorted(Path(nmshom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                assert node.name not in checks, (path.name, node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                assert node.id not in checks, (path.name, node.id)
    oracles = Path(__file__).resolve().parent / "oracles.py"
    taken = set()
    for node in ast.walk(ast.parse(oracles.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "nmshom":
            taken.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "nmshom" for alias in node.names)
    assert taken == {("nmshom", "IntegerMatrix")}


def test_cli_import_loads_no_heavy_modules():
    """``import nmshom.cli`` adds none of the modules a record or a sum could pull in.

    The interpreter's own start-up (``site``) is left out: only the modules
    the import adds to ``sys.modules`` count.
    """
    probe = (
        "import sys; before = set(sys.modules); import nmshom.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    added = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout.split()
    assert "nmshom.cli" in added
    assert not {"dataclasses", "fractions", "inspect", "decimal"} & set(added)
