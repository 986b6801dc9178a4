"""Command-line interface.

Subcommands: ``validate``, ``homology``, ``snf``, and the ``seifert`` group
(``equiv``, ``normalize``, ``emit``).  Results go to stdout, diagnostics to
stderr.  With the global ``--porcelain`` flag stdout instead carries stable
line-oriented records introduced by the header line ``porcelain 1``, and the
human rendering moves to stderr.  Exit codes: 0 success, 1 semantic failure
(invalid data, inequivalent invariants), 2 unreadable or malformed input.

``seifert emit`` writes a flow-complex document, which is already a versioned
machine format; it is emitted unchanged in both modes so it can be piped
straight back into ``homology``.  File arguments accept ``-`` for stdin.

The parser is built once per process, on the first :func:`main` call, and
each subcommand's parser carries its handler as ``args.run``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import NamedTuple

from .chain import HomologyGroup
from .flow import parse_flow_complex
from .linalg import elementary_divisors, format_matrix, parse_matrix, smith_normal_form
from .seifert import format_invariant, parse_invariant, seifert_equivalent
from .validation import ParseError, ValidationError, ValidationReport, _format_int

__all__ = [
    "CommandResult",
    "cmd_validate",
    "cmd_homology",
    "cmd_snf",
    "cmd_seifert_equiv",
    "cmd_seifert_normalize",
    "cmd_seifert_emit",
    "main",
]


class CommandResult(NamedTuple):
    """Outcome of one subcommand, independent of stream handling.

    ``machine_lines`` are the porcelain records (None when the command's
    output is already machine-stable, as for ``seifert emit``);
    ``diagnostics`` is error or violation detail for stderr.
    """

    exit_code: int
    human_text: str = ""
    machine_lines: tuple[str, ...] | None = None
    diagnostics: str = ""


def _read_text(path: str) -> str:
    # Decode bytes strictly: sys.stdin would use surrogateescape under the C locale.
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "rb") as handle:
        return handle.read().decode("utf-8")


def _guard(command):
    """Decorate a ``cmd_*`` function to map the library's exceptions onto exit codes 1 and 2."""

    @functools.wraps(command)
    def guarded(*args, **kwargs) -> CommandResult:
        try:
            return command(*args, **kwargs)
        except ParseError as exc:
            return CommandResult(2, diagnostics=f"error: {exc}")
        except ValidationError as exc:
            head = f"error: {exc.context}" if exc.context else "error: validation failed"
            detail = exc.report.describe()
            return CommandResult(1, diagnostics=head + ("\n" + detail if detail else ""))
        except (OSError, UnicodeDecodeError) as exc:
            return CommandResult(2, diagnostics=f"error: {exc}")

    return guarded


def _violation_lines(report: ValidationReport) -> tuple[str, ...]:
    return tuple(
        " ".join(["violation", violation.code, *violation.subjects])
        for violation in report.violations
    )


@_guard
def cmd_validate(path: str) -> CommandResult:
    complex_ = parse_flow_complex(_read_text(path))
    try:
        complex_.to_chain_complex()  # runs the structural checks, then d.d = 0
    except ValidationError as exc:
        return CommandResult(
            1,
            human_text="invalid",
            machine_lines=_violation_lines(exc.report),
            diagnostics=exc.report.describe(),
        )
    return CommandResult(0, human_text="valid", machine_lines=("valid",))


def _homology_record(group: HomologyGroup) -> str:
    line = f"homology {group.degree} {group.betti}"
    if group.torsion:
        line += " " + ",".join(map(_format_int, group.torsion))
    return line


@_guard
def cmd_homology(path: str | None = None, seifert: str | None = None) -> CommandResult:
    if (path is None) == (seifert is None):
        raise ValueError("exactly one of path or seifert is required")
    if seifert is not None:
        groups = parse_invariant(seifert).homology_closed_form()
    else:
        groups = parse_flow_complex(_read_text(path)).to_chain_complex().homology()
    human = "\n".join(f"H_{group.degree} = {group}" for group in groups)
    return CommandResult(0, human, tuple(_homology_record(g) for g in groups))


@_guard
def cmd_snf(path: str, witness: bool = False) -> CommandResult:
    parsed = parse_matrix(_read_text(path))
    decomposition = smith_normal_form(parsed) if witness else None
    divisors = decomposition.divisors if witness else elementary_divisors(parsed)
    divisor_text = " ".join(map(_format_int, divisors))
    text = f"elementary divisors: {divisor_text or '(none)'}"
    if witness:  # each matrix text ends in a newline; the last one's is left to the printer
        u, s, v = map(format_matrix, (decomposition.u, decomposition.s, decomposition.v))
        text = "".join((text, "\nu =\n", u, "s =\n", s, "v =\n", v[:-1]))
    record = "snf" + (f" {divisor_text}" if divisor_text else "")
    return CommandResult(0, text, (record,))


@_guard
def cmd_seifert_equiv(first: str, second: str) -> CommandResult:
    verdict = seifert_equivalent(parse_invariant(first), parse_invariant(second))
    word = "equivalent" if verdict else "inequivalent"
    return CommandResult(0 if verdict else 1, word, (f"equiv {word}",))


@_guard
def cmd_seifert_normalize(invariants: str) -> CommandResult:
    canonical = format_invariant(parse_invariant(invariants).normalized())
    return CommandResult(0, canonical, (f"normalize {canonical}",))


@_guard
def cmd_seifert_emit(invariants: str) -> CommandResult:
    document = parse_invariant(invariants).to_flow_complex().serialize()
    return CommandResult(0, human_text=document, machine_lines=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmshom",
        description="Homology of non-singular Morse-Smale flows from combinatorial orbit data.",
    )
    parser.add_argument(
        "--porcelain",
        action="store_true",
        help="write stable line-oriented records to stdout",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    validate = commands.add_parser("validate", help="check a flow complex file")
    validate.add_argument("path", help="nmsflow file, or - for stdin")
    validate.set_defaults(run=lambda args: cmd_validate(args.path))

    homology = commands.add_parser(
        "homology", help="homology of a flow complex file or of Seifert invariants"
    )
    homology.add_argument("path", nargs="?", help="nmsflow file, or - for stdin")
    homology.add_argument(
        "--seifert", metavar="INVARIANTS", help="compact invariants g;b1/a1,b2/a2,..."
    )
    homology.set_defaults(run=lambda args: cmd_homology(path=args.path, seifert=args.seifert))

    snf = commands.add_parser("snf", help="Smith normal form of an integer matrix file")
    snf.add_argument("path", help="matrix file, or - for stdin")
    snf.add_argument("--witness", action="store_true", help="also print u, s, v")
    snf.set_defaults(run=lambda args: cmd_snf(args.path, witness=args.witness))

    seifert = commands.add_parser("seifert", help="operations on Seifert invariants")
    subcommands = seifert.add_subparsers(required=True, metavar="subcommand")

    equiv = subcommands.add_parser("equiv", help="decide equivalence of two invariant lists")
    equiv.add_argument("first")
    equiv.add_argument("second")
    equiv.set_defaults(run=lambda args: cmd_seifert_equiv(args.first, args.second))

    normalize = subcommands.add_parser("normalize", help="canonical form of an invariant list")
    normalize.add_argument("invariants")
    normalize.set_defaults(run=lambda args: cmd_seifert_normalize(args.invariants))

    emit = subcommands.add_parser("emit", help="write the invariants' flow complex as nmsflow text")
    emit.add_argument("invariants")
    emit.set_defaults(run=lambda args: cmd_seifert_emit(args.invariants))

    return parser


def _render(result: CommandResult, porcelain: bool) -> None:
    if result.diagnostics:
        print(result.diagnostics, file=sys.stderr)
    if porcelain and result.machine_lines is not None:
        sys.stdout.write("porcelain 1\n")
        for line in result.machine_lines:
            sys.stdout.write(line + "\n")
        if result.human_text:
            print(result.human_text, file=sys.stderr)
    elif result.human_text:
        text = result.human_text
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "homology" and (args.path is None) == (args.seifert is None):
        parser.error("homology needs a file path or --seifert, not both")
    result = args.run(args)
    _render(result, porcelain=args.porcelain)
    return result.exit_code
