"""Digest nmshom's CLI output over fixed inputs, to check two source trees agree byte for byte.

Usage, from the root of a source checkout::

    python3 tools/cli_digest.py SRC > digest.txt

SRC is the ``src`` directory to import nmshom from.  The inputs are the
benchmark's three workload pools (``perfbench/gen.py`` with the sizes in
``perfbench/run.py``'s ``WORKLOADS``) for seeds 101 and 7, each run in
porcelain and in human mode, plus 300 seeded small matrices run through
``snf --witness`` in both modes.  The sparse paths of the Smith core get
200 small sparse matrices (``tests/randgen.py``'s ``random_sparse_matrix``:
bidiagonal, block-diagonal, density 0.05-0.2, zero rows and columns, a
Bezout step with x = 0) through ``snf`` and ``snf --witness``, and
``homology`` on a Seifert flow with 2000 fibers, on a block union of about
4000 orbits (``gen.validate_case`` with no defect), on eight
``gen.conjugated_case`` flows and on Seifert flows with 1000 fibers whose
index-0 ids are renamed in reverse or shuffled order, or whose index-1 ids
are shuffled.  Flows of dimension 3000 with orbits in only a few indices,
some with a d.d defect and one with a zero map between two nonzero ones,
run through ``validate`` and ``homology``, so nearly every degree is
empty.  The Seifert commands
(``homology --seifert``, ``seifert normalize``, ``seifert emit`` and
``seifert equiv``) run over the invariants of the seifert-torsion pools, an
equivalent and an inequivalent partner of each, and a few invalid lists;
they read no file.  Last come the argument parser's own paths: ``--help``
at the top and for every subcommand, a missing command, subcommand or
path, ``homology`` with neither input and with both, and unknown options.
Then :data:`MALFORMED` documents, which reach every flow and matrix
ParseError, run through ``validate`` and ``homology`` or ``snf`` and
``snf --witness``, and so do :data:`READER_EDGES`, documents at the edges
of the line reader (comments shaped like records, lines of other
whitespace only, a header after comments under ``\\r`` and ``\\r\\n`` line
ends, ``dim`` after the records or twice, no orbit).  Last, fibrations
whose alphas make the divisor chain work (distinct primes near 10^6,
products of them, and high powers of 2, 3 and 7 up to 2^60) run through
``homology --seifert`` and ``seifert emit``, and the emitted flow through
``homology``.
``COLUMNS`` is fixed, so help text wraps the same in every terminal; it
still differs between Python versions, so compare digests made by one
interpreter.
Every call goes in-process through ``nmshom.cli.main`` and prints one line::

    workload seed id mode exit sha256(stdout) sha256(stderr)

The input files are written under ``.cli-digest/`` in the checkout.  Run
the script once per source tree and ``diff`` the two outputs: no difference
means the same exit codes and the same bytes on both streams.
``tests/test_cli_digest.py`` builds the digest in-process through
:func:`digest` and compares it with the lines pinned under ``tests/digest``:
the ``parser`` lines per Python minor version, all others once.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".cli-digest"
SEEDS = (101, 7)
COLUMNS = "100"  # help text wraps at this width
SMALL_MATRICES = 300
SPARSE_MATRICES = 200
# alpha 0, a non-coprime pair, negative genus, no pairs
INVALID_INVARIANTS = ("0;1/0,1/2", "0;2/4,1/3", "-1;1/2,1/3", "0;")
# (id, orbit indices, (upper, lower, coefficient) incidences) in dimension 3000;
# orbit k is named ok, and the two "defect" flows break d.d = 0.  In "gap",
# d_1502 = 0 lies between d_1501 and d_1503, whose 1 x 1 product is 6.
EMPTY_DEGREE_FLOWS = (
    ("two-orbits", (0, 2999), ()),
    ("spread", (0, 1, 1500, 2999), ((1, 0, 2),)),
    (
        "spread-defect",
        (0, 1, 1499, 1500, 1501, 2999),
        ((1, 0, 2), (1500, 1499, 3), (1501, 1500, 1)),
    ),
    ("top-defect", (0, 2997, 2998, 2999), ((2998, 2997, 2), (2999, 2998, 5))),
    ("gap", (0, 1500, 1501, 1502, 1503, 2999), ((1501, 1500, 2), (1503, 1502, 3))),
)
_FLOW = "format nmsflow 1\ndim 3\n"
_LONG = "7" * 4301  # past the interpreter's default digit limit
# (id, kind, text): documents that reach every flow and matrix ParseError, and
# well-formed ones that use other Unicode separators and other line ends
MALFORMED = (
    ("flow-empty", "flow", ""),
    ("flow-no-header", "flow", "dim 3\n"),
    ("flow-malformed-header", "flow", "format nmsflow\ndim 3\n"),
    ("flow-header-version", "flow", "format nmsflow 2\ndim 3\n"),
    ("flow-duplicate-header", "flow", "format nmsflow 1\nformat nmsflow 1\n"),
    ("flow-missing-dim", "flow", "format nmsflow 1\norbit a index 0\n"),
    ("flow-duplicate-dim", "flow", _FLOW + "dim 3\n"),
    ("flow-malformed-dim", "flow", "format nmsflow 1\ndim 3 4\n"),
    ("flow-non-integer-dim", "flow", "format nmsflow 1\ndim three\n"),
    ("flow-too-long-dim", "flow", f"format nmsflow 1\ndim {_LONG}\n"),
    ("flow-small-dim", "flow", "format nmsflow 1\ndim 1\n"),
    ("flow-malformed-orbit", "flow", _FLOW + "orbit a 0\n"),
    ("flow-bad-id-orbit", "flow", _FLOW + "orbit a-b index 0\n"),
    ("flow-bad-id-upper", "flow", _FLOW + "orbit a index 0\nincidence b.c a 1\n"),
    ("flow-bad-id-lower", "flow", _FLOW + "orbit a index 0\nincidence b a\u00e9 1\n"),
    ("flow-non-integer-index", "flow", _FLOW + "orbit a index 1_0\n"),
    ("flow-too-long-index", "flow", _FLOW + f"orbit a index +{_LONG}\n"),
    ("flow-malformed-incidence", "flow", _FLOW + "incidence b a\n"),
    ("flow-non-integer-coefficient", "flow", _FLOW + "incidence b a \u0663\n"),
    ("flow-too-long-coefficient", "flow", _FLOW + f"incidence b a -{_LONG}\n"),
    ("flow-unknown-directive", "flow", _FLOW + "loop a index 0\n"),
    (
        "flow-other-separators",
        "flow",
        "format\u3000nmsflow 1\r\ndim 2\r\norbit\u3000a index 0\r\norbit b\x85index 1\r\n"
        "incidence b a\x1c0\r\n",
    ),
    ("flow-cr-line-ends", "flow", "format nmsflow 1\rdim 2\rorbit a\tindex 0\rorbit b index 1\r"),
    ("matrix-empty", "matrix", ""),
    ("matrix-malformed-header", "matrix", "rows 2\n"),
    ("matrix-non-ascii-header", "matrix", "rows \u0663 cols 1\n1\n"),
    ("matrix-too-long-rows", "matrix", f"rows {_LONG} cols 1\n"),
    ("matrix-too-long-cols", "matrix", f"rows 1 cols {_LONG}\n"),
    ("matrix-missing-row", "matrix", "rows 2 cols 1\n5\n"),
    ("matrix-extra-row", "matrix", "rows 1 cols 1\n5\n6\n"),
    ("matrix-short-row", "matrix", "rows 1 cols 3\n1 2\n"),
    ("matrix-long-row", "matrix", "rows 1 cols 2\n1 2 3\n"),
    ("matrix-non-integer-entry", "matrix", "rows 2 cols 1\n4\nx\n"),
    ("matrix-underscore-entry", "matrix", "rows 1 cols 2\n4 1_0\n"),
    ("matrix-too-long-entry", "matrix", f"rows 1 cols 2\n1 {_LONG}\n"),
    ("matrix-lone-plus", "matrix", "rows 1 cols 2\n4 +\n"),
    ("matrix-lone-minus", "matrix", "rows 1 cols 2\n- 4\n"),
    ("matrix-inner-sign", "matrix", "rows 1 cols 2\n4 1-2\n"),
    ("matrix-double-sign", "matrix", "rows 1 cols 2\n+-3 4\n"),
    ("matrix-trailing-sign", "matrix", "rows 1 cols 2\n4 3+\n"),
    ("matrix-other-separators", "matrix", "rows 2 cols 2\r\n1\x1c2\r\n3\u3000-4\r\n"),
    ("matrix-cr-line-ends", "matrix", "rows 1 cols 2\r3\u20286\r"),
)
_RECORDS = "orbit a index 0\norbit b index 1\nincidence b a 2\n"
_AFTER_COMMENTS = "# a flow\n\n  \n# next the header\nformat nmsflow 1\ndim 2\n" + _RECORDS
# (id, kind, text): documents at the edges of the line reader, each a comment, a blank
# line or a line end away from a well-formed one, read as the format says
READER_EDGES = (
    ("flow-comment-four-tokens", "flow", "format nmsflow 1\n# a b c\ndim 2\n" + _RECORDS),
    (
        "flow-comments-like-records",
        "flow",
        "format nmsflow 1\n#orbit c index 0\ndim 2\n" + _RECORDS + "# incidence b a 1\n",
    ),
    ("flow-ideographic-space-line", "flow", "format nmsflow 1\n\u3000\ndim 2\n\u3000\n" + _RECORDS),
    ("flow-vertical-tab-line", "flow", "format nmsflow 1\n\x0b\ndim 2\n" + _RECORDS + "\x0b\n"),
    (
        "flow-separators-in-records",
        "flow",
        "format nmsflow 1\ndim 2\norbit\x1ca index 0\norbit b\x85index 1\nincidence b a\u20282\n",
    ),
    ("flow-header-after-comments-cr", "flow", _AFTER_COMMENTS.replace("\n", "\r")),
    ("flow-header-after-comments-crlf", "flow", _AFTER_COMMENTS.replace("\n", "\r\n")),
    ("flow-dim-after-records", "flow", "format nmsflow 1\n" + _RECORDS + "dim 2\n"),
    ("flow-two-dims-apart", "flow", "format nmsflow 1\ndim 2\n" + _RECORDS + "dim 2\n"),
    ("flow-no-orbit", "flow", "format nmsflow 1\n# nothing\ndim 3\n\n"),
    ("flow-no-orbit-incidence", "flow", "format nmsflow 1\ndim 2\nincidence b a 2\n"),
    (
        "matrix-comments-and-blanks",
        "matrix",
        "# rows 9 cols 9\n\x0b\nrows 2 cols 2\n#1 2\n\u3000\n2 4\n# 1 2\n-6 3\n\n",
    ),
    ("matrix-header-after-comments-cr", "matrix", "# m\r\rrows 1 cols 2\r# 0 0\r4 6\r"),
    ("matrix-header-after-comments-crlf", "matrix", "# m\r\n\r\nrows 1 cols 2\r\n4 6\r\n"),
)
# (id, argv without --porcelain) for the parser's help and usage errors; no file is read
PARSER_CALLS = (
    ("help", ["--help"]),
    *(
        (f"help-{'-'.join(command)}", [*command, "--help"])
        for command in (
            ["validate"],
            ["homology"],
            ["snf"],
            ["seifert"],
            ["seifert", "equiv"],
            ["seifert", "normalize"],
            ["seifert", "emit"],
        )
    ),
    ("no-command", []),
    ("seifert-no-subcommand", ["seifert"]),
    ("snf-no-path", ["snf"]),
    ("homology-neither", ["homology"]),
    ("homology-both", ["homology", "flow.nms", "--seifert", "0;1/2"]),
    ("unknown-option", ["--frobnicate", "validate", "flow.nms"]),
    ("unknown-subcommand-option", ["snf", "--frobnicate", "matrix.txt"]),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _call(main, argv: list[str]) -> tuple[str, str, str]:
    """Run ``main(argv)``; return the exit (or the raised type) and both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # an escaped exception is itself a difference
            code = f"!{type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _small_matrix_text(rng: random.Random) -> str:
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    bound = rng.choice((3, 40, 1000, 10**6))
    density = rng.choice((0.3, 0.7, 1.0))
    lines = [f"rows {rows} cols {cols}"]
    if cols:
        for _ in range(rows):
            row = (rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols))
            lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def _partners(rng: random.Random, invariants: str) -> tuple[str, str]:
    """An equivalent and an inequivalent invariant list for ``invariants``.

    Both shift one beta by k * alpha.  The equivalent one compensates with a
    ``-k/1`` pair and reorders the pairs; the inequivalent one does neither,
    so its sum of beta/alpha differs by k while every residue is kept.
    """
    genus, _, body = invariants.partition(";")
    pairs = [tuple(map(int, chunk.split("/"))) for chunk in body.split(",")]
    i, k = rng.randrange(len(pairs)), rng.choice((-3, -2, -1, 1, 2, 3))
    shifted = list(pairs)
    shifted[i] = (pairs[i][0] + k * pairs[i][1], pairs[i][1])
    equivalent = [*shifted, (-k, 1)]
    rng.shuffle(equivalent)

    def text(pairs) -> str:
        return f"{genus};" + ",".join(f"{beta}/{alpha}" for beta, alpha in pairs)

    return text(equivalent), text(shifted)


def _seifert_calls(label: str, invariants: str, equivalent: str, inequivalent: str):
    """Yield (id, porcelain argv) for the four Seifert commands.

    ``--`` ends the options, so a list may start with '-'.
    """
    yield f"{label}-homology", ["--porcelain", "homology", f"--seifert={invariants}"]
    yield f"{label}-emit", ["--porcelain", "seifert", "emit", "--", invariants]
    for name, text in (("", invariants), ("-partner", equivalent)):
        yield f"{label}-normalize{name}", ["--porcelain", "seifert", "normalize", "--", text]
    for name, text in (("same", equivalent), ("other", inequivalent)):
        yield f"{label}-equiv-{name}", ["--porcelain", "seifert", "equiv", "--", invariants, text]


def _renamed(text: str, prefix: str, order) -> str:
    """``text`` with its i-th sorted id starting with ``prefix`` renamed to the order[i]-th."""
    ids = sorted({token for token in text.split() if token.startswith(prefix)})
    new = {ids[i]: ids[j] for i, j in enumerate(order)}
    lines = (" ".join(new.get(token, token) for token in line.split()) for line in text.splitlines())
    return "".join(line + "\n" for line in lines)


def _chain_heavy_invariants():
    """Yield (id, invariants) whose alphas have known, chain-heavy factorizations."""
    primes = [n for n in range(10**6 - 2000, 10**6) if all(n % p for p in range(2, 1001))]
    rng = random.Random("cli-digest-chain")
    powers = []
    for _ in range(60):
        alpha, bits = 1, 60.0
        for p in rng.sample((2, 3, 7), rng.randint(1, 3)):
            e = rng.randint(0, int(bits / math.log2(p)))
            alpha, bits = alpha * p**e, bits - e * math.log2(p)
        powers.append(alpha)
    alphas = {
        "primes": primes,
        "prime-products": [p * q for p, q in zip(primes, primes[1:41])]
        + [p**2 for p in primes[:40:3]]
        + [primes[0] * primes[5] * primes[9]],
        "powers": powers,
        "powers-top": [2**60, 2**60, 2**59 * 3, 3**37, 3**37, 7**21, 7**20 * 2, 2**30 * 7**10],
    }
    for genus, (case_id, values) in enumerate(alphas.items()):
        yield case_id, f"{genus % 2};" + ",".join(f"1/{alpha}" for alpha in values)


def _inputs(main):
    """Yield (workload, seed, id, porcelain argv, file text for ``{path}`` or None).

    ``main`` is the CLI entry point, which emits the flows of the chain-heavy fibrations.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen
    import run

    fibrations = []  # (seed, id, invariants) of the seifert-torsion pools
    for name, params in run.WORKLOADS.items():
        for seed in SEEDS:
            for case in gen.make_pool(name, seed, params["pool"], params["lo"], params["hi"]):
                yield name, seed, case.id, case.argv, case.text
                if case.seifert is not None:
                    fibrations.append((seed, case.id, case.seifert))
    rng = random.Random("cli-digest")
    argv = ["--porcelain", "snf", "--witness", "{path}"]
    for i in range(SMALL_MATRICES):
        yield "snf-small", 0, i, argv, _small_matrix_text(rng)
    for seed, case_id, invariants in fibrations:
        equivalent, inequivalent = _partners(rng, invariants)
        for call_id, call_argv in _seifert_calls(case_id, invariants, equivalent, inequivalent):
            yield "seifert-commands", seed, call_id, call_argv, None
    for i, invariants in enumerate(INVALID_INVARIANTS):
        for call_id, call_argv in _seifert_calls(f"invalid{i}", invariants, "0;1/2", "0;1/3"):
            yield "seifert-commands", 0, call_id, call_argv, None
    # the sparse paths of the Smith core; their own generators leave the lines above unchanged
    sys.path.insert(0, str(ROOT / "tests"))
    from randgen import random_sparse_matrix

    sparse = random.Random("cli-digest-sparse")
    for i in range(SPARSE_MATRICES):
        m = random_sparse_matrix(sparse)
        text = f"rows {m.rows} cols {m.cols}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in m.to_rows()
        )
        yield "snf-sparse", 0, i, ["--porcelain", "snf", "{path}"], text
        yield "snf-sparse", 0, f"{i}-witness", ["--porcelain", "snf", "--witness", "{path}"], text
    large = random.Random("cli-digest-large")
    argv = ["--porcelain", "homology", "{path}"]
    yield "homology-large", 0, "seifert-2000", argv, gen.seifert_case(large, 0, 2000).text
    yield "homology-large", 0, "union-4000", argv, gen.validate_case(large, 0, 4000, None).text
    for i, per_index in enumerate((3, 6, 10, 15, 20, 25, 30, 40)):
        case = gen.conjugated_case(large, i, per_index)
        yield "homology-large", 0, f"conjugated-{i}", argv, case.text
    # the Smith core's row order follows the index-0 ids, its column order the index-1 ids
    permuted = random.Random("cli-digest-permuted")
    seifert = gen.seifert_case(permuted, 0, 1000).text
    yield "homology-large", 0, "seifert-1000-reversed-0", argv, _renamed(
        seifert, "p0_", range(999, -1, -1)
    )
    shuffled = permuted.sample(range(1000), 1000)
    yield "homology-large", 0, "seifert-1000-shuffled-0", argv, _renamed(seifert, "p0_", shuffled)
    saddles = seifert.count(" index 1\n")
    shuffled = permuted.sample(range(saddles), saddles)
    yield "homology-large", 0, "seifert-1000-shuffled-1", argv, _renamed(seifert, "p1_", shuffled)
    for case_id, indices, incidences in EMPTY_DEGREE_FLOWS:
        lines = ["format nmsflow 1", "dim 3000"]
        lines += [f"orbit o{k} index {k}" for k in indices]
        lines += [f"incidence o{upper} o{lower} {c}" for upper, lower, c in incidences]
        text = "\n".join(lines) + "\n"
        for command in ("validate", "homology"):
            argv = ["--porcelain", command, "{path}"]
            yield "empty-degrees", 0, f"{case_id}-{command}", argv, text
    for case_id, argv in PARSER_CALLS:
        yield "parser", 0, case_id, ["--porcelain", *argv], None
    commands = {"flow": (["validate"], ["homology"]), "matrix": (["snf"], ["snf", "--witness"])}
    for workload, documents in (("malformed", MALFORMED), ("reader-edges", READER_EDGES)):
        for case_id, kind, text in documents:
            for command in commands[kind]:
                argv = ["--porcelain", *command, "{path}"]
                yield workload, 0, f"{case_id}-{'-'.join(command)}", argv, text
    for case_id, invariants in _chain_heavy_invariants():
        closed = ["--porcelain", "homology", "--seifert", invariants]
        yield "chain-heavy", 0, f"{case_id}-seifert", closed, None
        emit = ["--porcelain", "seifert", "emit", "--", invariants]
        yield "chain-heavy", 0, f"{case_id}-emit", emit, None
        text = _call(main, emit)[1]
        yield "chain-heavy", 0, f"{case_id}-flow", ["--porcelain", "homology", "{path}"], text


def digest(main, work: Path):
    """Yield the digest's lines for the CLI entry point ``main``, with input files under ``work``.

    ``work`` is emptied first and removed at the end.  Help text wraps at
    ``COLUMNS``, which the caller fixes.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for workload, seed, case_id, porcelain_argv, text in _inputs(main):
        if text is not None:
            path = work / f"{workload}-{seed}-{case_id}.txt"
            path.write_text(text, encoding="utf-8")
            porcelain_argv = [str(path) if a == "{path}" else a for a in porcelain_argv]
        human_argv = [a for a in porcelain_argv if a != "--porcelain"]
        for mode, call_argv in (("porcelain", porcelain_argv), ("human", human_argv)):
            code, out, err = _call(main, call_argv)
            yield f"{workload} {seed} {case_id} {mode} {code} {_sha(out)} {_sha(err)}"
    shutil.rmtree(work)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cli_digest.py SRC", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "nmshom" / "cli.py").is_file():
        print(f"error: no nmshom sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from nmshom import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"error: nmshom was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.environ["COLUMNS"] = COLUMNS
    for line in digest(cli.main, WORK):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
