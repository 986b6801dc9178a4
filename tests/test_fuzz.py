"""Seeded in-process fuzzing of the three text parsers and the command line.

Valid documents are mutated at the token, byte and line level: tokens or
whole lines are dropped, duplicated or swapped, non-UTF-8 bytes and integers past the
interpreter's 4300-digit conversion limit are spliced in, and lines are cut
short.  Every parser call must return or raise ParseError, and every
``cli.main`` call must return 0, 1 or 2 with no exception escaping and no
traceback on stderr.  A second property checks that a comment keeps the
characters ``str.splitlines`` would break at, and the directive after one.
The counts are fixed and nothing runs in a subprocess, so the whole sweep
takes about two seconds.
"""

import contextlib
import io
import random
import re
import sys

from nmshom import ParseError, cli, parse_flow_complex, parse_invariant, parse_matrix

from randgen import random_conjugated_flow

CASES = 400

FLOWS = [
    parse_invariant("1;1/2,-1/3,2/5").to_flow_complex().serialize(),
    random_conjugated_flow(random.Random(5), dim=3)[0].serialize(),
    "# two blocks\nformat nmsflow 1\ndim 3\n\norbit a index 0\norbit b index 1\n"
    "orbit c index 2\nincidence b a 2\nincidence c b 0\n",
]
MATRICES = ["rows 3 cols 3\n2 0 -1\n4 6 0\n# note\n0 3 9\n", "rows 2 cols 0\n", "rows 1 cols 2\n5 -10\n"]
INVARIANTS = ["1;1/2,-1/3,2/5", "0;3/4, 1/6", "2;"]

# str.splitlines breaks lines at these too; the text formats do not
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

BAD_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x80\x80", b"\xfe\xff"]
TOO_LONG = [b"9" * 4301, b"-" + b"1" * 4400, b"+" + b"0" * 5000]


def _mutate(rng, data: bytes) -> bytes:
    # tokens (words, or whole lines) at even positions, separators between
    pieces = re.split(rng.choice([rb"(\s+)", rb"(\n)"]), data)
    tokens = range(0, len(pieces), 2)
    kind = rng.randrange(7)
    if kind == 0:  # drop a token
        pieces[rng.choice(tokens)] = b""
    elif kind == 1:  # duplicate a token
        i = rng.choice(tokens)
        separator = pieces[i + 1] if i + 1 < len(pieces) else b"\n"
        pieces[i] = pieces[i] + separator + pieces[i]
    elif kind == 2:  # swap two tokens
        i, j = rng.choice(tokens), rng.choice(tokens)
        pieces[i], pieces[j] = pieces[j], pieces[i]
    elif kind == 3:  # replace a token with an over-long integer
        pieces[rng.choice(tokens)] = rng.choice(TOO_LONG)
    elif kind == 4:  # cut one line short
        lines = data.split(b"\n")
        i = rng.randrange(len(lines))
        lines[i] = lines[i][: rng.randint(0, len(lines[i]))]
        return b"\n".join(lines)
    elif kind == 5:  # splice in bytes that are not UTF-8
        at = rng.randint(0, len(data))
        return data[:at] + rng.choice(BAD_BYTES) + data[at:]
    else:  # drop, duplicate or swap single characters, for the token-free invariant form
        i, j = rng.randrange(len(data) or 1), rng.randrange(len(data) or 1)
        chars = bytearray(data)
        if chars and rng.random() < 0.5:
            chars[i], chars[j] = chars[j], chars[i]
        elif chars:
            chars[i : i + 1] = b"" if rng.random() < 0.5 else chars[i : i + 1] * 2
        return bytes(chars)
    return b"".join(pieces)


def _parse(parser, data: bytes):
    try:
        parser(data.decode("utf-8", "surrogateescape"))
    except ParseError:
        pass


def _run_cli(argv, stdin_data, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin_data)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, stdin_data)
    assert "Traceback" not in err.getvalue(), (argv, stdin_data)
    return code


def test_mutated_documents_end_cleanly(tmp_path, monkeypatch):
    rng = random.Random(1207)
    path = tmp_path / "input"
    codes = set()
    for case in range(CASES):
        family = case % 3
        porcelain = ["--porcelain"] if rng.random() < 0.5 else []
        if family == 0:
            data = FLOWS[rng.randrange(len(FLOWS))].encode()
            parser, commands = parse_flow_complex, [["validate"], ["homology"]]
        elif family == 1:
            data = MATRICES[rng.randrange(len(MATRICES))].encode()
            parser, commands = parse_matrix, [["snf"], ["snf", "--witness"]]
        else:
            data = INVARIANTS[rng.randrange(len(INVARIANTS))].encode()
            parser = parse_invariant
        for _ in range(rng.choice([1, 1, 2, 3])):
            data = _mutate(rng, data)
        _parse(parser, data)
        if family == 2:
            # argv carries undecodable bytes as surrogate escapes, as on POSIX
            text = data.decode("utf-8", "surrogateescape")
            argv = rng.choice(
                [
                    ["homology", f"--seifert={text}"],
                    ["seifert", "normalize", "--", text],
                    ["seifert", "emit", "--", text],
                    ["seifert", "equiv", "--", text, INVARIANTS[0]],
                ]
            )
            codes.add(_run_cli(porcelain + argv, b"", monkeypatch))
        elif rng.random() < 0.5:
            codes.add(_run_cli(porcelain + rng.choice(commands) + ["-"], data, monkeypatch))
        else:
            path.write_bytes(data)
            codes.add(_run_cli(porcelain + rng.choice(commands) + [str(path)], b"", monkeypatch))
    assert codes == {0, 1, 2}  # the mutations reach every outcome


def test_comment_text_after_other_line_breaks_is_ignored():
    # a comment line ending in "<break><a directive or row of the document>" changes nothing
    rng = random.Random(2029)
    for case in range(200):
        parser, documents = [(parse_flow_complex, FLOWS), (parse_matrix, MATRICES)][case % 2]
        document = rng.choice(documents)
        lines = document.split("\n")
        payload = rng.choice([line for line in lines if line.strip() and not line.startswith("#")])
        at = rng.randrange(len(lines))
        lines.insert(at, f"# note{rng.choice(OTHER_LINE_BREAKS)}{payload}")
        assert parser("\n".join(lines)) == parser(document), (document, at, payload)
