"""The flow and matrix parsers against the token-by-token reference readers.

``parse_flow_complex`` splits each line once and checks all ids and all
integers of a document in bulk, and ``parse_matrix`` checks all integers of
a row in bulk; each reads a document or row token by token only when a bulk
check rejects it.  On ``test_fuzz.py``'s mutated
documents, with separators swapped for other Unicode whitespace, near-miss
characters and integers past the digit limit spliced in and line ends
rewritten, each parser must give what ``tokenparse``'s reader gives: equal
records, or a ParseError with the same line and reason.  The last test holds
both parsers to the reference on lines whose tokens are separated by each
character ``str.split()`` separates at, and by near misses.
"""

import random
import re
import sys

import pytest

from nmshom import Incidence, Orbit, ParseError, parse_flow_complex, parse_matrix

import tokenparse
from test_fuzz import FLOWS, MATRICES, _mutate

CASES = 600
# str.split() separators besides the space: ideographic space, NEL, file separator, tabs
SEPARATORS = ["\u3000", "\x85", "\x1c", "\t", "\x0b"]
# an underscore, signs, a non-ASCII letter, and Arabic-Indic and fullwidth digits
NEAR_MISSES = ["_", "-", "+", "\u00e9", "\u0663", "\uff11"]


def _respace(rng, text: str) -> str:
    """Replace some whitespace runs inside lines with other whitespace."""
    pieces = re.split(r"([^\S\n]+)", text)
    for i in range(1, len(pieces), 2):
        if rng.random() < 0.3:
            pieces[i] = "".join(rng.choice(SEPARATORS) for _ in range(rng.randint(1, 2)))
    return "".join(pieces)


def _splice(rng, text: str) -> str:
    """After a digit, insert a character that an integer or id token might wrongly take in.

    A digit follows it, so ``int`` would read ``4_7``, or a 4 and a 7 around an
    Arabic-Indic digit, as one number.
    """
    after_digits = [at for at in range(1, len(text) + 1) if text[at - 1] in "0123456789"]
    at = rng.choice(after_digits or [0])
    return text[:at] + rng.choice(NEAR_MISSES) + rng.choice("0123456789") + text[at:]


def _long_integer(rng, text: str) -> str:
    """Put a signed run of 639 to 700 digits in place of one token."""
    pieces = re.split(r"(\s+)", text)
    digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(639, 700)))
    pieces[rng.randrange(0, len(pieces), 2)] = rng.choice(["", "-", "+"]) + digits
    return "".join(pieces)


def _document(rng, documents) -> str:
    text = rng.choice(documents)
    for _ in range(rng.choice([0, 1, 1, 2])):
        text = _mutate(rng, text.encode("utf-8", "surrogateescape"))
        text = text.decode("utf-8", "surrogateescape")
    if rng.random() < 0.4:
        text = _respace(rng, text)
    if rng.random() < 0.2:
        text = _splice(rng, text)
    if rng.random() < 0.2:
        text = _long_integer(rng, text)
    if rng.random() < 0.3:
        text = text.replace("\n", rng.choice(["\r", "\r\n"]))
    return text


def _outcome(parser, text: str):
    try:
        return "parsed", parser(text)
    except ParseError as exc:
        return "error", (exc.line, exc.reason)


@pytest.fixture(params=[None, 640], ids=["default-digit-limit", "digit-limit-640"])
def digit_limit(request):
    saved = sys.get_int_max_str_digits()
    if request.param is not None:
        sys.set_int_max_str_digits(request.param)
    try:
        yield sys.get_int_max_str_digits()
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "parser, reference, documents",
    [
        (parse_flow_complex, tokenparse.parse_flow, FLOWS),
        (parse_matrix, tokenparse.parse_matrix, MATRICES),
    ],
    ids=["flow", "matrix"],
)
def test_parsers_agree_with_the_token_reference(digit_limit, parser, reference, documents):
    rng = random.Random(f"differential-{parser.__name__}-{digit_limit}")
    kinds = set()
    for _ in range(CASES):
        text = _document(rng, documents)
        outcome = _outcome(parser, text)
        assert outcome == _outcome(reference, text), text
        kind, value = outcome
        kinds.add(kind if kind == "parsed" else value[1].split(" ")[0])
        if kind == "parsed" and parser is parse_flow_complex:
            assert all(type(orbit) is Orbit for orbit in value.orbits), text
            assert all(type(inc) is Incidence for inc in value.incidences), text
    # the corpus parses, and fails for malformed tokens and for integers past the limit
    assert {"parsed", "non-integer", "too"} <= kinds


def test_separators_of_a_well_formed_line_are_read_like_spaces(digit_limit):
    for separator in [*SEPARATORS, " ", "\x1f"]:
        text = FLOWS[2].replace(" ", separator)
        assert _outcome(parse_flow_complex, text) == _outcome(tokenparse.parse_flow, text)
        text = MATRICES[0].replace(" ", separator)
        assert _outcome(parse_matrix, text) == _outcome(tokenparse.parse_matrix, text)
    digits = "7" * (digit_limit + 1)
    for line in [f"orbit a index {digits}", f"incidence b a -{digits}"]:
        with pytest.raises(ParseError, match=f"^line 3: too long .*: over {digit_limit} digits$"):
            parse_flow_complex(f"format nmsflow 1\ndim 2\n{line}\n")
    with pytest.raises(ParseError, match=f"^line 2: too long entry: over {digit_limit} digits$"):
        parse_matrix(f"rows 1 cols 2\n1 +{digits}\n")


def test_line_patterns_separate_tokens_exactly_where_str_split_does():
    # neither parser has a line pattern; both split lines, so each must read lines
    # whose separators are all one of these characters as the token reference does
    spaces = [char for char in map(chr, range(0x110000)) if char.isspace()]
    for char in [*spaces, "\x1f", *NEAR_MISSES]:
        flow = (
            f"format nmsflow 1\ndim 2\norbit{char}a{char}index{char}0\norbit b index 1\n"
            f"incidence{char}b{char}a{char}1\n"
        )
        matrix = f"rows 1 cols 3\n1{char}-2{char}+3\n"
        for parser, reference, text in [
            (parse_flow_complex, tokenparse.parse_flow, flow),
            (parse_matrix, tokenparse.parse_matrix, matrix),
        ]:
            outcome = _outcome(parser, text)
            assert outcome == _outcome(reference, text), hex(ord(char))
            if char in spaces and char not in "\n\r":  # a line ends only at \n or \r
                assert outcome[0] == "parsed", hex(ord(char))
