"""Exact linear algebra: matrices, Smith normal form, oracle, text format."""

import hashlib
import random
import sys
import time
import tracemalloc

import pytest

from nmshom import (
    IntegerMatrix,
    ParseError,
    elementary_divisors,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)
from nmshom import linalg
from nmshom.linalg import _isolate_nonzeros
from nmshom.validation import _format_int

from oracles import (
    cofactor_determinant,
    determinant,
    identity,
    is_unimodular,
    minors_gcd,
    multiply,
    transpose,
)
from randgen import random_matrix, random_sparse_matrix, random_unimodular

WITNESS_DIGEST = "cc2d747fb7b033aa410c1b4a7e88a201f86f6c7dd298f4fb8a0eea5a55d4b904"


class TestIntegerMatrix:
    def test_entry_access_and_shape(self):
        m = IntegerMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m[0, 2] == 3
        assert m.row(1) == (4, 5, 6)

    def test_empty_shapes_are_legal(self):
        assert IntegerMatrix.zeros(0, 3).rows == 0
        assert IntegerMatrix.zeros(3, 0).cols == 0

    def test_zeros_allocates_nothing_per_entry(self):
        m = IntegerMatrix.zeros(10**6, 10**6)
        assert (m.rows, m.cols, m[999_999, 999_999]) == (10**6, 10**6, 0)
        assert m == IntegerMatrix.zeros(10**6, 10**6) != IntegerMatrix.zeros(10**6, 1)
        with pytest.raises(ValueError):
            IntegerMatrix.zeros(-1, 2)
        with pytest.raises(TypeError):
            IntegerMatrix.zeros(2, 1.5)

    def test_entry_count_must_match(self):
        with pytest.raises(ValueError):
            IntegerMatrix(2, 2, [1, 2, 3])

    def test_negative_dimensions_rejected(self):
        with pytest.raises(ValueError):
            IntegerMatrix(-1, 2, [])

    def test_non_integer_entries_rejected(self):
        with pytest.raises(TypeError):
            IntegerMatrix(1, 1, [1.5])

    def test_from_rows_requires_equal_lengths(self):
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError, match="rows have 2 entries but cols=3 was given"):
            IntegerMatrix.from_rows([[1, 2], [3, 4]], cols=3)

    def test_out_of_range_access(self):
        m = identity(2)
        with pytest.raises(IndexError):
            m[2, 0]
        with pytest.raises(IndexError):
            m.row(-1)

    def test_transpose_involution(self):
        rng = random.Random(7)
        for _ in range(25):
            m = random_matrix(rng)
            assert transpose(transpose(m)) == m

    def test_equality_and_hash(self):
        a = IntegerMatrix.from_rows([[1, 2]])
        b = IntegerMatrix(1, 2, [1, 2])
        assert a == b and hash(a) == hash(b)
        assert a != IntegerMatrix.from_rows([[1], [2]])


class TestMultiply:
    """The product, identity and transpose oracles the Smith tests multiply with."""

    def test_identity_is_neutral(self):
        m = IntegerMatrix.from_rows([[2, 0], [-3, 3], [0, -5]])
        assert multiply(identity(3), m) == m
        assert multiply(m, identity(2)) == m

    def test_known_product(self):
        a = IntegerMatrix.from_rows([[1, 2], [3, 4]])
        b = IntegerMatrix.from_rows([[0, 1], [1, 0]])
        assert multiply(a, b).to_rows() == [[2, 1], [4, 3]]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            multiply(IntegerMatrix.zeros(2, 3), IntegerMatrix.zeros(2, 3))

    def test_empty_factors(self):
        zeros = IntegerMatrix.zeros
        assert multiply(zeros(0, 3), zeros(3, 2)) == zeros(0, 2)
        assert multiply(zeros(2, 0), zeros(0, 3)) == zeros(2, 3)

    def test_associativity_sample(self):
        rng = random.Random(11)
        for _ in range(20):
            a = random_matrix(rng, min_rows=1, min_cols=1)
            inner, last = rng.randint(0, 3), rng.randint(0, 3)
            b = IntegerMatrix(a.cols, inner, [rng.randint(-5, 5) for _ in range(a.cols * inner)])
            c = IntegerMatrix(inner, last, [rng.randint(-5, 5) for _ in range(inner * last)])
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestSmithNormalForm:
    def test_zero_matrix_has_no_divisors(self):
        assert smith_normal_form(IntegerMatrix.zeros(3, 2)).divisors == ()

    def test_identity(self):
        assert smith_normal_form(identity(2)).divisors == (1, 1)

    def test_known_unimodular_columns(self):
        m = IntegerMatrix.from_rows([[2, 0], [-3, 3], [0, -5]])
        assert smith_normal_form(m).divisors == (1, 1)

    def test_known_torsion_matrix(self):
        m = IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]])
        assert smith_normal_form(m).divisors == (1, 30)

    def test_single_column(self):
        assert elementary_divisors(IntegerMatrix.from_rows([[2], [-4]])) == [2]
        assert elementary_divisors(IntegerMatrix.from_rows([[0], [0]])) == []

    def test_empty_matrix(self):
        dec = smith_normal_form(IntegerMatrix.zeros(0, 4))
        assert dec.divisors == ()
        assert dec.u == identity(0)
        assert dec.v == identity(4)

    def _check_decomposition(self, m):
        dec = smith_normal_form(m)
        assert dec.s == multiply(multiply(dec.u, m), dec.v)
        assert is_unimodular(dec.u) and is_unimodular(dec.v)
        # diagonal, nonnegative, divisibility chain, zeros trailing
        for i in range(dec.s.rows):
            for j in range(dec.s.cols):
                if i != j:
                    assert dec.s[i, j] == 0
        diag = [dec.s[i, i] for i in range(min(dec.s.rows, dec.s.cols))]
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert diag == nonzero + [0] * (len(diag) - len(nonzero))
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert dec.divisors == tuple(nonzero)
        return dec

    def test_divisibility_repair_keeps_witnesses(self):
        # diagonal inputs whose entries do not divide each other, so the
        # gcd/lcm repair does all the work
        for diagonal in ([4, 6], [6, 4, 10, 15], [9, 0, 6, 4], [12, 8, 18, 27, 2]):
            n = len(diagonal)
            flat = [diagonal[i] if i == j else 0 for i in range(n) for j in range(n + 1)]
            m = IntegerMatrix(n, n + 1, flat)
            dec = self._check_decomposition(m)
            assert dec.divisors == tuple(elementary_divisors(m))

    def test_witness_identity_on_random_matrices(self):
        rng = random.Random(101)
        for _ in range(200):
            self._check_decomposition(random_matrix(rng))

    def test_larger_entries_and_shapes(self):
        rng = random.Random(103)
        for _ in range(30):
            m = random_matrix(rng, max_rows=6, max_cols=6, low=-500, high=500)
            self._check_decomposition(m)

    def test_moderate_dimensions_stay_fast(self):
        # guards against intermediate-entry blowup: a dense 60x60 input must
        # decompose with valid witnesses well inside a loose wall-clock budget
        rng = random.Random(107)
        m = random_matrix(rng, max_rows=60, max_cols=60, min_rows=60, min_cols=60)
        start = time.perf_counter()
        self._check_decomposition(m)
        assert time.perf_counter() - start < 20.0

    def test_larger_dimensions_complete(self):
        # divisor chain and the witness product identity at 120x120; the
        # determinant-based unimodularity check is skipped at this size
        rng = random.Random(109)
        m = random_matrix(rng, max_rows=120, max_cols=120, min_rows=120, min_cols=120)
        start = time.perf_counter()
        dec = smith_normal_form(m)
        assert time.perf_counter() - start < 60.0
        assert dec.s == multiply(multiply(dec.u, m), dec.v)
        nonzero = list(dec.divisors)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0

    def test_deterministic(self):
        rng = random.Random(105)
        for _ in range(40):
            m = random_matrix(rng)
            first = smith_normal_form(m)
            second = smith_normal_form(m)
            assert (first.s, first.u, first.v, first.divisors) == (
                second.s,
                second.u,
                second.v,
                second.divisors,
            )

    def test_witness_bytes_are_pinned(self):
        # u, s and v are printed by ``snf --witness``, so the order of the
        # core's row operations is part of the output: a reordering that
        # changes any witness changes this digest.
        rng = random.Random(211)
        digest = hashlib.sha256()
        for _ in range(300):
            rows, cols = rng.randint(0, 8), rng.randint(0, 8)
            bound = rng.choice((3, 40, 1000, 10**6))
            density = rng.choice((0.3, 0.7, 1.0))
            flat = [
                rng.randint(-bound, bound) if rng.random() < density else 0
                for _ in range(rows * cols)
            ]
            dec = smith_normal_form(IntegerMatrix(rows, cols, flat))
            text = format_matrix(dec.u) + format_matrix(dec.s) + format_matrix(dec.v)
            digest.update(text.encode())
        assert digest.hexdigest() == WITNESS_DIGEST

    def test_transpose_invariance(self):
        rng = random.Random(107)
        for _ in range(80):
            m = random_matrix(rng)
            assert elementary_divisors(m) == elementary_divisors(transpose(m))

    def test_unimodular_invariance(self):
        rng = random.Random(109)
        for _ in range(60):
            m = random_matrix(rng, min_rows=1, min_cols=1)
            p = random_unimodular(rng, m.rows)
            q = random_unimodular(rng, m.cols)
            assert is_unimodular(p) and is_unimodular(q)
            assert elementary_divisors(multiply(multiply(p, m), q)) == elementary_divisors(m)


def _choice_matrix(rng, rows, cols, values):
    return IntegerMatrix(rows, cols, [rng.choice(values) for _ in range(rows * cols)])


def _divisor_corpus():
    """Seeded matrices on which the two Smith paths must agree."""
    rng = random.Random(163)
    corpus = [IntegerMatrix.zeros(0, n) for n in range(5)]
    corpus += [IntegerMatrix.zeros(n, 0) for n in range(1, 5)]
    corpus += [IntegerMatrix.zeros(3, 5), identity(4)]
    # zero and negative entries, rectangular and square
    corpus += [random_matrix(rng, max_rows=7, max_cols=7) for _ in range(300)]
    # entries sharing the primes 2 and 3, so the divisors interact
    shared = [0, 0, 2, -2, 3, 4, -6, 8, 9, -12, 18, 24, -36]
    corpus += [
        _choice_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), shared) for _ in range(200)
    ]
    # rank-deficient: a product through an inner dimension below both sides
    for _ in range(100):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        inner = rng.randint(1, min(rows, cols) - 1)
        left = _choice_matrix(rng, rows, inner, shared)
        corpus.append(multiply(left, _choice_matrix(rng, inner, cols, shared)))
    # isolated entries in scattered places, left for the scalar repair
    for _ in range(100):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        flat = [0] * (rows * cols)
        picked = rng.sample(range(cols), min(rows, cols))
        for i, j in zip(rng.sample(range(rows), len(picked)), picked):
            flat[i * cols + j] = rng.choice(shared)
        corpus.append(IntegerMatrix(rows, cols, flat))
    return corpus


class TestDivisorsOnlyPath:
    def test_matches_witness_path_on_corpus(self):
        for m in _divisor_corpus():
            assert elementary_divisors(m) == list(smith_normal_form(m).divisors), m

    def test_isolated_entries_are_positive_and_alone(self):
        # smith_normal_form and elementary_divisors take no sign fix-up and
        # stop on a row test; both rest on this output shape.
        for m in _divisor_corpus():
            for u, vt in (
                ([{i: 1} for i in range(m.rows)], [{j: 1} for j in range(m.cols)]),
                ([{} for _ in range(m.rows)], [{} for _ in range(m.cols)]),
            ):
                rows = [{j: e for j, e in enumerate(m.row(i)) if e} for i in range(m.rows)]
                a = _isolate_nonzeros(rows, u, vt)
                assert len(a) == m.rows and all(0 <= j < m.cols for row in a for j in row), m
                assert all(len(row) <= 1 for row in a), m
                assert all(sum(1 for row in a if j in row) <= 1 for j in range(m.cols)), m
                assert all(e >= 0 for row in a for e in row.values()), m

    def test_prefix_products_match_minors_gcd(self):
        rng = random.Random(173)
        for _ in range(100):
            m = _choice_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), [0, 2, -3, 4, 6, -9, 12])
            divisors = elementary_divisors(m)
            product = 1
            for k, d in enumerate(divisors, start=1):
                product *= d
                assert product == minors_gcd(m, k)
            for k in range(len(divisors) + 1, min(m.rows, m.cols) + 1):
                assert minors_gcd(m, k) == 0


class TestSparseCore:
    """The core on sparse shapes: both paths agree, match the minors oracle, store no zero."""

    @pytest.fixture
    def bezout_xs(self, monkeypatch):
        # every echelon pass must leave no stored zero in the matrix or witness rows
        # (the divisors-only path passes None for the witness rows)
        echelon, bezout, xs = linalg._echelon_pass, linalg._bezout, []

        def checked_pass(a, w):
            echelon(a, w)
            assert all(e for row in (*a, *(w or ())) for e in row.values())

        def recording_bezout(d, e):
            g, x, y = bezout(d, e)
            xs.append(x)
            return g, x, y

        monkeypatch.setattr(linalg, "_echelon_pass", checked_pass)
        monkeypatch.setattr(linalg, "_bezout", recording_bezout)
        return xs

    def test_sparse_shapes(self, bezout_xs):
        rng = random.Random(191)
        for _ in range(400):
            m = random_sparse_matrix(rng)
            dec = smith_normal_form(m)
            divisors = elementary_divisors(m)
            assert divisors == list(dec.divisors), m
            assert dec.s == multiply(multiply(dec.u, m), dec.v), m
            if max(m.rows, m.cols) <= 7:
                product = 1
                for k in range(1, min(4, m.rows, m.cols) + 1):
                    product = product * divisors[k - 1] if k <= len(divisors) else 0
                    assert minors_gcd(m, k) == product, (m, k)
        assert 0 in bezout_xs  # the corpus reaches a Bezout step with x = 0


class TestMinorsOracle:
    def test_known_values(self):
        m = IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]])
        assert minors_gcd(m, 1) == 1
        assert minors_gcd(m, 2) == 30
        assert minors_gcd(identity(3), 2) == 1
        assert minors_gcd(IntegerMatrix.zeros(2, 2), 1) == 0

    def test_order_out_of_range(self):
        m = identity(2)
        with pytest.raises(ValueError):
            minors_gcd(m, 0)
        with pytest.raises(ValueError):
            minors_gcd(m, 3)

    def test_agrees_with_smith_prefix_products(self):
        rng = random.Random(111)
        for _ in range(150):
            m = random_matrix(rng, min_rows=1, min_cols=1)
            divisors = elementary_divisors(m)
            product = 1
            for k, d in enumerate(divisors, start=1):
                product *= d
                assert product == minors_gcd(m, k)
            # beyond the rank every minor vanishes
            for k in range(len(divisors) + 1, min(m.rows, m.cols) + 1):
                assert minors_gcd(m, k) == 0


class TestDeterminant:
    def test_bareiss_matches_cofactor_expansion(self):
        rng = random.Random(113)
        for _ in range(120):
            n = rng.randint(1, 5)
            m = IntegerMatrix(n, n, [rng.randint(-9, 9) for _ in range(n * n)])
            assert determinant(m) == cofactor_determinant(m.to_rows())

    def test_empty_determinant_is_one(self):
        assert determinant(IntegerMatrix.zeros(0, 0)) == 1

    def test_unimodularity(self):
        assert is_unimodular(identity(3))
        assert is_unimodular(IntegerMatrix.from_rows([[1, 5], [0, -1]]))
        assert not is_unimodular(IntegerMatrix.from_rows([[2, 0], [0, 1]]))
        singular = IntegerMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
        assert determinant(singular) == 0  # no pivot in the first column
        assert not is_unimodular(singular)
        with pytest.raises(ValueError):
            is_unimodular(IntegerMatrix.zeros(2, 3))
        with pytest.raises(ValueError, match="square"):
            determinant(IntegerMatrix.zeros(2, 3))


class TestMatrixText:
    def test_round_trip(self):
        rng = random.Random(115)
        for _ in range(40):
            m = random_matrix(rng)
            assert parse_matrix(format_matrix(m)) == m

    def test_comments_and_blank_lines(self):
        text = "# boundary matrix\n\nrows 2 cols 2\n 1 2 \n\n# done\n-3 4\n"
        assert parse_matrix(text) == IntegerMatrix.from_rows([[1, 2], [-3, 4]])

    def test_missing_header(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("")
        assert err.value.line == 1

    def test_malformed_header(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("# intro\nrows 2\n")
        assert err.value.line == 2

    def test_non_integer_entry_points_at_line(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("rows 2 cols 1\n4\nx\n")
        assert err.value.line == 3
        assert "x" in str(err.value)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
    def test_entries_are_ascii_decimal_only(self, token):
        with pytest.raises(ParseError) as err:
            parse_matrix(f"rows 1 cols 2\n4 {token}\n")
        assert err.value.reason == f"non-integer entry {token!r}"

    @pytest.mark.parametrize("header", ["rows \u0663 cols 1", "rows 1 cols 1_0"])
    def test_header_counts_are_ascii_decimal_only(self, header):
        with pytest.raises(ParseError) as err:
            parse_matrix(f"{header}\n1\n1\n1\n")
        assert err.value.reason == f"expected 'rows R cols C' header, got {header!r}"

    def test_integers_past_the_conversion_limit_are_too_long(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as err:
            parse_matrix(f"rows 1 cols 1\n{digits}\n")
        assert (err.value.line, err.value.reason.split(":")[0]) == (2, "too long entry")
        with pytest.raises(ParseError) as err:
            parse_matrix(f"rows {digits} cols 1\n")
        assert (err.value.line, err.value.reason.split(":")[0]) == (1, "too long row count")

    def test_integers_past_the_conversion_limit_are_printed_in_full(self):
        limit = sys.get_int_max_str_digits()
        values = [0, 7, -7, 10**600 - 1, 10**600, -(10**600), 10**1200 + 1]
        values += [-(10**4400 + 5 * 10**600), 3 * 10 ** (limit + 10)]
        sys.set_int_max_str_digits(0)
        try:
            expected = [str(v) for v in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert [_format_int(v) for v in values] == expected
        m = IntegerMatrix.from_rows([values[-2:]])
        assert format_matrix(m) == f"rows 1 cols 2\n{expected[-2]} {expected[-1]}\n"

    def test_wide_row_parses_in_bounded_heap(self):
        # measured 14.0 MB traced peak, 10.5 MB of it kept by the matrix's row
        # dict (Python 3.11.7); keeping the row's tokens while that dict is
        # built peaks near 20 MB, and keeping about 300 B per entry while
        # checking, as a regex with a repeated group does, would pass 30 MB
        text = "rows 1 cols 100000\n" + " ".join(str(i % 2000 - 1000) for i in range(100000))
        tracemalloc.start()
        try:
            m = parse_matrix(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.row(0)[:3] == (-1000, -999, -998)
        assert peak < 16 * 10**6

    def test_wrong_entry_count(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("rows 1 cols 3\n1 2\n")
        assert err.value.line == 2

    def test_too_few_rows(self):
        with pytest.raises(ParseError):
            parse_matrix("rows 2 cols 1\n5\n")

    def test_extra_rows(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("rows 1 cols 1\n5\n6\n")
        assert err.value.line == 3

    def test_empty_matrix_round_trip(self):
        m = IntegerMatrix.zeros(0, 3)
        assert format_matrix(m) == "rows 0 cols 3\n"
        assert parse_matrix(format_matrix(m)) == m
