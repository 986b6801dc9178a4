"""Seifert invariants: parsing, validation, flows, closed form, equivalence."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from nmshom import (
    HomologyGroup,
    IntegerMatrix,
    ParseError,
    SeifertInvariant,
    ValidationError,
    boundary_matrix,
    format_invariant,
    parse_invariant,
    seifert_equivalent,
)

from nmshom.linalg import _divisor_chain
from randgen import random_coprime_beta, random_invariant


def _codes(report):
    return [v.code for v in report.violations]


def _sum(invariant):
    return sum((Fraction(b, a) for a, b in invariant.pairs), Fraction(0))


def _padic_torsion(alphas):
    """Torsion of H_0 for fibers of these alphas, from prime exponents alone.

    For each prime p, the exponents of p in the alphas less the largest one
    are the p-primary invariant factors; the k-th smallest of every prime
    multiply to the k-th invariant factor.  Uses no Smith form.
    """
    factored = []
    for alpha in alphas:
        exponents, p = {}, 2
        while alpha > 1:
            while alpha % p == 0:
                exponents[p] = exponents.get(p, 0) + 1
                alpha //= p
            p += 1
        factored.append(exponents)
    return _torsion_from_exponents(factored)


def _torsion_from_exponents(factored):
    """:func:`_padic_torsion` of the alphas with these factorizations, ``{prime: exponent}``."""
    powers = {}
    for position, exponents in enumerate(factored):
        for p, e in exponents.items():
            if p not in powers:
                powers[p] = [0] * len(factored)
            powers[p][position] = e
    factors = [1] * (len(factored) - 1)
    for p, found in powers.items():
        for k, e in enumerate(sorted(found)[:-1]):
            factors[k] *= p**e
    return [d for d in factors if d > 1]


def _primes(lo: int, count: int) -> list[int]:
    """The first ``count`` primes above ``lo``, by a sieve of the window above it."""
    width = 20 * count + 1000  # primes near 10^6 are ~14 apart
    sieve = bytearray([1]) * width  # sieve[i] stands for lo + 1 + i
    for p in range(2, math.isqrt(lo + width) + 1):
        start = -(lo + 1) % p
        sieve[start::p] = bytes(len(range(start, width, p)))
    return [lo + 1 + i for i, flag in enumerate(sieve) if flag][:count]


class TestInvariantText:
    def test_parse_basic(self):
        inv = parse_invariant("2;1/2,1/3,1/5")
        assert inv.genus == 2
        assert inv.pairs == ((2, 1), (3, 1), (5, 1))

    def test_parse_tolerates_spaces_and_negatives(self):
        inv = parse_invariant(" 0 ; -3 / 2 , 7 / 1 ")
        assert inv.pairs == ((2, -3), (1, 7))

    def test_round_trip(self):
        rng = random.Random(401)
        for _ in range(40):
            inv = random_invariant(rng)
            assert parse_invariant(format_invariant(inv)) == inv

    def test_str_is_compact_form(self):
        assert str(SeifertInvariant(1, ((2, 1),))) == "1;1/2"

    @pytest.mark.parametrize(
        "genus, pairs",
        [
            (0, ((2.9, 1), ("3", 1.5))),
            (0, ((2, 1.0),)),
            (0.0, ((2, 1),)),
            (True, ((2, 1),)),
            (0, ((2, False),)),
            (0, ((2, 1, 5),)),
            (0, (2,)),
        ],
    )
    def test_field_types_are_checked_not_coerced(self, genus, pairs):
        with pytest.raises(TypeError, match="^SeifertInvariant fields must be"):
            SeifertInvariant(genus, pairs)

    def test_pairs_are_stored_as_tuples(self):
        inv = SeifertInvariant(0, [[2, 1], [3, -1]])
        assert inv.pairs == ((2, 1), (3, -1))
        assert inv == SeifertInvariant(0, ((2, 1), (3, -1)))
        assert inv._replace(pairs=[[5, 2]]).pairs == ((5, 2),)
        with pytest.raises(TypeError, match="^SeifertInvariant fields must be"):
            inv._replace(genus=1.5)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_invariant("1/2,1/3")

    def test_bad_genus(self):
        with pytest.raises(ParseError):
            parse_invariant("x;1/2")

    def test_bad_pair(self):
        with pytest.raises(ParseError):
            parse_invariant("0;12")
        with pytest.raises(ParseError):
            parse_invariant("0;a/2")

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("1_0;1/2", "non-integer genus '1_0'"),
            ("\u0663;1/2", "non-integer genus '\u0663'"),
            ("0;1/2, 1_0/3", "non-integer invariant pair '1_0/3'"),
            ("0;1/\u0663", "non-integer invariant pair '1/\u0663'"),
            ("0;1/\uff15", "non-integer invariant pair '1/\uff15'"),
        ],
    )
    def test_integers_are_ascii_decimal_only(self, text, reason):
        with pytest.raises(ParseError) as err:
            parse_invariant(text)
        assert err.value.reason == reason

    def test_integer_past_the_conversion_limit_is_too_long(self):
        digits = "3" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as err:
            parse_invariant(f"0;1/2,{digits}/5")
        assert err.value.reason.startswith("too long invariant pair: ")

    def test_empty_pair_list_parses_but_fails_validation(self):
        inv = parse_invariant("0;")
        assert inv.pairs == ()
        assert "empty-fiber-list" in _codes(inv.validate())


class TestValidation:
    def test_valid(self):
        assert parse_invariant("0;1/2,1/3").validate().ok
        assert parse_invariant("3;0/1").validate().ok

    def test_alpha_must_be_positive(self):
        assert "alpha-below-one" in _codes(SeifertInvariant(0, ((0, 1),)).validate())
        assert "alpha-below-one" in _codes(SeifertInvariant(0, ((-2, 1),)).validate())

    def test_coprimality_required(self):
        assert "non-coprime-pair" in _codes(parse_invariant("0;2/4").validate())

    def test_negative_genus_reported(self):
        assert "negative-genus" in _codes(parse_invariant("-1;1/2").validate())

    def test_operations_refuse_invalid_input(self):
        bad = parse_invariant("0;2/4")
        with pytest.raises(ValidationError):
            bad.homology_closed_form()
        with pytest.raises(ValidationError):
            bad.to_flow_complex()
        with pytest.raises(ValidationError):
            bad.normalized()
        with pytest.raises(ValidationError):
            seifert_equivalent(bad, bad)


class TestBoundaryMatrix:
    def test_three_fibers(self):
        m = boundary_matrix(parse_invariant("0;1/2,1/3,1/5"))
        assert m == IntegerMatrix.from_rows([[2, 0], [-3, 3], [0, -5]])

    def test_single_fiber_has_no_columns(self):
        m = boundary_matrix(parse_invariant("0;1/1"))
        assert (m.rows, m.cols) == (1, 0)

    def test_betas_do_not_enter(self):
        assert boundary_matrix(parse_invariant("0;1/2,1/3")) == boundary_matrix(
            parse_invariant("0;-5/2,4/3")
        )


class TestFlowConstruction:
    def test_single_trivial_fiber(self):
        fc = parse_invariant("0;1/1").to_flow_complex()
        assert fc.dimension == 3
        assert len(fc.orbits) == 2
        assert fc.incidences == ()
        assert [str(g) for g in fc.to_chain_complex().homology()] == ["Z", "0", "Z"]

    def test_orbit_counts(self):
        fc = parse_invariant("2;1/2,1/3,1/5").to_flow_complex()
        complex_ = fc.to_chain_complex()
        assert complex_.ranks == (3, 6, 1)

    def test_genus_pads_with_free_saddles(self):
        complex_ = parse_invariant("1;1/1,1/1").to_flow_complex().to_chain_complex()
        assert complex_.ranks == (2, 3, 1)
        assert complex_.boundary(1) == IntegerMatrix.from_rows([[1, 0, 0], [-1, 0, 0]])
        assert complex_.boundary(2) == IntegerMatrix.zeros(3, 1)

    def test_first_boundary_reproduces_boundary_matrix(self):
        rng = random.Random(409)
        for _ in range(25):
            inv = random_invariant(rng, min_pairs=2)
            complex_ = inv.to_flow_complex().to_chain_complex()
            expected = boundary_matrix(inv)
            m = len(inv.pairs)
            produced = complex_.boundary(1)
            trimmed = [list(produced.row(i))[: m - 1] for i in range(produced.rows)]
            assert IntegerMatrix.from_rows(trimmed, cols=m - 1) == expected
            extra = [list(produced.row(i))[m - 1 :] for i in range(produced.rows)]
            assert not any(any(row) for row in extra)

    def test_many_fibers_keep_construction_order(self):
        inv = SeifertInvariant(0, tuple((1, 0) for _ in range(12)))
        complex_ = inv.to_flow_complex().to_chain_complex()
        assert complex_.ranks == (12, 11, 1)
        assert complex_.boundary(1) == boundary_matrix(inv)
        assert complex_.generator_labels[0][0] == "o0_01"
        assert complex_.generator_labels[0][-1] == "o0_12"


class TestClosedForm:
    def test_coprime_family_matches_surface_homology(self):
        for genus in range(4):
            inv = parse_invariant(f"{genus};1/2,1/3,1/5")
            assert inv.homology_closed_form() == [
                HomologyGroup(0, 1),
                HomologyGroup(1, 2 * genus),
                HomologyGroup(2, 1),
            ]

    def test_torsion_examples(self):
        assert parse_invariant("0;1/2,1/4").homology_closed_form()[0] == HomologyGroup(0, 1, (2,))
        assert parse_invariant("0;1/6,1/10,1/15").homology_closed_form()[0] == HomologyGroup(
            0, 1, (30,)
        )
        assert parse_invariant("0;1/2,1/2").homology_closed_form()[0] == HomologyGroup(0, 1, (2,))

    def test_padic_reference_on_small_cases(self):
        assert _padic_torsion([2, 4]) == [2]
        assert _padic_torsion([6, 10, 15]) == [30]
        assert _padic_torsion([2, 3, 5]) == []
        assert _padic_torsion([4, 6, 12, 1]) == [2, 12]

    def test_thousand_fibers_match_padic_reference(self):
        rng = random.Random(1000)
        alphas = [rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36]) for _ in range(1000)]
        inv = SeifertInvariant(2, tuple((a, random_coprime_beta(rng, a)) for a in alphas))
        start = time.perf_counter()
        groups = inv.homology_closed_form()
        # loose: it guards against a return to building witnesses, which
        # took minutes at this size
        assert time.perf_counter() - start < 60.0
        expected = HomologyGroup(0, 1, tuple(_padic_torsion(alphas)))
        assert groups[0] == expected
        # the closed form runs no Smith reduction; the flow pipeline does
        assert inv.to_flow_complex().to_chain_complex().homology()[0] == expected

    def test_two_thousand_fibers_through_the_flow_pipeline(self):
        rng = random.Random(2000)
        alphas = [rng.choice([2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 27, 36]) for _ in range(2000)]
        inv = SeifertInvariant(0, tuple((a, random_coprime_beta(rng, a)) for a in alphas))
        h0 = inv.to_flow_complex().to_chain_complex().homology()[0]
        assert h0 == HomologyGroup(0, 1, tuple(_padic_torsion(alphas)))

    def test_closed_form_matches_padic_reference(self):
        rng = random.Random(1009)
        primes = [2, 3, 5, 7]
        cases = [[1], [12], [1] * 7, [4, 4], [2**40, 2**40 * 3]]
        for _ in range(2000):
            m = rng.choice([1, 2, 3, rng.randint(4, 12)])
            if rng.random() < 0.1:
                cases.append([1] * m)
            else:
                draws = [rng.choices(primes, k=rng.randint(0, 5)) for _ in range(m)]
                cases.append([math.prod(draw) for draw in draws])
        for alphas in cases:
            inv = SeifertInvariant(0, tuple((a, 1) for a in alphas))
            torsion = inv.homology_closed_form()[0].torsion
            assert list(torsion) == _padic_torsion(alphas), alphas
        # alphas built from known factorizations, too large for trial division:
        # distinct primes near 10^6, and powers of 2, 3 and 7 up to 2^60
        large = _primes(10**6 - 300, 12)
        assert len(large) == 12 and min(large) > 999_000
        factored_cases = [[{2: 60}, {2: 60}], [{2: 60}, {2: 59, 3: 1}, {7: 21}], [{3: 37}] * 3]
        for _ in range(300):
            m = rng.choice([1, 2, 3, rng.randint(4, 12)])
            factored = []
            for _ in range(m):
                if rng.random() < 0.5:
                    exponents = {p: rng.randint(1, 3) for p in rng.sample(large, rng.randint(0, 3))}
                else:
                    exponents, bits = {}, 60.0
                    for p in rng.sample([2, 3, 7], rng.randint(1, 3)):
                        exponents[p] = rng.randint(0, int(bits / math.log2(p)))
                        bits -= exponents[p] * math.log2(p)
                factored.append(exponents)
            factored_cases.append(factored)
        for factored in factored_cases:
            alphas = [math.prod(p**e for p, e in exponents.items()) for exponents in factored]
            inv = SeifertInvariant(0, tuple((a, 1) for a in alphas))
            torsion = inv.homology_closed_form()[0].torsion
            assert list(torsion) == _torsion_from_exponents(factored), alphas

    def test_agrees_with_flow_pipeline(self):
        rng = random.Random(419)
        for _ in range(40):
            inv = random_invariant(rng)
            assert inv.to_flow_complex().to_chain_complex().homology() == inv.homology_closed_form()

    def test_betas_do_not_affect_homology(self):
        rng = random.Random(421)
        for _ in range(20):
            inv = random_invariant(rng)
            replaced = SeifertInvariant(
                inv.genus,
                tuple((a, random_coprime_beta(rng, a)) for a, _ in inv.pairs),
            )
            assert replaced.homology_closed_form() == inv.homology_closed_form()

    def test_euler_characteristic_is_surface_euler(self):
        rng = random.Random(431)
        for _ in range(20):
            inv = random_invariant(rng)
            complex_ = inv.to_flow_complex().to_chain_complex()
            assert complex_.euler_characteristic() == 2 - 2 * inv.genus


class TestChainScale:
    """The divisor chain is near-linear.  Each bound is 3-4x the best-of-three time
    measured on a shared 2-vCPU host (Python 3.11.7); the quadratic gcd/lcm sweep
    the chain replaced took 2.7 s for Seifert homology at m = 10^4."""

    ALPHAS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 24, 27, 36)

    @staticmethod
    def _best(call) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return min(times)

    def test_closed_form_at_a_hundred_thousand_fibers(self):
        rng = random.Random(100_000)
        alphas = [rng.choice(self.ALPHAS) for _ in range(10**5)]
        inv = SeifertInvariant(0, tuple((a, 1) for a in alphas))
        assert self._best(inv.homology_closed_form) < 0.15  # measured 0.034-0.036 s
        expected = HomologyGroup(0, 1, tuple(_padic_torsion(alphas)))
        assert inv.homology_closed_form()[0] == expected

    def test_seifert_flow_homology_at_ten_thousand_fibers(self):
        rng = random.Random(10_000)
        alphas = [rng.choice(self.ALPHAS) for _ in range(10**4)]
        inv = SeifertInvariant(1, tuple((a, random_coprime_beta(rng, a)) for a in alphas))
        complex_ = inv.to_flow_complex().to_chain_complex()
        assert self._best(complex_.homology) < 0.25  # measured 0.059-0.069 s
        assert complex_.homology() == inv.homology_closed_form()

    def test_chain_of_ten_thousand_distinct_primes(self):
        primes = _primes(10**6, 10**4)
        assert len(primes) == 10**4
        assert self._best(lambda: _divisor_chain(primes)) < 1.0  # measured 0.33-0.35 s
        assert _divisor_chain(primes) == [1] * (10**4 - 1) + [math.prod(primes)]


class TestNormalization:
    def test_known_forms(self):
        assert format_invariant(parse_invariant("0;3/2,1/3").normalized()) == "0;1/2,1/3,1/1"
        assert format_invariant(parse_invariant("0;1/2,0/1").normalized()) == "0;1/2,0/1"
        assert format_invariant(parse_invariant("0;1/2").normalized()) == "0;1/2,0/1"

    def test_idempotent(self):
        rng = random.Random(433)
        for _ in range(40):
            norm = random_invariant(rng).normalized()
            assert norm.normalized() == norm

    def test_preserves_sum_and_class(self):
        rng = random.Random(439)
        for _ in range(40):
            inv = random_invariant(rng)
            norm = inv.normalized()
            assert _sum(norm) == _sum(inv)
            assert norm.validate().ok
            assert seifert_equivalent(inv, norm)


class TestEquivalence:
    def test_reflexive_and_symmetric(self):
        rng = random.Random(443)
        for _ in range(25):
            first = random_invariant(rng)
            second = random_invariant(rng)
            assert seifert_equivalent(first, first)
            assert seifert_equivalent(first, second) == seifert_equivalent(second, first)

    def test_known_pairs(self):
        assert seifert_equivalent(parse_invariant("0;1/2,1/3"), parse_invariant("0;1/2,1/3"))
        assert not seifert_equivalent(parse_invariant("0;1/2,1/3"), parse_invariant("0;3/2,1/3"))
        assert seifert_equivalent(parse_invariant("0;1/2,0/1"), parse_invariant("0;1/2"))

    def test_genus_must_agree(self):
        assert not seifert_equivalent(parse_invariant("0;1/2"), parse_invariant("1;1/2"))

    def test_compensated_shift_keeps_class(self):
        base = parse_invariant("0;1/2,1/3,1/5")
        shifted = parse_invariant("0;3/2,-2/3,1/5")
        assert seifert_equivalent(base, shifted)
        assert base.normalized() == shifted.normalized()

    def test_uncompensated_shift_changes_class(self):
        base = parse_invariant("0;1/2,1/3")
        shifted = parse_invariant("0;1/2,4/3")
        assert not seifert_equivalent(base, shifted)
        assert base.normalized() != shifted.normalized()

    def test_trivial_pair_padding_keeps_class(self):
        base = parse_invariant("1;1/2,1/3")
        padded = parse_invariant("1;1/2,1/3,0/1,0/1")
        assert seifert_equivalent(base, padded)

    def test_permutation_keeps_class(self):
        rng = random.Random(449)
        for _ in range(25):
            inv = random_invariant(rng, min_pairs=2)
            pairs = list(inv.pairs)
            rng.shuffle(pairs)
            assert seifert_equivalent(inv, SeifertInvariant(inv.genus, tuple(pairs)))

    def test_matches_normal_form_identity(self):
        rng = random.Random(457)
        for _ in range(120):
            first = random_invariant(rng, max_pairs=4)
            second = random_invariant(rng, max_pairs=4)
            assert seifert_equivalent(first, second) == (first.normalized() == second.normalized())

    def test_many_pairs_match_as_multisets(self):
        # 1600 pairs of alpha 3: matching residues by backtracking over
        # pairings would be exponential and overflow the recursion limit
        rng = random.Random(461)
        betas = [rng.choice([1, 2]) + 3 * rng.randint(-5, 5) for _ in range(1600)]
        first = SeifertInvariant(0, tuple((3, b) for b in betas))
        shifts = [3 * rng.randint(-2, 2) for _ in range(1599)]
        shifts.append(-sum(shifts))  # keeps the sum of beta/alpha
        moved = [(3, b + s) for b, s in zip(betas, shifts)]
        rng.shuffle(moved)
        assert seifert_equivalent(first, SeifertInvariant(0, tuple(moved)))

        ones = sum(1 for b in betas if b % 3 == 1)
        assert 0 < ones < 1600
        flipped = [(3, 1)] * (ones - 1) + [(3, 2)] * (1600 - ones + 1)
        assert not seifert_equivalent(first, SeifertInvariant(0, tuple(flipped)))
        off_by_one = [*moved[:-1], (3, moved[-1][1] + 3)]
        assert not seifert_equivalent(first, SeifertInvariant(0, tuple(off_by_one)))

    def test_repeated_alpha_residue_matching(self):
        first = parse_invariant("0;1/3,2/3")
        second = parse_invariant("0;2/3,1/3")
        assert seifert_equivalent(first, second)
        third = parse_invariant("0;1/3,1/3")
        assert not seifert_equivalent(first, third)
