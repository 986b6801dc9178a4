"""Flow complexes: the nmsflow format, validation, and chain conversion."""

import random
import sys

import pytest

from nmshom import (
    FlowComplex,
    Incidence,
    IntegerMatrix,
    Orbit,
    ParseError,
    ValidationError,
    parse_flow_complex,
)

from randgen import random_zero_square_flow

MINIMAL = "format nmsflow 1\ndim 3\norbit a index 0\norbit b index 2\n"


def _codes(report):
    return [v.code for v in report.violations]


class TestParsing:
    def test_minimal_document(self):
        fc = parse_flow_complex(MINIMAL)
        assert fc.dimension == 3
        assert fc.orbits == (Orbit("a", 0), Orbit("b", 2))
        assert fc.incidences == ()

    def test_comments_and_blanks_ignored(self):
        text = "# flow\n\nformat nmsflow 1\n dim 2 \n# orbits\norbit a index 0\norbit b index 1\nincidence b a -2\n"
        fc = parse_flow_complex(text)
        assert fc.dimension == 2
        assert fc.incidences == (Incidence("b", "a", -2),)

    def test_missing_format_header(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex("dim 3\n")
        assert err.value.line == 1

    def test_empty_document(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex("")
        assert err.value.line == 1

    def test_unsupported_version(self):
        with pytest.raises(ParseError):
            parse_flow_complex("format nmsflow 2\ndim 3\n")

    def test_duplicate_format(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex("format nmsflow 1\nformat nmsflow 1\n")
        assert err.value.line == 2

    def test_missing_dim(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex("format nmsflow 1\norbit a index 0\n")
        assert "dim" in str(err.value)

    def test_duplicate_dim(self):
        with pytest.raises(ParseError):
            parse_flow_complex("format nmsflow 1\ndim 3\ndim 3\n")

    def test_dimension_too_small(self):
        with pytest.raises(ParseError):
            parse_flow_complex("format nmsflow 1\ndim 1\n")

    def test_non_integer_coefficient(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex(MINIMAL + "incidence b a x\n")
        assert err.value.line == 5
        assert "coefficient" in str(err.value)

    def test_malformed_orbit_line(self):
        with pytest.raises(ParseError):
            parse_flow_complex("format nmsflow 1\ndim 2\norbit a 0\n")

    def test_invalid_orbit_id(self):
        with pytest.raises(ParseError):
            parse_flow_complex("format nmsflow 1\ndim 2\norbit a-b index 0\n")

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex("format nmsflow 1\ndim 2\nloop a index 0\n")
        assert err.value.line == 3

    def test_identical_redeclarations_are_kept(self):
        fc = parse_flow_complex(MINIMAL + "orbit a index 0\nincidence b a 1\nincidence b a 1\n")
        assert fc.orbits == (Orbit("a", 0), Orbit("a", 0), Orbit("b", 2))
        assert fc.incidences == (Incidence("b", "a", 1), Incidence("b", "a", 1))

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11", "+-1"])
    @pytest.mark.parametrize(
        "template, what",
        [
            ("format nmsflow 1\ndim {}\n", "dimension"),
            ("format nmsflow 1\ndim 3\norbit a index {}\n", "orbit index"),
            (MINIMAL + "incidence b a {}\n", "coefficient"),
        ],
        ids=["dim", "orbit", "incidence"],
    )
    def test_integers_are_ascii_decimal_only(self, template, what, token):
        with pytest.raises(ParseError) as err:
            parse_flow_complex(template.format(token))
        assert err.value.reason == f"non-integer {what} {token!r}"

    def test_integer_past_the_conversion_limit_is_too_long(self):
        digits = "7" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ParseError) as err:
            parse_flow_complex(MINIMAL + f"incidence b a -{digits}\n")
        assert err.value.line == 5
        assert err.value.reason.startswith("too long coefficient: ")


class TestConstruction:
    def test_dimension_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            FlowComplex(1)

    def test_dimension_must_be_integral(self):
        with pytest.raises(TypeError):
            FlowComplex(3.0)

    def test_rejects_foreign_elements(self):
        with pytest.raises(TypeError):
            FlowComplex(2, orbits=[("a", 0)])


class TestValidation:
    def test_valid_document(self):
        assert parse_flow_complex(MINIMAL).validate().ok

    def test_empty_flow_is_valid(self):
        assert FlowComplex(3).validate().ok

    def test_equal_index_incidence(self):
        fc = FlowComplex(
            3,
            [Orbit("a", 0), Orbit("b", 1), Orbit("c", 1), Orbit("r", 2)],
            [Incidence("b", "c", 1)],
        )
        report = fc.validate()
        assert _codes(report) == ["equal-index-incidence"]
        message = report.violations[0].message
        assert "'b'" in message and "'c'" in message and "equal index" in message

    def test_non_adjacent_incidence(self):
        fc = FlowComplex(
            4,
            [Orbit("a", 0), Orbit("r", 3)],
            [Incidence("r", "a", 1)],
        )
        assert "non-adjacent-incidence" in _codes(fc.validate())

    def test_reversed_adjacency_is_flagged(self):
        fc = FlowComplex(
            2,
            [Orbit("a", 0), Orbit("b", 1)],
            [Incidence("a", "b", 1)],
        )
        assert "non-adjacent-incidence" in _codes(fc.validate())

    def test_unknown_orbit(self):
        fc = FlowComplex(
            2,
            [Orbit("a", 0), Orbit("b", 1)],
            [Incidence("b", "ghost", 1)],
        )
        report = fc.validate()
        assert "unknown-orbit" in _codes(report)
        assert any("ghost" in v.subjects for v in report.violations)

    def test_index_out_of_range(self):
        fc = FlowComplex(3, [Orbit("a", 0), Orbit("b", 3), Orbit("r", 2)])
        assert "index-out-of-range" in _codes(fc.validate())
        fc = FlowComplex(3, [Orbit("a", 0), Orbit("b", -1), Orbit("r", 2)])
        assert "index-out-of-range" in _codes(fc.validate())

    def test_duplicate_orbit_id(self):
        fc = FlowComplex(3, [Orbit("a", 0), Orbit("a", 1), Orbit("r", 2)])
        assert "duplicate-orbit-id" in _codes(fc.validate())

    def test_identical_duplicate_orbit_is_reported(self):
        fc = FlowComplex(3, [Orbit("a", 0), Orbit("a", 0), Orbit("r", 2)])
        assert _codes(fc.validate()) == ["duplicate-orbit-id"]

    def test_identical_duplicate_incidence_is_reported(self):
        incidence = Incidence("b", "a", 1)
        fc = FlowComplex(2, [Orbit("a", 0), Orbit("b", 1)], [incidence, incidence])
        assert _codes(fc.validate()) == ["duplicate-incidence"]
        with pytest.raises(ValidationError):
            fc.to_chain_complex()

    def test_duplicate_incidence_pair(self):
        fc = FlowComplex(
            2,
            [Orbit("a", 0), Orbit("b", 1)],
            [Incidence("b", "a", 1), Incidence("b", "a", 2)],
        )
        assert "duplicate-incidence" in _codes(fc.validate())

    def test_missing_extreme_indices(self):
        fc = FlowComplex(3, [Orbit("b", 1)])
        codes = _codes(fc.validate())
        assert "missing-attracting-orbit" in codes
        assert "missing-repelling-orbit" in codes

    def test_bad_orbit_id_from_direct_construction(self):
        fc = FlowComplex(2, [Orbit("a b", 0), Orbit("r", 1)])
        assert "bad-orbit-id" in _codes(fc.validate())


class TestChainConversion:
    def test_torus_as_flow_on_the_two_sphere_dimensions(self):
        fc = parse_flow_complex(
            "format nmsflow 1\ndim 2\norbit a index 0\norbit b index 1\nincidence b a 0\n"
        )
        complex_ = fc.to_chain_complex()
        assert complex_.ranks == (1, 1)
        assert [str(g) for g in complex_.homology()] == ["Z", "Z"]

    def test_generators_sorted_lexicographically(self):
        fc = FlowComplex(
            2,
            [Orbit("b", 0), Orbit("a", 0), Orbit("z", 1)],
            [Incidence("z", "a", 4), Incidence("z", "b", 7)],
        )
        complex_ = fc.to_chain_complex()
        assert complex_.generator_labels == (("a", "b"), ("z",))
        assert complex_.boundary(1) == IntegerMatrix.from_rows([[4], [7]])

    def test_missing_incidence_means_zero(self):
        fc = FlowComplex(
            2,
            [Orbit("a", 0), Orbit("b", 0), Orbit("u", 1)],
            [Incidence("u", "a", 3)],
        )
        assert fc.to_chain_complex().boundary(1) == IntegerMatrix.from_rows([[3], [0]])

    def test_rank_sum_equals_orbit_count(self):
        rng = random.Random(307)
        for _ in range(25):
            fc = random_zero_square_flow(rng)
            assert sum(fc.to_chain_complex().ranks) == len(fc.orbits)

    def test_invalid_complex_is_refused(self):
        fc = FlowComplex(3, [Orbit("b", 1)])
        with pytest.raises(ValidationError):
            fc.to_chain_complex()

    def test_nonzero_boundary_square_is_refused_with_details(self):
        fc = parse_flow_complex(
            "format nmsflow 1\ndim 4\n"
            "orbit a index 0\norbit b index 1\norbit c index 2\norbit r index 3\n"
            "incidence c b 1\nincidence b a 1\n"
        )
        with pytest.raises(ValidationError) as err:
            fc.to_chain_complex()
        violation = err.value.report.violations[0]
        assert violation.code == "nonzero-boundary-square"
        assert "'c'" in violation.message and "'a'" in violation.message
        assert "1" in violation.subjects[-1]

    def test_explicit_zero_coefficient_matches_absence(self):
        base = FlowComplex(2, [Orbit("a", 0), Orbit("b", 1)])
        padded = FlowComplex(2, [Orbit("a", 0), Orbit("b", 1)], [Incidence("b", "a", 0)])
        assert base.to_chain_complex().homology() == padded.to_chain_complex().homology()

    def test_relabeling_preserves_homology(self):
        rng = random.Random(311)
        for _ in range(20):
            fc = random_zero_square_flow(rng)
            mapping = {o.id: f"r{idx}_{o.id}" for idx, o in enumerate(rng.sample(fc.orbits, len(fc.orbits)))}
            relabeled = FlowComplex(
                fc.dimension,
                [Orbit(mapping[o.id], o.index) for o in fc.orbits],
                [Incidence(mapping[i.upper], mapping[i.lower], i.coefficient) for i in fc.incidences],
            )
            assert relabeled.to_chain_complex().homology() == fc.to_chain_complex().homology()


class TestSerialization:
    def test_round_trip_minimal(self):
        fc = parse_flow_complex(MINIMAL)
        assert parse_flow_complex(fc.serialize()) == fc

    def test_round_trip_random(self):
        rng = random.Random(313)
        for _ in range(30):
            fc = random_zero_square_flow(rng)
            assert parse_flow_complex(fc.serialize()) == fc

    def test_serialization_is_deterministic(self):
        fc = FlowComplex(
            2,
            [Orbit("b", 1), Orbit("a", 0)],
            [Incidence("b", "a", -2)],
        )
        expected = "format nmsflow 1\ndim 2\norbit a index 0\norbit b index 1\nincidence b a -2\n"
        assert fc.serialize() == expected
