"""Flow complexes: the nmsflow format, validation, and chain conversion."""

import collections
import gc
import random
import re
import sys
import tracemalloc

import pytest

from nmshom import (
    FlowComplex,
    Incidence,
    IntegerMatrix,
    Orbit,
    ParseError,
    ValidationError,
    parse_flow_complex,
    parse_invariant,
)
from nmshom import cli, flow

from randgen import random_conjugated_flow, random_zero_square_flow

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

    def test_well_formed_documents_take_the_fast_path(self, monkeypatch):
        # a block union laid out as the benchmark's (all orbit lines, then all
        # incidence lines), with comments and blank lines, and an emitted Seifert
        # flow: a fallback to the token path would call these
        calls = collections.Counter()

        def counting(name, original):
            def counted(*args):
                calls[name] += 1
                return original(*args)

            return counted

        for name in ("_parse_int", "_checked_id"):
            monkeypatch.setattr(flow, name, counting(name, getattr(flow, name)))
        rng = random.Random(41)
        blocks = [random_conjugated_flow(rng, 4, f"b{b:02d}_")[0] for b in range(12)]
        union = FlowComplex(
            4,
            [orbit for block in blocks for orbit in block.orbits],
            [inc for block in blocks for inc in block.incidences],
        )
        lines = ["# a block union", "format nmsflow 1", "", "dim 4"]
        lines += [f"orbit {o.id} index {o.index}" for o in union.orbits]
        lines += ["# incidences", "  "]
        lines += [f"incidence {i.upper} {i.lower} {i.coefficient}" for i in union.incidences]
        assert parse_flow_complex("\n".join(lines) + "\n") == union
        invariants = "1;1/2,-1/3,2/5,3/7"
        emitted = cli.cmd_seifert_emit(invariants).human_text
        assert parse_flow_complex(emitted) == parse_invariant(invariants).to_flow_complex()
        assert calls == {}
        with pytest.raises(ParseError):  # the wrappers count: the token path calls them
            parse_flow_complex("format nmsflow 1\ndim 2\norbit a-b index 0\n")
        assert calls == {"_parse_int": 1, "_checked_id": 1}

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

    def test_malformed_dim(self):
        with pytest.raises(ParseError) as err:
            parse_flow_complex("format nmsflow 1\ndim 3 4\n")
        assert err.value.reason == "malformed dim directive 'dim 3 4'"

    def test_dimension_too_small(self):
        with pytest.raises(ParseError):
            parse_flow_complex("format nmsflow 1\ndim 1\n")

    @pytest.mark.parametrize("token, value", [("1", 1), ("0", 0), ("-3", -3), ("+1", 1)])
    def test_dimension_too_small_among_well_formed_records(self, token, value):
        text = f"format nmsflow 1\norbit a index 0\ndim {token}\norbit b index 1\n"
        with pytest.raises(ParseError) as err:
            parse_flow_complex(text)
        reason = f"dimension must be at least 2, got {value}"
        assert (err.value.line, err.value.reason) == (3, reason)

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

    @pytest.mark.parametrize("token", ["-", "+", "1-2", "2+", "--1", "+0-"])
    def test_signs_only_lead_an_integer(self, token):
        # made of digits and signs like a well-formed integer, so only int's own
        # grammar tells them apart on the bulk path
        text = MINIMAL + f"orbit c index 1\nincidence c a {token}\n"
        with pytest.raises(ParseError) as err:
            parse_flow_complex(text)
        assert (err.value.line, err.value.reason) == (6, f"non-integer coefficient {token!r}")

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

    @pytest.mark.parametrize("foreign", [("b", 1), None], ids=["plain-tuple", "none"])
    def test_foreign_element_is_named_before_sorting(self, foreign):
        # a plain tuple would sort beside the records; the type check must come first
        with pytest.raises(TypeError, match=f"^not an Orbit: {re.escape(repr(foreign))}$"):
            FlowComplex(2, [Orbit("a", 0), foreign])
        with pytest.raises(TypeError, match=f"^not an Incidence: {re.escape(repr(foreign))}$"):
            FlowComplex(2, [Orbit("a", 0)], [Incidence("c", "a", 2), foreign])

    def test_records_of_the_other_kind_are_foreign(self):
        with pytest.raises(TypeError, match="^not an Orbit: Incidence"):
            FlowComplex(2, [Orbit("a", 0), Incidence("b", "a", 1)])
        with pytest.raises(TypeError, match="^not an Incidence: Orbit"):
            FlowComplex(2, [], [Incidence("b", "a", 1), Orbit("a", 0)])

    @pytest.mark.parametrize(
        "culprit",
        [
            Orbit("a", "0"),
            Orbit(7, 1),
            Orbit("a", True),
            Incidence("b", "a", 1.5),
            Incidence("b", 0, 1),
            Incidence("b", "a", False),
        ],
        ids=["str-index", "int-id", "bool-index", "float-coef", "int-lower", "bool-coef"],
    )
    def test_field_types_are_checked_before_sorting(self, culprit):
        # A wrongly typed field would make the sort or validate() raise, or
        # homology() fail much later; the constructor names the record instead.
        orbits = [Orbit("b", 1), Orbit("a", 0)]
        incidences = [Incidence("b", "a", 1)]
        if isinstance(culprit, Orbit):
            orbits.append(culprit)
        else:
            incidences.append(culprit)
        fields = {
            Orbit: "Orbit fields must be (id: str, index: int)",
            Incidence: "Incidence fields must be (upper: str, lower: str, coefficient: int)",
        }[type(culprit)]
        with pytest.raises(TypeError) as err:
            FlowComplex(2, orbits, incidences)
        assert str(err.value) == f"{fields}: {culprit!r}"


class TestRecords:
    def test_fields_are_read_only(self):
        orbit, incidence = Orbit("a", 0), Incidence("b", "a", 1)
        with pytest.raises(AttributeError):
            orbit.index = 1
        with pytest.raises(AttributeError):
            incidence.coefficient = 2

    def test_repr(self):
        assert repr(Orbit("a", 0)) == "Orbit(id='a', index=0)"
        assert repr(Incidence("b", "a", -2)) == "Incidence(upper='b', lower='a', coefficient=-2)"

    def test_records_compare_and_hash_as_tuples(self):
        assert hash(Orbit("a", 0)) == hash(("a", 0))
        assert hash(Incidence("b", "a", 1)) == hash(("b", "a", 1))
        assert Orbit("a", 0) == ("a", 0)
        assert Incidence("b", "a", 1) == ("b", "a", 1)
        assert Orbit("a", 1) < Orbit("b", 0) < Orbit("b", 1)

    def test_order_of_records_does_not_matter(self):
        rng = random.Random(4242)
        for case in range(300):
            if case % 2:
                flow = random_conjugated_flow(rng, dim=rng.randint(2, 4))[0]
            else:
                flow = random_zero_square_flow(rng)
            orbits, incidences = list(flow.orbits), list(flow.incidences)
            for _ in range(rng.randint(1, 3)):  # duplicate ids, with equal and other indices
                orbit = rng.choice(orbits)
                orbits.append(Orbit(orbit.id, orbit.index + rng.choice([0, 0, -1, 1])))
            for _ in range(rng.randint(0, 3) if incidences else 0):  # duplicate pairs
                inc = rng.choice(incidences)
                coefficient = inc.coefficient + rng.choice([0, 1])
                incidences.append(Incidence(inc.upper, inc.lower, coefficient))
            built = []
            for _ in range(4):
                rng.shuffle(orbits)
                rng.shuffle(incidences)
                fc = FlowComplex(flow.dimension, orbits, incidences)
                built.append((fc.orbits, fc.incidences, fc.serialize(), fc.validate().violations))
            assert all(b == built[0] for b in built), case
            violations = built[0][3]
            ids = [v.subjects[0] for v in violations if v.code == "duplicate-orbit-id"]
            counts = collections.Counter(o.id for o in orbits)
            assert ids == sorted(i for i, c in counts.items() if c > 1)
            pairs = [v.subjects for v in violations if v.code == "duplicate-incidence"]
            counts = collections.Counter((i.upper, i.lower) for i in incidences)
            assert pairs == sorted(p for p, c in counts.items() if c > 1)


    def test_parsed_records_are_the_constructor_s(self):
        # a parsed flow makes its records on first read: the same types, order,
        # equality and hash as the public constructor's, and made only once
        rng = random.Random(4243)
        for case in range(200):
            if case % 2:
                flow = random_conjugated_flow(rng, dim=rng.randint(2, 4))[0]
            else:
                flow = random_zero_square_flow(rng)
            orbits, incidences = list(flow.orbits), list(flow.incidences)
            orbit = rng.choice(orbits)  # a duplicate id and an index out of range
            orbits += [Orbit(orbit.id, orbit.index + 1), Orbit("far", flow.dimension)]
            rng.shuffle(orbits)
            rng.shuffle(incidences)
            built = FlowComplex(flow.dimension, orbits, incidences)
            parsed = parse_flow_complex(built.serialize())
            # validate, compare and serialize before any record is made
            assert parsed.validate() == built.validate(), case
            assert parsed == built and hash(parsed) == hash(built), case
            assert parsed.serialize() == built.serialize(), case
            for kind in ("orbits", "incidences"):
                mine, theirs = getattr(parsed, kind), getattr(built, kind)
                assert [(type(r), r) for r in mine] == [(type(r), r) for r in theirs], case
            assert parsed.orbits is parsed.orbits and parsed.incidences is parsed.incidences

    def test_validate_and_homology_make_no_records(self, tmp_path, monkeypatch):
        # count every Orbit and Incidence made, by any route, as it is freed
        made = []

        class CountedOrbit(Orbit):
            __slots__ = ()

            def __del__(self):
                made.append("Orbit")

        class CountedIncidence(Incidence):
            __slots__ = ()

            def __del__(self):
                made.append("Incidence")

        rng = random.Random(4244)
        paths = []
        for case in range(4):
            text = random_conjugated_flow(rng, dim=3)[0].serialize()
            paths.append(tmp_path / f"flow{case}.txt")
            paths[-1].write_text(text)
        paths.append(tmp_path / "seifert.txt")
        paths[-1].write_text(parse_invariant("1;1/6,1/10,1/15").to_flow_complex().serialize())
        gc.collect()
        monkeypatch.setattr(flow, "Orbit", CountedOrbit)
        monkeypatch.setattr(flow, "Incidence", CountedIncidence)
        for path in paths:
            for argv in (["validate", str(path)], ["homology", str(path)]):
                for mode in ([], ["--porcelain"]):
                    assert cli.main([*mode, *argv]) == 0, (argv, mode)
        gc.collect()
        assert made == []
        # the counter does see the records a read of .orbits makes
        parse_flow_complex(paths[0].read_text()).orbits
        gc.collect()
        assert made and set(made) == {"Orbit"}


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

    def test_violation_messages_of_a_parsed_flow(self):
        text = (
            "format nmsflow 1\ndim 3\norbit a index 0\norbit a index 1\norbit a index 0\n"
            "orbit far index 5\norbit r index 2\norbit s index 1\nincidence s ghost 1\n"
        )
        assert parse_flow_complex(text).validate().describe().splitlines() == [
            "- [duplicate-orbit-id] orbit id 'a' is declared 3 times (indices 0, 0, 1)",
            "- [index-out-of-range] orbit 'far' has index 5, outside 0..2",
            "- [unknown-orbit] incidence 's' -> 'ghost' references undeclared orbit 'ghost'",
        ]

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

    def test_boundaries_match_dense_grid_from_incidences(self):
        # Ids like o9 and o10 are declared in shuffled order, so id order
        # differs from both declaration and numeric order.  Inner degrees may
        # be empty.  d.d = 0 with adjacent nonzero boundaries: each degree's
        # orbits split into those hit by the boundary from above, whose own
        # boundary is zero, and the rest.
        rng = random.Random(331)
        for _ in range(200):
            dim = rng.randint(2, 5)
            counts = [rng.randint(0 if 0 < k < dim - 1 else 1, 5) for k in range(dim)]
            numbers = rng.sample(range(1, 30), sum(counts))
            ids, start = [], 0
            for count in counts:
                ids.append([f"o{n}" for n in numbers[start : start + count]])
                start += count
            hit = [set(rng.sample(level, rng.randint(0, len(level)))) for level in ids]
            coefficient = {}
            for k in range(1, dim):
                for upper in ids[k]:
                    if upper in hit[k]:
                        continue
                    for lower in hit[k - 1]:
                        if rng.random() < 0.6:
                            coefficient[upper, lower] = rng.randint(-4, 4)
            lines = [f"orbit {o} index {k}" for k, level in enumerate(ids) for o in level]
            lines += [f"incidence {u} {l} {c}" for (u, l), c in coefficient.items()]
            rng.shuffle(lines)
            fc = parse_flow_complex(f"format nmsflow 1\ndim {dim}\n" + "\n".join(lines) + "\n")
            complex_ = fc.to_chain_complex()
            labels = [sorted(level) for level in ids]
            assert complex_.generator_labels == tuple(map(tuple, labels))
            for k in range(1, dim):
                grid = [
                    [coefficient.get((upper, lower), 0) for upper in labels[k]]
                    for lower in labels[k - 1]
                ]
                expected = IntegerMatrix.from_rows(grid, cols=len(labels[k]))
                assert complex_.boundary(k) == expected, (k, fc.serialize())

    def test_empty_degrees_cost_no_list_each(self):
        # dimension 2 * 10^5 with orbits only at the ends: per-degree lists and
        # dicts took about 160 bytes a degree, one shared () and {} per slot of
        # padded label and row lists 41.1, and a rank and a label slot 17.1
        dim = 200_000
        text = f"format nmsflow 1\ndim {dim}\norbit a index 0\norbit z index {dim - 1}\n"
        fc = parse_flow_complex(text)
        tracemalloc.start()
        try:
            complex_ = fc.to_chain_complex()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * dim, peak
        assert complex_.ranks == (1,) + (0,) * (dim - 2) + (1,)
        assert complex_.generator_labels == (("a",),) + ((),) * (dim - 2) + (("z",),)
        assert complex_.boundary(1).rows == 1 and complex_.boundary(1).cols == 0
        assert complex_.boundary(dim - 1).rows == 0 and complex_.boundary(dim - 1).cols == 1
        assert complex_.check_boundary_condition().ok

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
        again = parse_flow_complex(fc.serialize())
        assert again == fc and hash(again) == hash(fc)
        assert fc != MINIMAL and fc.__eq__(MINIMAL) is NotImplemented

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
