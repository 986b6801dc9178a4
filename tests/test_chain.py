"""Chain complexes, the boundary condition, and homology."""

import random

import pytest

from nmshom import (
    ChainComplex,
    FlowComplex,
    HomologyGroup,
    Incidence,
    IntegerMatrix,
    SeifertInvariant,
    ValidationError,
    Violation,
    parse_flow_complex,
)
from nmshom import linalg

from oracles import multiply
from randgen import random_conjugated_flow, random_matrix, random_zero_square_flow


def _complex(ranks, rows_list, labels=None):
    boundaries = [
        IntegerMatrix.from_rows(rows, cols=ranks[k + 1]) if rows or ranks[k] == 0
        else IntegerMatrix.zeros(ranks[k], ranks[k + 1])
        for k, rows in enumerate(rows_list)
    ]
    return ChainComplex(ranks, boundaries, generator_labels=labels)


class TestHomologyGroup:
    def test_rendering(self):
        assert str(HomologyGroup(0, 1)) == "Z"
        assert str(HomologyGroup(1, 4)) == "Z^4"
        assert str(HomologyGroup(0, 1, (30,))) == "Z + Z/30"
        assert str(HomologyGroup(0, 0, (2, 6))) == "Z/2 + Z/6"
        assert str(HomologyGroup(2, 0)) == "0"

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            HomologyGroup(0, -1)
        with pytest.raises(ValueError):
            HomologyGroup(0, 0, (1,))
        with pytest.raises(ValueError):
            HomologyGroup(0, 0, (4, 6))

    @pytest.mark.parametrize(
        "fields", [(0, 1.5), (0, True), (0.0, 1), (0, 1, (2.0,)), (0, 1, (True,))]
    )
    def test_field_types_are_checked(self, fields):
        with pytest.raises(TypeError, match="^HomologyGroup fields must be"):
            HomologyGroup(*fields)

    def test_replace_checks_too(self):
        with pytest.raises(ValueError):
            HomologyGroup(0, 1)._replace(betti=-1)
        with pytest.raises(TypeError):
            HomologyGroup._make((0, True, ()))
        assert HomologyGroup(0, 1)._replace(torsion=[2]) == HomologyGroup(0, 1, (2,))

    def test_torsion_is_stored_as_a_tuple(self):
        assert HomologyGroup(0, 1, [2, 4]) == HomologyGroup(0, 1, (2, 4))
        assert HomologyGroup(0, 1, [2, 4]).torsion == (2, 4)


class TestConstruction:
    def test_boundary_count_must_match_degrees(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 1), ())

    def test_boundary_shape_checked(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 2), (IntegerMatrix.zeros(2, 2),))
        with pytest.raises(TypeError, match="degree 1 is not an IntegerMatrix"):
            ChainComplex((1, 1), ([[0]],))

    def test_labels_checked(self):
        with pytest.raises(ValueError):
            ChainComplex((2,), (), generator_labels=[["a"]])
        with pytest.raises(ValueError):
            ChainComplex((2,), (), generator_labels=[["a", "a"]])
        with pytest.raises(ValueError, match="one label list per degree"):
            ChainComplex((1,), (), generator_labels=[["a"], ["b"]])

    def test_labels_are_not_coerced_to_strings(self):
        with pytest.raises(TypeError, match="^ChainComplex generator labels must be strings"):
            ChainComplex([2], [], generator_labels=[[1, 2]])

    def test_mixed_label_types_are_a_type_error_not_a_duplicate(self):
        with pytest.raises(TypeError, match="^ChainComplex generator labels must be strings"):
            ChainComplex([2], [], generator_labels=[[1, "1"]])

    def test_ranks_nonnegative_and_nonempty(self):
        with pytest.raises(ValueError):
            ChainComplex((), ())
        with pytest.raises(ValueError):
            ChainComplex((-1,), ())

    @pytest.mark.parametrize("ranks", [(1.7, 0), (1, True), ("1", 0)])
    def test_ranks_must_be_ints(self, ranks):
        with pytest.raises(TypeError, match="^ChainComplex ranks must be ints"):
            ChainComplex(ranks, [IntegerMatrix.zeros(1, 0)])

    def test_end_boundaries_are_zero_maps(self):
        c = _complex((2, 1), [[[0], [0]]])
        assert c.boundary(0) == IntegerMatrix.zeros(0, 2)
        assert c.boundary(2) == IntegerMatrix.zeros(1, 0)
        with pytest.raises(ValueError):
            c.boundary(3)


class TestBoundaryCondition:
    def test_zero_boundaries_pass(self):
        c = _complex((2, 3, 1), [[], []])
        assert c.check_boundary_condition().ok

    def test_nonzero_square_is_reported_with_labels(self):
        c = _complex(
            (1, 1, 1),
            [[[2]], [[3]]],
            labels=[["bottom"], ["mid"], ["top"]],
        )
        report = c.check_boundary_condition()
        assert not report.ok
        violation = report.violations[0]
        assert violation.code == "nonzero-boundary-square"
        assert "'top'" in violation.message and "'bottom'" in violation.message
        assert "6" in violation.message

    def test_violations_follow_row_major_order(self):
        # d_1.d_2 = [[0, 4], [5, -6]]: row-major and column-major order differ
        c = _complex(
            (2, 2, 2),
            [[[1, 0], [0, 1]], [[0, 4], [5, -6]]],
            labels=[["l0", "l1"], ["m0", "m1"], ["t0", "t1"]],
        )
        report = c.check_boundary_condition()
        assert [v.code for v in report.violations] == ["nonzero-boundary-square"] * 3
        assert [v.subjects for v in report.violations] == [
            ("t1", "l0", "4"),
            ("t0", "l1", "5"),
            ("t1", "l1", "-6"),
        ]
        assert report.violations[2].message == "d_1.d_2 is nonzero: generator 't1' maps to -6*'l1'"

    def test_homology_refuses_defective_complex(self):
        c = _complex((1, 1, 1), [[[2]], [[3]]])
        with pytest.raises(ValidationError):
            c.homology()


class TestHomology:
    def test_point(self):
        c = ChainComplex((1,), ())
        assert c.homology() == [HomologyGroup(0, 1)]

    def test_circle(self):
        c = _complex((1, 1), [[[0]]])
        assert [str(g) for g in c.homology()] == ["Z", "Z"]

    def test_two_sphere_with_empty_middle_degree(self):
        c = _complex((1, 0, 1), [[], []])
        assert [str(g) for g in c.homology()] == ["Z", "0", "Z"]

    def test_klein_bottle_style_torsion(self):
        c = _complex((1, 2, 1), [[[0, 0]], [[0], [2]]])
        groups = c.homology()
        assert groups[0] == HomologyGroup(0, 1)
        assert groups[1] == HomologyGroup(1, 1, (2,))
        assert groups[2] == HomologyGroup(2, 0)
        assert c.euler_characteristic() == 0

    def test_zero_boundaries_give_free_homology(self):
        c = _complex((2, 3, 1), [[], []])
        assert [g.betti for g in c.homology()] == [2, 3, 1]
        assert all(g.torsion == () for g in c.homology())

    def test_generator_permutation_does_not_change_homology(self):
        rng = random.Random(211)
        for _ in range(25):
            c = random_zero_square_flow(rng).to_chain_complex()
            perms = [rng.sample(range(r), r) for r in c.ranks]
            permuted = []
            for k in range(1, c.top_degree + 1):
                source = c.boundary(k)
                rows = [
                    [source[perms[k - 1][i], perms[k][j]] for j in range(source.cols)]
                    for i in range(source.rows)
                ]
                permuted.append(IntegerMatrix.from_rows(rows, cols=source.cols))
            shuffled = ChainComplex(c.ranks, permuted)
            assert shuffled.homology() == c.homology()


class TestHomologyStaysSparse:
    """homology reduces the stored sparse rows and never densifies."""

    def test_emitted_seifert_flow_builds_no_matrix(self, monkeypatch):
        rng = random.Random(823)
        alphas = rng.choices([2, 3, 4, 6, 8, 9, 12], k=300)
        invariant = SeifertInvariant(1, tuple((a, 1) for a in alphas))
        text = invariant.to_flow_complex().serialize()
        reads = []
        row = IntegerMatrix.row

        def counting_row(self, i):
            reads.append((self.rows, self.cols, i))
            return row(self, i)

        monkeypatch.setattr(IntegerMatrix, "row", counting_row)
        complex_ = parse_flow_complex(text).to_chain_complex()
        assert complex_.homology() == invariant.homology_closed_form()
        assert reads == []
        complex_.boundary(1).row(0)  # the counter does see a dense read
        assert reads == [(300, 301, 0)]

    def test_empty_degrees_skip_the_core(self, monkeypatch):
        calls = []
        isolate = linalg._isolate_nonzeros

        def counting(a, *args):
            calls.append(len(a))
            return isolate(a, *args)

        monkeypatch.setattr(linalg, "_isolate_nonzeros", counting)
        head = "format nmsflow 1\ndim 20000\norbit a index 0\norbit r index 19999\n"
        groups = parse_flow_complex(head).to_chain_complex().homology()
        assert len(groups) == 20000
        nonzero = [g for g in groups if g != HomologyGroup(g.degree, 0)]
        assert nonzero == [HomologyGroup(0, 1), HomologyGroup(19999, 1)]
        assert calls == []
        # the counter does see the one degree with a nonzero boundary
        flow = parse_flow_complex(head + "orbit b index 1\nincidence b a 2\n")
        assert flow.to_chain_complex().homology()[0] == HomologyGroup(0, 0, (2,))
        assert calls == [1]


class TestHomologyLeavesComplexAlone:
    """homology reduces copies, so the stored boundaries survive any number of calls."""

    def test_boundaries_and_report_survive_homology(self):
        rng = random.Random(617)
        complexes = []
        for _ in range(30):
            flow, groups = random_conjugated_flow(rng)
            complexes.append((flow.to_chain_complex(), groups))
        c = complexes[0][0]
        public = [c.boundary(k) for k in range(1, c.top_degree + 1)]
        complexes.append((ChainComplex(c.ranks, public), complexes[0][1]))
        for c, groups in complexes:
            boundaries = [c.boundary(k) for k in range(c.top_degree + 2)]
            report = c.check_boundary_condition()
            assert c.homology() == groups
            assert c.homology() == groups
            assert [c.boundary(k) for k in range(c.top_degree + 2)] == boundaries
            assert c.check_boundary_condition() == report


class TestEuler:
    def test_alternating_rank_sum(self):
        assert ChainComplex((3,), ()).euler_characteristic() == 3
        assert _complex((1, 1), [[[0]]]).euler_characteristic() == 0
        assert _complex((1, 0, 1), [[], []]).euler_characteristic() == 2

    def test_matches_alternating_betti_sum(self):
        rng = random.Random(223)
        for _ in range(40):
            c = random_zero_square_flow(rng).to_chain_complex()
            betti_sum = sum(
                g.betti if g.degree % 2 == 0 else -g.betti for g in c.homology()
            )
            assert c.euler_characteristic() == betti_sum


def _dense_square_violations(c):
    """The d.d report the dense way: every nonzero of each full product, row-major."""
    found = []
    for k in range(1, c.top_degree):
        product = multiply(c.boundary(k), c.boundary(k + 1))
        for i in range(product.rows):
            for j in range(product.cols):
                if product[i, j]:
                    source = c.generator_labels[k + 1][j]
                    target = c.generator_labels[k - 1][i]
                    value = str(product[i, j])
                    message = (
                        f"d_{k}.d_{k + 1} is nonzero: generator {source!r} "
                        f"maps to {value}*{target!r}"
                    )
                    found.append(
                        Violation("nonzero-boundary-square", message, (source, target, value))
                    )
    return tuple(found)


def _grids(flow):
    """Each boundary of a flow as a dense IntegerMatrix, straight from its incidences."""
    labels = [sorted(o.id for o in flow.orbits if o.index == k) for k in range(flow.dimension)]
    coefficient = {(i.upper, i.lower): i.coefficient for i in flow.incidences}
    grids = [
        IntegerMatrix.from_rows(
            [[coefficient.get((u, l), 0) for u in labels[k]] for l in labels[k - 1]],
            cols=len(labels[k]),
        )
        for k in range(1, flow.dimension)
    ]
    return labels, grids


def _flow_square_report(flow):
    try:
        return flow.to_chain_complex().check_boundary_condition()
    except ValidationError as exc:
        return exc.report


class TestConjugatedFlows:
    def test_known_homology_and_dense_agreement_under_perturbation(self):
        violating = 0
        for seed in range(200):
            rng = random.Random(seed)
            flow, groups = random_conjugated_flow(rng)
            c = flow.to_chain_complex()
            assert c.homology() == groups, (seed, flow.serialize())
            assert all(any(map(any, c.boundary(k).to_rows())) for k in range(1, c.top_degree + 1))
            assert _dense_square_violations(c) == ()

            # Add a nonzero delta to one entry of one boundary; an entry that
            # becomes 0 stays as an explicit zero incidence.
            k = rng.randint(1, c.top_degree)
            i, j = rng.randrange(c.ranks[k - 1]), rng.randrange(c.ranks[k])
            upper, lower = c.generator_labels[k][j], c.generator_labels[k - 1][i]
            delta = rng.choice([-3, -2, -1, 1, 2, 3])
            incidences = [x for x in flow.incidences if (x.upper, x.lower) != (upper, lower)]
            incidences.append(Incidence(upper, lower, c.boundary(k)[i, j] + delta))
            perturbed = FlowComplex(flow.dimension, flow.orbits, incidences)

            labels, grids = _grids(perturbed)
            public = ChainComplex(c.ranks, grids, generator_labels=labels)
            for degree, grid in enumerate(grids, start=1):
                assert public.boundary(degree) == grid
            expected = _dense_square_violations(public)
            assert public.check_boundary_condition().violations == expected, seed
            assert _flow_square_report(perturbed).violations == expected, seed
            violating += bool(expected)
        assert violating > 100  # most perturbations break d.d = 0


class TestSparseEdgeCases:
    def test_top_degree_zero(self):
        c = ChainComplex((3,), ())
        assert c.boundary(0) == IntegerMatrix.zeros(0, 3)
        assert c.boundary(1) == IntegerMatrix.zeros(3, 0)
        assert c.check_boundary_condition().ok
        assert c.homology() == [HomologyGroup(0, 3)]

    def test_top_degree_one_has_no_products(self):
        d = IntegerMatrix.from_rows([[0, 5, 0], [-2, 0, 0]])
        c = ChainComplex((2, 3), (d,))
        assert c.boundary(1) == d
        assert c.check_boundary_condition().ok
        assert c.homology() == [HomologyGroup(0, 0, (10,)), HomologyGroup(1, 1)]

    def test_rank_zero_degree_between_nonzero_boundaries(self):
        # d_1 and d_4 are nonzero but every product passes through an empty degree
        c = _complex((1, 2, 0, 2, 1), [[[1, -1]], [[], []], [], [[3], [0]]])
        assert c.boundary(1) == IntegerMatrix.from_rows([[1, -1]])
        assert c.boundary(2) == IntegerMatrix.zeros(2, 0)
        assert c.boundary(4) == IntegerMatrix.from_rows([[3], [0]])
        assert c.check_boundary_condition().ok
        assert _dense_square_violations(c) == ()

    def test_explicit_zero_incidences_match_absence(self):
        head = (
            "format nmsflow 1\ndim 4\n"
            "orbit a index 0\norbit a2 index 0\norbit b index 1\norbit b2 index 1\n"
            "orbit c index 2\norbit r index 3\n"
        )
        reports = []
        for body in ("incidence b a 2\n", "incidence b a 2\nincidence c b 3\n"):
            zeros = "incidence b2 a 0\nincidence c b2 0\nincidence b a2 0\nincidence r c 0\n"
            plain = parse_flow_complex(head + body)
            padded = parse_flow_complex(head + body + zeros)
            assert _flow_square_report(padded) == _flow_square_report(plain)
            labels, grids = _grids(padded)
            assert _grids(plain)[1] == grids
            public = ChainComplex([len(x) for x in labels], grids, generator_labels=labels)
            assert public.check_boundary_condition() == _flow_square_report(plain)
            assert public.check_boundary_condition().violations == _dense_square_violations(public)
            reports.append(_flow_square_report(plain))
        assert reports[0].ok
        assert [v.subjects for v in reports[1].violations] == [("c", "a", "6")]

    def test_hand_built_complexes_round_trip_and_match_dense_report(self):
        rng = random.Random(541)
        for _ in range(300):
            top = rng.randint(0, 4)
            ranks = [rng.randint(0, 4) for _ in range(top + 1)]
            boundaries = []
            for k in range(1, top + 1):
                m = random_matrix(
                    rng,
                    min_rows=ranks[k - 1], max_rows=ranks[k - 1],
                    min_cols=ranks[k], max_cols=ranks[k],
                    low=-2, high=2,
                )
                if rng.random() < 0.2 and m.rows and m.cols:  # one huge entry
                    rows = m.to_rows()
                    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] = rng.choice([-1, 1]) * 2**80
                    m = IntegerMatrix.from_rows(rows, cols=m.cols)
                boundaries.append(m)
            c = ChainComplex(ranks, boundaries)
            for k, d in enumerate(boundaries, start=1):
                assert c.boundary(k) == d
            assert c.check_boundary_condition().violations == _dense_square_violations(c)
