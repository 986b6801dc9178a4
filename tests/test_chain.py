"""Chain complexes, the boundary condition, and homology."""

import random

import pytest

from nmshom import ChainComplex, HomologyGroup, IntegerMatrix, ValidationError

from randgen import random_zero_square_flow


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


class TestConstruction:
    def test_boundary_count_must_match_degrees(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 1), ())

    def test_boundary_shape_checked(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 2), (IntegerMatrix.zeros(2, 2),))

    def test_labels_checked(self):
        with pytest.raises(ValueError):
            ChainComplex((2,), (), generator_labels=[["a"]])
        with pytest.raises(ValueError):
            ChainComplex((2,), (), generator_labels=[["a", "a"]])

    def test_ranks_nonnegative_and_nonempty(self):
        with pytest.raises(ValueError):
            ChainComplex((), ())
        with pytest.raises(ValueError):
            ChainComplex((-1,), ())

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
