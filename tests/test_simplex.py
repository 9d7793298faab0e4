"""Tests for the dense tableau simplex, including scipy cross-checks."""

import numpy as np
import pytest
from scipy.optimize import linprog

from ballcover.simplex import LPStatus, solve_lp


def scipy_reference(c, A, b):
    """Reference solve of max c.x, A x <= b, x >= 0 via HiGHS.

    Presolve is disabled because it can collapse unbounded-and-feasible
    instances into a plain "infeasible" status.
    """
    return linprog(-np.asarray(c, dtype=float), A_ub=A, b_ub=b,
                   bounds=[(0, None)] * len(c), method="highs",
                   options={"presolve": False})


class TestBasics:
    def test_single_row(self):
        res = solve_lp([1.0, 0.0], [[1.0, 1.0]], [2.0])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-12)

    def test_infeasible(self):
        # x1 >= 3 and x1 <= 1 cannot hold together.
        res = solve_lp([1.0], [[-1.0], [1.0]], [-3.0, 1.0])
        assert res.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        res = solve_lp([1.0], np.zeros((0, 1)), np.zeros(0))
        assert res.status is LPStatus.UNBOUNDED

    def test_no_rows_zero_objective(self):
        res = solve_lp([-1.0, -2.0], np.zeros((0, 2)), np.zeros(0))
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == 0.0
        np.testing.assert_array_equal(res.x, [0.0, 0.0])

    def test_negative_rhs_feasible(self):
        # x1 >= 1 (written as -x1 <= -1), x1 <= 4, maximize x1.
        res = solve_lp([1.0], [[-1.0], [1.0]], [-1.0, 4.0])
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(4.0, abs=1e-12)

    def test_redundant_equality_like_rows(self):
        # Duplicate constraints force degenerate pivots; Bland must cope.
        A = [[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
        b = [1.0, 1.0, 1.0]
        res = solve_lp([1.0, 2.0], A, b)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-12)

    def test_iteration_limit(self):
        rng = np.random.default_rng(1)
        A = rng.uniform(0.1, 1.0, size=(8, 8))
        b = np.full(8, 5.0)
        res = solve_lp(np.ones(8), A, b, max_iterations=1)
        assert res.status is LPStatus.ITERATION_LIMIT

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_lp([1.0, 2.0], [[1.0]], [1.0])

    @pytest.mark.parametrize(
        "A, b",
        [([[-3e-10]], [-3.0]), ([[-3e-10], [-0.3]], [-3.0, -2.0])],
        ids=["one-row", "two-rows"],
    )
    def test_badly_scaled_rows_solve(self, A, b):
        # x1 >= 1e10: the row's only entry, 3e-10, is tiny until the row is
        # equilibrated.
        res = solve_lp([0.0], A, b)
        assert res.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [1e10], rtol=1e-12)

    @pytest.mark.parametrize(
        "c, A, b",
        [([0.0, 1.0], [[1.0, 5e-9]], [1.0]), ([0.0, 0.0], [[-5e-9, 1.0]], [-1.0])],
        ids=["phase-2", "phase-1"],
    )
    def test_tiny_column_is_pivoted_on(self, c, A, b):
        # The optimum puts 2e8 on the variable whose only entry is 5e-9, next
        # to an entry of 1 in the same row.
        res = solve_lp(c, A, b)
        assert res.status is LPStatus.OPTIMAL
        assert np.max(res.x) == pytest.approx(2e8, rel=1e-12)

    def test_badly_scaled_rows_raise_value_error(self):
        # Feasible (x1 >= 2e9), but each row's entry in x1's column is 5e-10
        # after equilibration, and the row x1 >= -1 keeps that column's scale.
        A = [[-5e-10, 1, 0, 0], [-5e-10, 0, 1, 0], [-5e-10, 0, 0, 1], [-1, 0, 0, 0]]
        with pytest.raises(ValueError, match="badly scaled"):
            solve_lp([0.0] * 4, A, [-1.0, -1.0, -1.0, 1.0])


class TestDegeneracy:
    def test_beale_cycling_instance(self):
        # The classic cycling example for naive pivoting; Bland terminates.
        c = [0.75, -150.0, 0.02, -6.0]
        A = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b = [0.0, 0.0, 1.0]
        res = solve_lp(c, A, b)
        assert res.status is LPStatus.OPTIMAL
        ref = scipy_reference(c, A, b)
        assert res.objective == pytest.approx(-ref.fun, abs=1e-9)

    def test_degenerate_vertex(self):
        # Three constraints meet at (1, 1).
        c = [1.0, 1.0]
        A = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        b = [1.0, 1.0, 2.0]
        res = solve_lp(c, A, b)
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-12)


class TestAgainstScipy:
    def test_random_feasible_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 9))
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(0.0, 2.0, size=n)
            b = A @ x0 + rng.uniform(0.1, 1.0, size=m)  # x0 strictly feasible
            c = rng.normal(size=n)
            res = solve_lp(c, A, b)
            ref = scipy_reference(c, A, b)
            if ref.status == 3:
                assert res.status is LPStatus.UNBOUNDED
            else:
                assert ref.status == 0
                assert res.status is LPStatus.OPTIMAL
                assert res.objective == pytest.approx(-ref.fun, abs=1e-7)
                assert np.all(A @ res.x <= b + 1e-8)
                assert np.all(res.x >= 0)

    def test_random_mixed_status_instances(self):
        rng = np.random.default_rng(777)
        statuses = set()
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            c = rng.normal(size=n)
            res = solve_lp(c, A, b)
            ref = scipy_reference(c, A, b)
            if ref.status == 0:
                assert res.status is LPStatus.OPTIMAL
                assert res.objective == pytest.approx(-ref.fun, abs=1e-7)
            elif ref.status == 2:
                assert res.status is LPStatus.INFEASIBLE
            elif ref.status == 3:
                assert res.status is LPStatus.UNBOUNDED
            statuses.add(res.status)
        # The generator should have exercised more than one outcome.
        assert len(statuses) >= 2
