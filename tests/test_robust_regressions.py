"""Regressions of the L2 cutting-plane path on large and unbounded models."""

import json
from pathlib import Path

import numpy as np
import pytest

import ballcover.robust as robust
from ballcover.geometry import Norm, UncertaintySet
from ballcover.robust import LinearRow, RobustLinearProgram, RobustRow, solve
from ballcover.simplex import LPStatus, solve_lp

DATA = Path(__file__).parent / "data"
BOUND_KINDS = [(0.0, None), (-1.0, 2.0), (None, None)]


def random_l2_models(count=400):
    """Models with one L2 robust row and free, one-sided or boxed variables."""
    rng = np.random.default_rng(99)
    models = []
    for _ in range(count):
        d = rng.integers(1, 7)
        m = rng.integers(1, 6)
        centers = rng.normal(size=(m, d))
        radius = rng.uniform(0.05, 1.5)
        b = rng.uniform(0.5, 3.0)
        objective = rng.normal(size=d)
        bounds = [BOUND_KINDS[k] for k in rng.integers(0, 3, size=d)]
        uset = UncertaintySet(centers, float(radius), Norm.L2)
        models.append(
            RobustLinearProgram(
                objective=objective,
                robust_rows=(RobustRow(uset, float(b)),),
                bounds=bounds,
            )
        )
    return models


@pytest.fixture(scope="module")
def generated_models():
    return random_l2_models()


def tilted_ball_model(radius, b):
    """Free x, maximize x1 + x2 with one L2 row centered at (0, -1)."""
    uset = UncertaintySet(centers=[[0.0, -1.0]], radius=radius, norm=Norm.L2)
    return RobustLinearProgram(objective=[1.0, 1.0], robust_rows=(RobustRow(uset, b),))


class TestScaleFreeOptimum:
    def test_optimum_scales_with_b(self):
        # The model is homogeneous in (x, b), so the optimum scales with b.
        small = solve(tilted_ball_model(1.0 + 1e-6, 1.0))
        large = solve(tilted_ball_model(1.0 + 1e-6, 10.0))
        assert small.status is LPStatus.OPTIMAL
        assert large.status is LPStatus.OPTIMAL
        assert small.objective_value == pytest.approx(1.0e6, rel=1e-5)
        assert large.objective_value == pytest.approx(10.0 * small.objective_value, rel=1e-6)

    @pytest.mark.parametrize("gap, optimum", [(1e-7, 1.0e7), (1e-8, 1.0e8)])
    def test_optimum_far_from_the_origin(self, gap, optimum):
        # Rays are tested against the cone to a relative FEASIBILITY_TOL, so
        # this optimum, about b / (radius * gap), stays OPTIMAL down to a gap
        # of 1e-8.
        report = solve(tilted_ball_model(1.0 + gap, 1.0))
        assert report.status is LPStatus.OPTIMAL
        assert report.objective_value == pytest.approx(optimum, rel=1e-5)
        assert report.max_violation <= report.feasibility_tol


class TestRecedingRay:
    @staticmethod
    def model():
        # x1 >= 5 puts the origin outside, and x2 -> inf recedes inside the
        # ball at radius 1.
        return RobustLinearProgram(
            objective=[1.0, 1.0],
            deterministic_rows=(LinearRow([-1.0, 0.0], -5.0),),
            robust_rows=tilted_ball_model(1.0, 1.0).robust_rows,
        )

    def test_unbounded_counts_the_feasibility_cuts(self):
        # One cut on the objective's ray, then six for a feasible point.
        report = solve(self.model())
        assert report.status is LPStatus.UNBOUNDED
        assert report.cuts_added == 7

    def test_unboundedness_is_confirmed_on_the_same_relaxation(self, monkeypatch):
        # Once a ray lies inside the cone, the loop drops the objective and
        # keeps cutting the LP it has: same rows, same right-hand sides.
        calls = []

        def recording_solve_lp(c, A, b, **kwargs):
            result = solve_lp(c, A, b, **kwargs)
            calls.append((np.array(c), np.array(A), np.array(b), result))
            return result

        monkeypatch.setattr(robust, "solve_lp", recording_solve_lp)
        assert solve(self.model()).status is LPStatus.UNBOUNDED
        ray = max(k for k, call in enumerate(calls) if call[3].status is LPStatus.UNBOUNDED)
        _, ray_rows, ray_rhs, _ = calls[ray]
        cost, rows, rhs, _ = calls[ray + 1]
        np.testing.assert_array_equal(rows, ray_rows)
        np.testing.assert_array_equal(rhs, ray_rhs)
        assert not np.any(cost)

    @pytest.mark.parametrize("max_cuts", range(7))
    def test_one_cut_budget_covers_both_solves(self, max_cuts):
        report = solve(self.model(), max_cuts=max_cuts)
        assert report.status is LPStatus.ITERATION_LIMIT
        assert report.cuts_added == max_cuts


class TestGeneratedModels:
    @pytest.mark.parametrize("index", [47, 80, 82, 146, 166, 203, 338, 350, 352])
    def test_unbounded(self, generated_models, index):
        report = solve(generated_models[index])
        assert report.status is LPStatus.UNBOUNDED
        assert report.x_star is None

    @pytest.mark.parametrize(
        "index, expected",
        [(21, 1.9704549072), (34, 19.322500835), (376, 0.48998446615)],
    )
    def test_optimal(self, generated_models, index, expected):
        # The expected optima come from a separate Kelley loop whose LPs
        # HiGHS solves.
        report = solve(generated_models[index])
        assert report.status is LPStatus.OPTIMAL
        assert report.objective_value == pytest.approx(expected, rel=1e-7)
        assert report.max_violation <= report.feasibility_tol


def test_cutting_round_lp_is_solved_to_feasibility():
    # A cutting-plane round LP of generated model 49 whose last rows box
    # |x_j| <= 1e6.  Pivoting on entries that are tiny next to the rest of
    # their column ends it OPTIMAL with max(Ax - b) ~ 2.4e5.
    from scipy.optimize import linprog

    data = json.loads((DATA / "l2_round_lp.json").read_text())
    c, A, b = (np.array(data[key]) for key in ("c", "A", "b"))
    result = solve_lp(c, A, b)
    assert result.status is LPStatus.OPTIMAL
    assert np.max(A @ result.x - b) <= 1e-9 * max(1.0, np.abs(b).max())
    reference = linprog(
        -c, A_ub=A, b_ub=b, bounds=[(0.0, None)] * c.size, method="highs"
    )
    assert reference.status == 0
    assert result.objective == pytest.approx(-reference.fun, rel=1e-7)


def test_unbounded_relaxation_is_cut_along_its_ray(monkeypatch):
    # Free x: the first relaxation has no cut on the L2 cone and runs off
    # along a ray, which the next round's cut must exclude.
    calls = []

    def recording_solve_lp(c, A, b, **kwargs):
        result = solve_lp(c, A, b, **kwargs)
        calls.append((np.asarray(A), result))
        return result

    monkeypatch.setattr(robust, "solve_lp", recording_solve_lp)
    report = solve(tilted_ball_model(1.5, 1.0))
    assert report.status is LPStatus.OPTIMAL
    assert report.max_violation <= report.feasibility_tol

    (first_rows, first), (second_rows, _) = calls[:2]
    assert first.status is LPStatus.UNBOUNDED
    # The second LP is the first plus one cut row a . y <= 0, and the ray
    # violates it.
    assert second_rows.shape[0] == first_rows.shape[0] + 1
    np.testing.assert_array_equal(second_rows[:-1], first_rows)
    assert second_rows[-1] @ first.ray > 0.0
