"""Tests for robust linear programs and the cutting-plane solver."""

import json
import math

import numpy as np
import pytest

from ballcover.geometry import (
    DimensionError,
    Norm,
    UncertaintySet,
    member,
    worst_case_linear,
)
from ballcover.robust import (
    LinearRow,
    ModelError,
    RobustLinearProgram,
    RobustRow,
    bundled_example,
    pessimize,
    solve,
)
from ballcover.simplex import LPStatus


def box_bounds(dim, lo=0.0, hi=3.0):
    return [(lo, hi)] * dim


def dual_magnitudes(points, norm):
    """Batch dual-norm values of the rows of ``points``."""
    dual = norm.dual
    if dual is Norm.L2:
        return np.sqrt((points**2).sum(axis=1))
    if dual is Norm.L1:
        return np.abs(points).sum(axis=1)
    return np.abs(points).max(axis=1)


def grid_optimum(rlp, lo, hi, n=301):
    """Brute-force maximum of the objective over a feasibility grid."""
    axis = np.linspace(lo, hi, n)
    xx, yy = np.meshgrid(axis, axis)
    points = np.column_stack([xx.ravel(), yy.ravel()])
    feasible = np.ones(points.shape[0], dtype=bool)
    for row in rlp.deterministic_rows:
        feasible &= points @ row.a <= row.b + 1e-12
    for row in rlp.robust_rows:
        uset = row.uncertainty_set
        linear = (points @ uset.centers.T).max(axis=1)
        worst = linear + uset.radius * dual_magnitudes(points, uset.norm)
        feasible &= worst <= row.b + 1e-12
    return float((points[feasible] @ rlp.objective).max())


def random_instance(rng, norm):
    """Small 2-D model that is feasible at the origin and box-bounded."""
    m = int(rng.integers(1, 4))
    uset = UncertaintySet(
        centers=rng.uniform(0.2, 1.0, size=(m, 2)),
        radius=float(rng.uniform(0.05, 0.5)),
        norm=norm,
    )
    rows = []
    if rng.random() < 0.5:
        rows.append(
            LinearRow(rng.uniform(0.1, 1.0, size=2), float(rng.uniform(1.0, 3.0)))
        )
    return RobustLinearProgram(
        objective=rng.uniform(0.2, 1.0, size=2),
        deterministic_rows=tuple(rows),
        robust_rows=(RobustRow(uset, float(rng.uniform(0.8, 2.0))),),
        bounds=box_bounds(2),
    )


def sample_in_ball(rng, radius, norm, n):
    """n points of the 2-D origin-centered ball of the given norm."""
    if norm is Norm.L2:
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    if norm is Norm.LINF:
        return rng.uniform(-radius, radius, size=(n, 2))
    points = np.empty((0, 2))
    while points.shape[0] < n:
        cand = rng.uniform(-radius, radius, size=(2 * n, 2))
        points = np.vstack([points, cand[np.abs(cand).sum(axis=1) <= radius]])
    return points[:n]


class TestModelValidation:
    def test_deterministic_row_dimension_mismatch(self):
        with pytest.raises(ModelError):
            RobustLinearProgram(
                objective=[1.0, 1.0],
                deterministic_rows=(LinearRow([1.0, 2.0, 3.0], 1.0),),
            )

    def test_robust_row_dimension_mismatch(self):
        uset = UncertaintySet(centers=[[1.0, 0.0, 0.0]], radius=0.1, norm=Norm.L2)
        with pytest.raises(ModelError):
            RobustLinearProgram(
                objective=[1.0, 1.0], robust_rows=(RobustRow(uset, 1.0),)
            )

    def test_bounds_length_mismatch(self):
        with pytest.raises(ModelError):
            RobustLinearProgram(objective=[1.0, 1.0], bounds=[(0.0, None)])

    def test_bounds_must_be_finite_or_none(self):
        with pytest.raises(ModelError):
            RobustLinearProgram(
                objective=[1.0], bounds=[(0.0, float("inf"))]
            )

    def test_objective_must_be_finite(self):
        with pytest.raises(ModelError):
            RobustLinearProgram(objective=[1.0, float("nan")])

    def test_row_bound_must_be_finite(self):
        with pytest.raises(ModelError):
            LinearRow([1.0], float("inf"))

    def test_rows_must_be_row_objects(self):
        with pytest.raises(ModelError, match="deterministic row"):
            RobustLinearProgram(objective=[1.0], deterministic_rows=[5])
        with pytest.raises(ModelError, match="deterministic row"):
            RobustLinearProgram(objective=[1.0], deterministic_rows=[([1.0], 1.0)])
        with pytest.raises(ModelError, match="robust row"):
            RobustLinearProgram(objective=[1.0], robust_rows=[5])

    def test_num_variables(self):
        assert bundled_example().num_variables == 2


class TestJsonRoundTrip:
    def test_full_model(self):
        uset = UncertaintySet(
            centers=[[0.5, 0.5], [-0.25, 1.0]], radius=0.2, norm=Norm.LINF
        )
        model = RobustLinearProgram(
            objective=[1.0, 0.5],
            deterministic_rows=(LinearRow([1.0, -1.0], 2.0),),
            robust_rows=(RobustRow(uset, 1.5),),
            bounds=[(0.0, 4.0), (None, 2.0)],
        )
        again = RobustLinearProgram.from_dict(json.loads(json.dumps(model.to_dict())))
        np.testing.assert_array_equal(again.objective, model.objective)
        assert again.bounds == model.bounds
        np.testing.assert_array_equal(
            again.robust_rows[0].uncertainty_set.centers, uset.centers
        )
        assert again.robust_rows[0].uncertainty_set.norm is Norm.LINF
        first = solve(model)
        second = solve(again)
        assert first.objective_value == second.objective_value

    def test_free_bounds_serialize_as_null(self):
        model = RobustLinearProgram(objective=[1.0, 1.0])
        data = model.to_dict()
        assert data["bounds"] is None
        assert RobustLinearProgram.from_dict(data).bounds is None


def plain_lp(c, a_ub, b_ub):
    """``max c . x  s.t.  a_ub x <= b_ub, x >= 0`` as a model without robust rows."""
    return RobustLinearProgram(
        objective=c,
        deterministic_rows=[LinearRow(a, b) for a, b in zip(a_ub, b_ub)],
        bounds=[(0.0, None)] * len(c),
    )


class TestSimplexSolveWrapper:
    """``solve`` on a plain LP is one ``solve_lp`` call wrapped in a report."""

    def test_basic_optimum(self):
        report = solve(plain_lp([1.0, 0.0], [[1.0, 1.0]], [2.0]))
        assert report.status is LPStatus.OPTIMAL
        assert report.objective_value == 2.0
        assert report.cuts_added == 0
        assert report.max_violation <= 1e-9

    def test_infeasible_pair(self):
        report = solve(plain_lp([1.0], [[-1.0], [1.0]], [-3.0, 1.0]))
        assert report.status is LPStatus.INFEASIBLE
        assert report.x_star is None
        assert report.objective_value is None

    def test_unbounded(self):
        report = solve(plain_lp([1.0], np.zeros((0, 1)), np.zeros(0)))
        assert report.status is LPStatus.UNBOUNDED


class TestBundledExample:
    def test_solves_to_the_closed_form(self):
        report = solve(bundled_example())
        assert report.status is LPStatus.OPTIMAL
        truth = 2.0 / (1.0 + 0.1 * math.sqrt(2.0))
        np.testing.assert_allclose(report.objective_value, truth, atol=1e-7)
        assert 0 < report.cuts_added < report.max_cuts
        assert report.max_violation <= report.feasibility_tol
        assert np.all(report.x_star >= -1e-12)

    def test_radius_zero_matches_the_plain_scenario_lp(self):
        uset = UncertaintySet(centers=[[0.5, 0.5]], radius=0.0, norm=Norm.L2)
        scenario = RobustLinearProgram(
            objective=[1.0, 1.0],
            robust_rows=(RobustRow(uset, 1.0),),
            bounds=[(0.0, None), (0.0, None)],
        )
        plain = RobustLinearProgram(
            objective=[1.0, 1.0],
            deterministic_rows=(LinearRow([0.5, 0.5], 1.0),),
            bounds=[(0.0, None), (0.0, None)],
        )
        left = solve(scenario)
        right = solve(plain)
        assert left.status is LPStatus.OPTIMAL
        assert abs(left.objective_value - right.objective_value) <= 1e-9
        assert left.objective_value == 2.0
        assert left.cuts_added == 0

    def test_plain_lp_with_upper_bound(self):
        model = RobustLinearProgram(
            objective=[1.0], deterministic_rows=(LinearRow([1.0], 1.0),)
        )
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        assert report.objective_value == 1.0


class TestSolvePaths:
    def test_linf_ball_reduces_to_a_plain_lp(self):
        # Dual is the sum norm; on x >= 0 the row is (u + r).x <= 1.
        uset = UncertaintySet(centers=[[0.6, 0.4]], radius=0.25, norm=Norm.LINF)
        model = RobustLinearProgram(
            objective=[1.0, 1.0],
            robust_rows=(RobustRow(uset, 1.0),),
            bounds=[(0.0, None), (0.0, None)],
        )
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(report.objective_value, 1.0 / 0.65, atol=1e-9)
        assert report.cuts_added == 0

    def test_l1_ball_symmetric_optimum(self):
        # Dual is the max norm; the symmetric split maximizes the sum.
        uset = UncertaintySet(centers=[[0.5, 0.5]], radius=0.2, norm=Norm.L1)
        model = RobustLinearProgram(
            objective=[1.0, 1.0],
            robust_rows=(RobustRow(uset, 1.0),),
            bounds=[(0.0, None), (0.0, None)],
        )
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(report.objective_value, 2.0 / 1.2, atol=1e-9)

    def test_negative_lower_bounds(self):
        uset = UncertaintySet(centers=[[0.5, 0.5]], radius=0.1, norm=Norm.L2)
        model = RobustLinearProgram(
            objective=[-1.0, -1.0],
            robust_rows=(RobustRow(uset, 1.0),),
            bounds=[(-2.0, None), (-2.0, None)],
        )
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(report.objective_value, 4.0, atol=1e-9)
        np.testing.assert_allclose(report.x_star, [-2.0, -2.0], atol=1e-9)

    def test_upper_only_bounds_with_a_slack_ball_row(self):
        uset = UncertaintySet(centers=[[1.0, 1.0]], radius=0.5, norm=Norm.L2)
        model = RobustLinearProgram(
            objective=[1.0, 1.0],
            robust_rows=(RobustRow(uset, 10.0),),
            bounds=[(None, 1.0), (None, 1.0)],
        )
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(report.objective_value, 2.0, atol=1e-9)

    def test_pinned_variable(self):
        model = RobustLinearProgram(objective=[1.0], bounds=[(2.0, 2.0)])
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        np.testing.assert_allclose(report.x_star, [2.0], atol=1e-12)

    def test_reversed_bounds_are_infeasible(self):
        model = RobustLinearProgram(objective=[1.0], bounds=[(1.0, 0.0)])
        assert solve(model).status is LPStatus.INFEASIBLE

    def test_contradictory_rows_are_infeasible(self):
        model = RobustLinearProgram(
            objective=[1.0],
            deterministic_rows=(LinearRow([-1.0], -3.0), LinearRow([1.0], 1.0)),
            bounds=[(0.0, None)],
        )
        assert solve(model).status is LPStatus.INFEASIBLE

    def test_infeasible_scenario_row_in_the_cut_path(self):
        uset = UncertaintySet(centers=[[1.0, 1.0]], radius=0.1, norm=Norm.L2)
        model = RobustLinearProgram(
            objective=[1.0, 1.0],
            robust_rows=(RobustRow(uset, -1.0),),
            bounds=[(0.0, None), (0.0, None)],
        )
        assert solve(model).status is LPStatus.INFEASIBLE

    def test_unbounded_free_objective(self):
        model = RobustLinearProgram(objective=[1.0, 0.0])
        report = solve(model)
        assert report.status is LPStatus.UNBOUNDED
        assert report.x_star is None

    def test_unbounded_along_a_ball_recession_direction(self):
        # Toward -e1 the worst case x1 + 0.1|x1| still falls, so the
        # cutting path must flag the model as unbounded, not converge.
        uset = UncertaintySet(centers=[[1.0, 0.0]], radius=0.1, norm=Norm.L2)
        model = RobustLinearProgram(
            objective=[-1.0, 0.0], robust_rows=(RobustRow(uset, 1.0),)
        )
        report = solve(model)
        assert report.status is LPStatus.UNBOUNDED

    def test_mixed_norm_rows_agree_with_the_grid(self):
        l1 = UncertaintySet(centers=[[0.7, 0.3]], radius=0.2, norm=Norm.L1)
        l2 = UncertaintySet(
            centers=[[0.2, 0.8], [0.5, 0.5]], radius=0.15, norm=Norm.L2
        )
        model = RobustLinearProgram(
            objective=[0.9, 1.0],
            robust_rows=(RobustRow(l1, 1.2), RobustRow(l2, 1.0)),
            bounds=box_bounds(2),
        )
        report = solve(model)
        assert report.status is LPStatus.OPTIMAL
        oracle = grid_optimum(model, 0.0, 3.0, n=601)
        assert abs(report.objective_value - oracle) <= 0.02


class TestRandomInstances:
    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(20240817)
        for norm in Norm:
            for _ in range(15):
                model = random_instance(rng, norm)
                report = solve(model)
                assert report.status is LPStatus.OPTIMAL
                oracle = grid_optimum(model, 0.0, 3.0)
                # Grid points are feasible, so the solver can only sit
                # above the oracle, and by at most one grid step.
                assert report.objective_value >= oracle - 1e-9
                assert abs(report.objective_value - oracle) <= 0.03

    def test_optimal_reports_are_certified(self):
        rng = np.random.default_rng(555)
        for norm in Norm:
            for _ in range(10):
                report = solve(random_instance(rng, norm))
                assert report.status is LPStatus.OPTIMAL
                assert report.max_violation <= report.feasibility_tol
                assert np.all(report.x_star >= -1e-9)
                assert np.all(report.x_star <= 3.0 + 1e-9)

    def test_solution_survives_sampled_uncertainty(self):
        rng = np.random.default_rng(990011)
        for norm in Norm:
            for _ in range(4):
                model = random_instance(rng, norm)
                report = solve(model)
                assert report.status is LPStatus.OPTIMAL
                for row in model.robust_rows:
                    uset = row.uncertainty_set
                    offsets = sample_in_ball(rng, uset.radius, uset.norm, 20_000)
                    picks = rng.integers(0, uset.num_balls, size=offsets.shape[0])
                    points = uset.centers[picks] + offsets
                    values = points @ report.x_star
                    assert values.max() <= row.b + 1e-7

    def test_scenario_consistency_at_radius_zero(self):
        rng = np.random.default_rng(31415)
        for norm in Norm:
            for _ in range(6):
                m = int(rng.integers(1, 5))
                centers = rng.uniform(0.1, 1.0, size=(m, 2))
                b = float(rng.uniform(0.5, 2.0))
                objective = rng.uniform(0.2, 1.0, size=2)
                robust = RobustLinearProgram(
                    objective=objective,
                    robust_rows=(
                        RobustRow(UncertaintySet(centers, 0.0, norm), b),
                    ),
                    bounds=box_bounds(2),
                )
                plain = RobustLinearProgram(
                    objective=objective,
                    deterministic_rows=tuple(LinearRow(c, b) for c in centers),
                    bounds=box_bounds(2),
                )
                left = solve(robust)
                right = solve(plain)
                assert left.status is LPStatus.OPTIMAL
                assert abs(left.objective_value - right.objective_value) <= 1e-9

    def test_growing_radius_never_helps(self):
        rng = np.random.default_rng(77)
        for norm in Norm:
            centers = rng.uniform(0.2, 1.0, size=(3, 2))
            objective = rng.uniform(0.2, 1.0, size=2)
            previous = None
            for radius in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]:
                model = RobustLinearProgram(
                    objective=objective,
                    robust_rows=(
                        RobustRow(UncertaintySet(centers, radius, norm), 1.5),
                    ),
                    bounds=box_bounds(2),
                )
                report = solve(model)
                assert report.status is LPStatus.OPTIMAL
                if previous is not None:
                    assert report.objective_value <= previous + 1e-9
                previous = report.objective_value


class TestPessimize:
    def test_feasible_point_has_nonpositive_violation(self):
        violation, witness = pessimize(bundled_example(), [0.5, 0.25])
        assert violation <= 0.0
        assert witness is not None

    def test_closed_form_witness(self):
        model = bundled_example()
        x = np.array([1.0, 1.0])
        violation, (index, witness) = pessimize(model, x)
        np.testing.assert_allclose(violation, 0.1 * math.sqrt(2.0), atol=1e-12)
        assert index == 0
        expected = np.array([0.5, 0.5]) + 0.1 * x / math.sqrt(2.0)
        np.testing.assert_allclose(witness, expected, atol=1e-12)
        uset = model.robust_rows[0].uncertainty_set
        assert member(uset, witness)
        np.testing.assert_allclose(
            float(witness @ x), worst_case_linear(uset, x), atol=1e-12
        )

    def test_witness_properties_on_random_sets(self):
        rng = np.random.default_rng(8080)
        for norm in Norm:
            for _ in range(20):
                uset = UncertaintySet(
                    centers=rng.normal(size=(int(rng.integers(1, 6)), 3)),
                    radius=float(rng.uniform(0.0, 2.0)),
                    norm=norm,
                )
                model = RobustLinearProgram(
                    objective=[1.0, 0.0, 0.0],
                    robust_rows=(RobustRow(uset, 0.0),),
                )
                x = rng.normal(size=3)
                violation, (index, witness) = pessimize(model, x)
                assert index == 0
                assert member(uset, witness)
                np.testing.assert_allclose(
                    float(witness @ x), worst_case_linear(uset, x), atol=1e-12
                )
                np.testing.assert_allclose(
                    violation, worst_case_linear(uset, x), atol=1e-12
                )

    def test_witness_of_a_small_ball_is_a_member(self):
        # Rounding in center + step here exceeds the radius by far more than
        # a few ulps of the step.
        uset = UncertaintySet(
            [[0.94708096, -0.70373524]], 0.002738500170148095, Norm.L2
        )
        model = RobustLinearProgram(
            objective=[1.0, 0.0], robust_rows=(RobustRow(uset, 0.0),)
        )
        x = np.random.default_rng(0).normal(size=2)
        _, (_, witness) = pessimize(model, x)
        assert member(uset, witness)
        np.testing.assert_allclose(
            float(witness @ x), worst_case_linear(uset, x), atol=1e-12
        )

    def test_radius_zero_witness_is_the_best_center(self):
        centers = np.array([[1.0, 0.0], [0.0, 2.0]])
        uset = UncertaintySet(centers=centers, radius=0.0, norm=Norm.L2)
        model = RobustLinearProgram(
            objective=[1.0, 1.0], robust_rows=(RobustRow(uset, 1.0),)
        )
        _, (_, witness) = pessimize(model, [0.0, 1.0])
        np.testing.assert_array_equal(witness, centers[1])

    def test_no_robust_rows(self):
        model = RobustLinearProgram(
            objective=[1.0], deterministic_rows=(LinearRow([1.0], 1.0),)
        )
        violation, witness = pessimize(model, [0.0])
        assert violation == float("-inf")
        assert witness is None

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            pessimize(bundled_example(), [1.0, 2.0, 3.0])

    def test_non_finite_point_rejected(self):
        with pytest.raises(ValueError):
            pessimize(bundled_example(), [float("inf"), 0.0])


class TestCuttingTermination:
    def test_cut_budget_sweep(self):
        model = bundled_example()
        converged = solve(model)
        assert converged.status is LPStatus.OPTIMAL
        objectives = []
        for budget in range(converged.cuts_added + 1):
            report = solve(model, max_cuts=budget)
            if budget < converged.cuts_added:
                assert report.status is LPStatus.ITERATION_LIMIT
                assert report.cuts_added == budget
                # The next cut would be generated at this iterate, so the
                # iterate must still violate the row by more than feasibility_tol.
                assert report.max_violation > report.feasibility_tol
                residual, _ = pessimize(model, report.x_star)
                np.testing.assert_allclose(
                    residual, report.max_violation, atol=1e-12
                )
            else:
                assert report.status is LPStatus.OPTIMAL
            objectives.append(report.objective_value)
        diffs = np.diff(objectives)
        assert np.all(diffs <= 1e-9)
        np.testing.assert_allclose(
            objectives[-1], converged.objective_value, atol=1e-12
        )

    def test_l2_cuts_converge_on_a_ten_dimensional_instance(self):
        # Cutting each violated row at its own scenario point ran out of
        # cuts here; cutting the one shared cone ||x||_2 <= t converges.
        rng = np.random.default_rng(16)
        d, m = 10, 50
        objective = rng.uniform(0.2, 1.0, d)
        centers = rng.uniform(0.0, 1.0, (m, d))

        def model(norm):
            return RobustLinearProgram(
                objective=objective,
                deterministic_rows=(LinearRow(np.ones(d), 10.0),),
                robust_rows=(RobustRow(UncertaintySet(centers, 0.3, norm), 5.0),),
                bounds=[(0.0, None)] * d,
            )

        l2 = model(Norm.L2)
        report = solve(l2)
        assert report.status is LPStatus.OPTIMAL
        assert report.cuts_added < report.max_cuts
        violation, _ = pessimize(l2, report.x_star)
        assert violation <= report.feasibility_tol
        # L1 ball inside L2 ball inside LINF ball: a larger set can only
        # lower the robust optimum.
        inner = solve(model(Norm.L1)).objective_value
        outer = solve(model(Norm.LINF)).objective_value
        assert outer - 1e-9 <= report.objective_value <= inner + 1e-9
