"""Tests for quantile calibration, sample-size planning, and tail bounds."""

import math

import numpy as np
import pytest
from scipy.stats import binom

from ballcover.calibration import (
    CalibrationSpec,
    UndersampledError,
    UndersampledWarning,
    calibrate_radius,
    chernoff_violation_bounds,
    empirical_quantile,
    exact_violation_probs,
    optimal_lambda,
    planning_constant,
    sample_size,
)
from ballcover.geometry import Norm, member_batch


def quantile_oracle(values, gamma):
    """Brute-force inf{z in values : F_n(z) >= gamma}."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    for z in values:
        if np.count_nonzero(values <= z) / n >= gamma:
            return float(z)
    return float(values[-1])


class TestEmpiricalQuantile:
    def test_basic_examples(self):
        assert empirical_quantile([1, 2, 3, 4], 0.5) == 2.0
        shuffled = [7, 3, 10, 1, 5, 9, 2, 8, 6, 4]
        assert empirical_quantile(shuffled, 0.95) == 10.0
        # ceil(3 * 0.34) = 2, so the second smallest of (5, 1, 3).
        assert empirical_quantile([5, 1, 3], 0.34) == 3.0
        assert quantile_oracle([5, 1, 3], 0.34) == 3.0

    def test_matches_oracle_on_grid(self):
        rng = np.random.default_rng(314)
        grid = [float(g) for g in np.linspace(0.01, 0.99, 25)]
        for n in [1, 2, 3, 5, 17, 64, 200]:
            values = rng.normal(size=n)
            if n > 3:
                values[: n // 3] = values[n // 3 : 2 * (n // 3)][: n // 3]  # force ties
            # Each level k/n exactly and one ulp on either side of it.
            levels = [k / n for k in range(1, n)]
            below = [math.nextafter(g, 0.0) for g in levels + [1.0]]
            above = [math.nextafter(g, 1.0) for g in levels]
            before = values.copy()
            for gamma in grid + levels + below + above:
                assert empirical_quantile(values, gamma) == quantile_oracle(values, gamma)
            assert np.array_equal(values, before)

    def test_grid_gamma_survives_product_rounding(self):
        # 25 * (7 / 25) evaluates to 7.000000000000001, so a bare
        # ceil(n * gamma) would skip to the 8th smallest score.
        assert empirical_quantile(np.arange(25.0), 7 / 25) == 6.0
        assert quantile_oracle(np.arange(25.0), 7 / 25) == 6.0

    def test_monotone_in_gamma(self):
        rng = np.random.default_rng(88)
        scores = rng.exponential(size=37)
        gammas = rng.uniform(0.01, 0.99, size=100)
        gammas.sort()
        quantiles = [empirical_quantile(scores, g) for g in gammas]
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))

    def test_gamma_domain(self):
        scores = np.array([1.0, 2.0])
        for gamma in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                empirical_quantile(scores, gamma)

    def test_scores_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError, match="1-D"):
            empirical_quantile([[1.0, 2.0], [3.0, 4.0]], 0.5)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                empirical_quantile([1.0, bad], 0.5)


class TestOptimalLambda:
    def test_reference_value(self):
        lam = optimal_lambda(0.9, 0.05)
        np.testing.assert_allclose(lam, 0.244966, atol=5e-7)

    def test_branches_balance_at_optimum(self):
        lam = optimal_lambda(0.9, 0.05)
        left = (1 - 0.9) / lam**2
        right = (0.9 + 0.05) / (1 - lam) ** 2
        assert abs(left - right) < 1e-9

    def test_matches_grid_minimizer(self):
        for alpha, eps in [(0.9, 0.05), (0.75, 0.1), (0.95, 0.02), (0.6, 0.3)]:
            grid = np.arange(1e-5, 1.0, 1e-5)
            values = np.maximum((1 - alpha) / grid**2, (alpha + eps) / (1 - grid) ** 2)
            best = grid[np.argmin(values)]
            assert abs(optimal_lambda(alpha, eps) - best) < 1e-4

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_lambda(0.5, 0.1)
        with pytest.raises(ValueError):
            optimal_lambda(0.4, 0.1)
        with pytest.raises(ValueError):
            optimal_lambda(0.9, 0.2)  # epsilon >= 1 - alpha


class TestSampleSize:
    def test_reference_plan(self):
        lam = optimal_lambda(0.9, 0.05)
        assert sample_size(0.9, 0.05, 0.05, lam) == 4918

    def test_halving_epsilon(self):
        n_coarse = sample_size(0.9, 0.05, 0.05, optimal_lambda(0.9, 0.05))
        n_fine = sample_size(0.9, 0.025, 0.05, optimal_lambda(0.9, 0.025))
        assert n_fine / n_coarse > 3.9

    def test_monotone_in_epsilon_and_delta(self):
        for eps1, eps2 in [(0.02, 0.04), (0.04, 0.08)]:
            assert sample_size(0.9, eps1, 0.05, 0.3) >= sample_size(0.9, eps2, 0.05, 0.3)
        for d1, d2 in [(0.01, 0.05), (0.05, 0.2)]:
            assert sample_size(0.9, 0.05, d1, 0.3) >= sample_size(0.9, 0.05, d2, 0.3)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_size(0.9, 0.05, 2.0, 0.3)
        with pytest.raises(ValueError):
            sample_size(0.9, 0.05, 0.05, 1.0)
        with pytest.raises(ValueError):
            sample_size(1.1, 0.05, 0.05, 0.3)

    @pytest.mark.parametrize("delta", [1e-320, 5e-324, 1e-308])
    def test_plan_beyond_a_float_is_a_value_error(self, delta):
        # 2 / delta overflows for any delta below 2 / DBL_MAX (1.1e-308).
        with pytest.raises(ValueError, match=f"n_min .*delta={delta}"):
            sample_size(0.9, 0.05, delta, 0.3)

    def test_underflowing_epsilon_is_a_value_error(self):
        # 1e-200 squared is 0: the plan would divide by zero.
        with pytest.raises(ValueError, match="n_min .*epsilon=1e-200"):
            sample_size(0.9, 1e-200, 0.05, 0.3)

    def test_smallest_normal_delta_still_plans(self):
        assert sample_size(0.9, 0.05, 2.2250738585072014e-308, 0.3) > 0

    def test_planning_constant_is_max_of_branches(self):
        c = planning_constant(0.9, 0.05, 0.25)
        assert c == max((1 - 0.9) / 0.25**2, (0.9 + 0.05) / (1 - 0.25) ** 2)


class TestChernoffBounds:
    def test_reference_bounds_at_plan(self):
        lam = optimal_lambda(0.9, 0.05)
        n = sample_size(0.9, 0.05, 0.05, lam)
        under, over = chernoff_violation_bounds(n, 0.9, 0.05, 0.9 + lam * 0.05)
        assert under <= 0.025
        assert over <= 0.025

    def test_doubling_n_squares_bounds(self):
        under, over = chernoff_violation_bounds(500, 0.8, 0.1, 0.84)
        under2, over2 = chernoff_violation_bounds(1000, 0.8, 0.1, 0.84)
        np.testing.assert_allclose(under2, under**2, rtol=1e-12)
        np.testing.assert_allclose(over2, over**2, rtol=1e-12)

    def test_hypothesis_checked(self):
        with pytest.raises(ValueError):
            chernoff_violation_bounds(100, 0.9, 0.05, 0.9)
        with pytest.raises(ValueError):
            chernoff_violation_bounds(100, 0.9, 0.05, 0.96)
        with pytest.raises(ValueError):
            chernoff_violation_bounds(0, 0.9, 0.05, 0.92)
        with pytest.raises(ValueError):
            chernoff_violation_bounds(True, 0.9, 0.05, 0.91)
        with pytest.raises(ValueError):
            exact_violation_probs(True, 0.9, 0.05, 0.91)


class TestExactViolationProbs:
    def test_hand_sums_n2(self):
        under, over = exact_violation_probs(2, 0.9, 0.05, 0.91)
        np.testing.assert_allclose(under, 0.81, rtol=1e-15)
        np.testing.assert_allclose(over, 0.0975, rtol=1e-14)

    def test_matches_scipy_binomial(self):
        rng = np.random.default_rng(5150)
        for _ in range(50):
            n = int(rng.integers(1, 2000))
            alpha = float(rng.uniform(0.05, 0.95))
            eps = float(rng.uniform(0.2, 0.9)) * (1 - alpha)
            alpha_n = alpha + float(rng.uniform(0.1, 0.9)) * eps
            if not alpha < alpha_n < alpha + eps:
                continue
            under, over = exact_violation_probs(n, alpha, eps, alpha_n)
            k = math.ceil(n * alpha_n)
            np.testing.assert_allclose(under, binom.cdf(n - k, n, 1 - alpha), rtol=1e-10)
            np.testing.assert_allclose(over, binom.cdf(k - 1, n, alpha + eps), rtol=1e-10)

    def test_rank_is_the_one_the_quantile_takes(self):
        # 25 * 0.28 rounds to 7.000000000000001, so ceil gives rank 8, but
        # empirical_quantile (and so calibrate_radius) takes the 7th score.
        n, alpha, eps, alpha_n = 25, 0.27, 0.02, 0.28
        assert empirical_quantile(np.arange(1.0, n + 1), alpha_n) == 7.0
        under, over = exact_violation_probs(n, alpha, eps, alpha_n)
        np.testing.assert_allclose(under, binom.cdf(n - 7, n, 1 - alpha), rtol=1e-12)
        np.testing.assert_allclose(over, binom.cdf(7 - 1, n, alpha + eps), rtol=1e-12)

    def test_stable_at_one_million(self):
        n = 1_000_000
        under, over = exact_violation_probs(n, 0.9, 0.05, 0.9005)
        k = math.ceil(n * 0.9005)
        np.testing.assert_allclose(under, binom.cdf(n - k, n, 0.1), rtol=1e-8)
        np.testing.assert_allclose(over, binom.cdf(k - 1, n, 0.95), rtol=1e-8)
        assert 0.0 <= over <= under <= 1.0

    def test_dominated_by_chernoff(self):
        for n in [2, 5, 20, 100, 500]:
            for alpha in [0.6, 0.8, 0.9]:
                for frac in [0.25, 0.5, 0.75]:
                    eps = 0.5 * (1 - alpha)
                    alpha_n = alpha + frac * eps
                    exact = exact_violation_probs(n, alpha, eps, alpha_n)
                    bound = chernoff_violation_bounds(n, alpha, eps, alpha_n)
                    assert exact[0] <= bound[0]
                    assert exact[1] <= bound[1]

    def test_undershoot_matches_monte_carlo(self):
        # Synthetic 1-D calibration with uniform scores: the captured mass
        # of the radius calibrated at level alpha_n is the radius itself,
        # so undershoot events are {quantile < alpha}.
        n, alpha, eps, alpha_n, reps = 50, 0.8, 0.15, 0.88, 10_000
        exact = exact_violation_probs(n, alpha, eps, alpha_n)[0]
        rng = np.random.default_rng(2718)
        draws = rng.uniform(size=(reps, n))
        draws.sort(axis=1)
        radii = draws[:, math.ceil(n * alpha_n) - 1]
        freq = float(np.mean(radii < alpha))
        se = math.sqrt(exact * (1 - exact) / reps)
        assert abs(freq - exact) <= 3 * se


class TestCalibrationSpec:
    def test_optimal_lambda_resolution(self):
        spec = CalibrationSpec(0.9, 0.05, 0.05)
        np.testing.assert_allclose(spec.lam, optimal_lambda(0.9, 0.05), rtol=1e-15)
        assert spec.n_min == 4918
        np.testing.assert_allclose(spec.alpha_n, 0.9 + spec.lam * 0.05, rtol=1e-15)

    def test_pinned_alpha_n(self):
        spec = CalibrationSpec(0.9, 0.05, 0.05, lam=0.3, alpha_n=0.93)
        assert spec.alpha_n == 0.93
        assert spec.n_min == sample_size(0.9, 0.05, 0.05, 0.3)

    def test_alpha_n_interval_enforced(self):
        with pytest.raises(ValueError):
            CalibrationSpec(0.9, 0.05, 0.05, lam=0.3, alpha_n=0.9)
        with pytest.raises(ValueError):
            CalibrationSpec(0.9, 0.05, 0.05, lam=0.3, alpha_n=0.96)

    @pytest.mark.parametrize("alpha_n", [0.9, 0.96])
    def test_alpha_n_message_matches_the_bounds(self, alpha_n):
        # The spec and the violation bounds share one level check.
        with pytest.raises(ValueError) as from_spec:
            CalibrationSpec(0.9, 0.05, 0.05, alpha_n=alpha_n)
        with pytest.raises(ValueError) as from_bounds:
            chernoff_violation_bounds(100, 0.9, 0.05, alpha_n)
        assert str(from_spec.value) == str(from_bounds.value)

    def test_bad_lambda_string(self):
        with pytest.raises(ValueError):
            CalibrationSpec(0.9, 0.05, 0.05, lam="auto")


class TestCalibrateRadius:
    def spec_with_alpha_n(self, alpha_n):
        # A small plan whose quantile level is pinned; undersampling is
        # expected in the toy examples, so tests opt into advisory mode.
        return CalibrationSpec(0.45, 0.1, 0.05, lam=0.5, alpha_n=alpha_n)

    def test_median_of_ring_distances(self):
        spec = self.spec_with_alpha_n(0.5)
        training = [(1, 0), (0, 2), (-3, 0), (0, -4)]
        with pytest.warns(UndersampledWarning):
            uset = calibrate_radius([(0, 0)], Norm.L2, training, spec, strict=False)
        assert uset.radius == 2.0

    def test_degenerate_all_at_center(self):
        spec = self.spec_with_alpha_n(0.5)
        with pytest.warns(UndersampledWarning):
            uset = calibrate_radius(
                [(1, 1)], Norm.L2, [(1, 1)] * 8, spec, strict=False
            )
        assert uset.radius == 0.0

    def test_strict_mode_rejects_undersampling(self):
        spec = CalibrationSpec(0.9, 0.05, 0.05)
        with pytest.raises(UndersampledError):
            calibrate_radius([(0, 0)], Norm.L2, np.zeros((100, 2)), spec)

    def test_monte_carlo_coverage_bracket(self):
        spec = CalibrationSpec(0.9, 0.05, 0.05)
        rng = np.random.default_rng(424242)
        centers = rng.standard_normal((10, 2))
        training = rng.standard_normal((spec.n_min, 2))
        uset = calibrate_radius(centers, Norm.L2, training, spec)
        fresh = rng.standard_normal((100_000, 2))
        coverage = float(np.mean(member_batch(uset, fresh)))
        assert 0.88 <= coverage <= 0.97

    def test_empty_training_rejected(self):
        spec = self.spec_with_alpha_n(0.5)
        with pytest.raises(ValueError):
            calibrate_radius([(0, 0)], Norm.L2, np.zeros((0, 2)), spec)
