"""Tests for norms, the nearest-center shape function, and set geometry."""

import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover import geometry
from ballcover.geometry import (
    DimensionError,
    Norm,
    UncertaintySet,
    dual_achieving_direction,
    dual_norm_eval,
    member,
    member_batch,
    norm_eval,
    shape_values,
    worst_case_linear,
    worst_case_point,
)

ALL_NORMS = [Norm.L1, Norm.L2, Norm.LINF]


def brute_force_shape(centers, norm, u):
    """Reference nearest-center distance: explicit loop over centers."""
    best = np.inf
    for c in np.atleast_2d(centers):
        best = min(best, norm_eval(np.asarray(u, dtype=float) - c, norm))
    return best


class TestNormEval:
    def test_three_four_five(self):
        x = (3.0, -4.0)
        assert norm_eval(x, Norm.L1) == 7.0
        assert norm_eval(x, Norm.L2) == 5.0
        assert norm_eval(x, Norm.LINF) == 4.0

    def test_zero_vector(self):
        for norm in ALL_NORMS:
            assert norm_eval([0.0, 0.0], norm) == 0.0

    def test_zero_iff_zero_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=rng.integers(1, 6))
            for norm in ALL_NORMS:
                assert (norm_eval(x, norm) == 0.0) == (not np.any(x))

    def test_empty_vector_rejected(self):
        for norm in ALL_NORMS:
            with pytest.raises(DimensionError):
                norm_eval([], norm)


class TestInputsAreNotWritten:
    """The kernels reduce their difference arrays in place, never the caller's."""

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_norms_leave_the_vector_unchanged(self, norm):
        x = np.array([3.0, -4.0, 0.5, -0.0])
        before = x.copy()
        for evaluate in (norm_eval, dual_norm_eval):
            evaluate(x, norm)
            np.testing.assert_array_equal(x, before)
            assert np.signbit(x[3])

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_shape_values_leaves_centers_and_points_unchanged(self, norm):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(5, 3))
        points = rng.normal(size=(40, 3))
        inputs = [(centers, points), (centers[:1], points[0]), (points[:1], centers[:1])]
        for c, p in inputs:
            saved = (c.copy(), p.copy())
            shape_values(c, norm, p)
            np.testing.assert_array_equal(c, saved[0])
            np.testing.assert_array_equal(p, saved[1])


class TestDualNorm:
    def test_dual_pairs(self):
        assert Norm.L1.dual is Norm.LINF
        assert Norm.LINF.dual is Norm.L1
        assert Norm.L2.dual is Norm.L2

    def test_dual_is_involution(self):
        for norm in ALL_NORMS:
            assert norm.dual.dual is norm

    def test_dual_values(self):
        x = (3.0, -4.0)
        assert dual_norm_eval(x, Norm.L1) == 4.0
        assert dual_norm_eval(x, Norm.LINF) == 7.0
        assert dual_norm_eval(x, Norm.L2) == 5.0

    def test_hoelder_inequality(self):
        # x . u <= ||x||_* for every u in the unit primal ball.
        rng = np.random.default_rng(202)
        for _ in range(300):
            d = int(rng.integers(1, 7))
            x = rng.normal(scale=3.0, size=d)
            u = rng.normal(size=d)
            norm = ALL_NORMS[rng.integers(3)]
            scale = norm_eval(u, norm)
            if scale == 0.0:
                continue
            u = u / scale * rng.uniform()
            assert x @ u <= dual_norm_eval(x, norm) + 1e-12

    def test_achieving_direction(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            x = rng.normal(size=d)
            norm = ALL_NORMS[rng.integers(3)]
            g = dual_achieving_direction(x, norm)
            assert norm_eval(g, norm) <= 1.0 + 1e-12
            np.testing.assert_allclose(x @ g, dual_norm_eval(x, norm), rtol=0, atol=1e-12)

    def test_achieving_direction_at_zero(self):
        for norm in ALL_NORMS:
            g = dual_achieving_direction(np.zeros(3), norm)
            np.testing.assert_array_equal(g, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "top", [5e-324, 1e-300, 0.75, 1.0, 1.5, 2.0, 3.0, 1e300, 1.7976931348623157e308]
    )
    def test_power_of_two_scale_brings_the_largest_entry_into_one_to_two(self, top):
        x = np.array([top / 3.0, -top, top / 7.0])
        scale = geometry._power_of_two_scale(x)
        assert math.frexp(scale)[0] == 0.5
        assert 1.0 <= top / scale < 2.0

    @pytest.mark.parametrize("size", [1e-300, 1e-170, 1e200, 1e300])
    def test_l2_direction_and_norm_where_x_dot_x_leaves_the_range(self, size):
        # x . x underflows to 0 below about 1e-162 and overflows above about 1e154.
        x = [size, size]
        g = dual_achieving_direction(x, Norm.L2)
        np.testing.assert_allclose(g, [math.sqrt(0.5)] * 2, rtol=1e-15)
        assert norm_eval(x, Norm.L2) == pytest.approx(math.sqrt(2.0) * size, rel=1e-15)

    def test_scaling_keeps_the_unscaled_bits(self):
        # Dividing x by a power of two is exact when nothing overflows or
        # underflows, so the L2 direction and every norm keep their bits.
        rng = np.random.default_rng(24)
        for _ in range(200):
            x = rng.normal(size=int(rng.integers(1, 30))) * 10.0 ** rng.uniform(-30, 30)
            direction = dual_achieving_direction(x, Norm.L2)
            assert direction.tobytes() == (x / np.sqrt(np.dot(x, x))).tobytes()
            assert norm_eval(x, Norm.L1) == float(np.add.accumulate(np.abs(x))[-1])
            assert norm_eval(x, Norm.L2) == math.sqrt(float(np.add.accumulate(x * x)[-1]))
            assert norm_eval(x, Norm.LINF) == float(np.max(np.abs(x)))


class TestShapeValue:
    def test_nearest_center(self):
        assert shape_values([(0, 0), (10, 0)], Norm.L2, (1, 0))[0] == 1.0

    def test_at_center(self):
        assert shape_values([(0, 0)], Norm.L2, (0, 0))[0] == 0.0

    def test_l1_two_centers(self):
        # min(|6|+|1|, |6-10|+|1|) = min(7, 5)
        assert shape_values([(0, 0), (10, 0)], Norm.L1, (6, 1))[0] == 5.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            m = int(rng.integers(1, 8))
            centers = rng.normal(size=(m, d))
            u = rng.normal(size=d)
            norm = ALL_NORMS[rng.integers(3)]
            np.testing.assert_allclose(
                shape_values(centers, norm, u)[0],
                brute_force_shape(centers, norm, u),
                rtol=1e-13,
            )

    def test_zero_at_every_center(self):
        rng = np.random.default_rng(7)
        centers = rng.normal(size=(12, 3))
        for norm in ALL_NORMS:
            values = shape_values(centers, norm, centers)
            np.testing.assert_array_equal(values, np.zeros(12))

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(8)
        centers = rng.normal(size=(5, 2))
        points = rng.normal(size=(40, 2))
        for norm in ALL_NORMS:
            batch = shape_values(centers, norm, points)
            singles = [shape_values(centers, norm, p)[0] for p in points]
            np.testing.assert_allclose(batch, singles, rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            shape_values([(0, 0)], Norm.L2, (1, 2, 3))
        with pytest.raises(DimensionError):
            shape_values(np.zeros((2, 2)), Norm.L2, np.zeros((3, 4)))


class TestBlocks:
    """``shape_values`` scores points in blocks of ``_CHUNK_BUDGET`` floats."""

    @pytest.mark.parametrize("m", [1, 10, 1000])
    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 20, 33, 64])
    def test_exact_at_every_block_size(self, d, m, monkeypatch):
        # 1009 and 211 are prime, so no block size above one divides the
        # point count and a multi-block split always ends on a short block;
        # budget 1 makes one point per block.  Above d = 32 a block has the
        # rows of a 32-D one, which d = 33 and 64 check at every budget.
        rng = np.random.default_rng(100 * d + m)
        centers = rng.normal(size=(m, d))
        points = rng.normal(size=(1009 if m < 1000 else 211, d))
        for norm in ALL_NORMS:
            radius = float(np.median(shape_values(centers, norm, points)))
            uset = UncertaintySet(centers, radius, norm)
            results, memberships = [], []
            for budget in (1, 7, 4096, 65_536, 1_000_000):
                monkeypatch.setattr(geometry, "_CHUNK_BUDGET", budget)
                results.append(shape_values(centers, norm, points))
                # At m = 1000 or above d = 32 budgets 1 and 7 score a pair or
                # so a step, which takes seconds; the other cases cover such
                # steps.
                if (m < 1000 and d <= 32) or budget > 7:
                    memberships.append(member_batch(uset, points))
            for result in results[1:]:
                np.testing.assert_array_equal(result, results[0])
            for inside in memberships:
                np.testing.assert_array_equal(inside, results[0] <= radius)

    def test_scratch_memory_does_not_grow_with_the_sample(self):
        # 20k points against 1000 centers are 40M floats (320 MB) of
        # differences; blocked, the peak is a few 512 KB blocks plus the output.
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(1000, 2))
        points = rng.normal(size=(20_000, 2))
        tracemalloc.start()
        try:
            shape_values(centers, Norm.L2, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_high_dimensional_block_is_bounded_and_does_not_grow_with_the_sample(self):
        # Above d = 32 a block keeps the rows of a 32-D one: 40 rows against
        # 50 centers at d = 300, 600K floats (4.8 MB) of differences, reused
        # for every block, so the peak beyond the output does not grow with n.
        rng = np.random.default_rng(6)
        centers = rng.normal(size=(50, 300))
        peaks = []
        for n in (3_000, 20_000):
            points = rng.normal(size=(n, 300))
            tracemalloc.start()
            try:
                shape_values(centers, Norm.L2, points)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - 8 * n)
        assert peaks[0] < 10 * 2**20
        assert abs(peaks[1] - peaks[0]) < 2**16

    def test_member_batch_block_is_bounded_at_high_dimension(self):
        # 20k points in 300-D are 48 MB; the transposed block is capped at
        # 16 * 64K floats (8 MB), and a step's take copies at most one more.
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(3, 300))
        points = rng.normal(size=(20_000, 300))
        radius = float(np.median(shape_values(centers, Norm.L2, points[:500])))
        uset = UncertaintySet(centers, radius, Norm.L2)
        tracemalloc.start()
        try:
            member_batch(uset, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestLeftToRight:
    """Both kernels add the coordinates of a pair left to right."""

    @staticmethod
    def left_fold(centers, norm, points):
        # (n, m) distances from a Python left fold over per-coordinate terms.
        transform = np.square if norm is Norm.L2 else np.abs
        combine = np.maximum if norm is Norm.LINF else operator.add
        terms = [transform(p[:, np.newaxis] - c) for p, c in zip(points.T, centers.T)]
        sums = functools.reduce(combine, terms)
        return np.sqrt(sums) if norm is Norm.L2 else sums

    def test_both_kernels_equal_a_left_fold_at_every_dimension(self):
        # Coordinates spread over six decades make the summation order show
        # in the last bits from d = 8 up, where numpy's sum adds pairwise.
        rng = np.random.default_rng(15)
        for d in range(1, 301):
            centers = rng.normal(size=(3, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
            points = rng.normal(size=(16, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
            for norm in ALL_NORMS:
                pairs = self.left_fold(centers, norm, points)
                scores = pairs.min(axis=1)
                values = shape_values(centers, norm, points)
                np.testing.assert_array_equal(values, scores, err_msg=f"d={d}")
                assert norm_eval(points[0] - centers[0], norm) == pairs[0, 0]
                radius = float(np.sort(scores)[d % 16])
                inside = member_batch(UncertaintySet(centers, radius, norm), points)
                np.testing.assert_array_equal(inside, scores <= radius, err_msg=f"d={d}")
                if d <= 7 or norm is Norm.LINF:
                    # numpy's sum adds one by one below 8 terms, and a maximum
                    # is order-free, so these scores are those of the pairwise
                    # sum ``shape_values`` once used.
                    transform = np.square if norm is Norm.L2 else np.abs
                    diffs = transform(points[:, np.newaxis, :] - centers)
                    old = diffs.max(-1) if norm is Norm.LINF else diffs.sum(-1)
                    old = np.sqrt(old) if norm is Norm.L2 else old
                    np.testing.assert_array_equal(scores, old.min(1), err_msg=f"d={d}")


class TestDeferredCompaction:
    """``member_batch`` drops the points it has found only when that saves work.

    Found points stay in the block, and are tested again, until dropping
    them costs less than the pair tests they would still take; after the
    last center the found points are written without a drop.  Either way
    each verdict is ``shape_values(...) <= radius``.
    """

    # (m, _CHUNK_BUDGET).  Budget 64 makes blocks of 32 points, so once fewer
    # than m points are left a step takes g > 1 centers.  At m = 1000 it
    # takes seconds (a step or so per center and block), so m <= 10 cover it.
    SIZES = [(m, b) for m in (1, 2, 10, 1000) for b in (64, 4096, 65_536) if (m, b) != (1000, 64)]

    @staticmethod
    def assert_threshold(centers, points, radius=1.0):
        for norm in ALL_NORMS:
            uset = UncertaintySet(centers, radius, norm)
            expected = shape_values(centers, norm, points) <= radius
            np.testing.assert_array_equal(
                member_batch(uset, points), expected, err_msg=norm.value
            )

    @staticmethod
    def trickle(m, far, seed):
        # Centers 10 apart on the first axis.  Point k sits 0.5 from center k
        # and 9.5 from its neighbours, so each center finds one new point, in
        # every norm; the ``far`` points lie outside every ball.
        rng = np.random.default_rng(seed)
        centers = np.zeros((m, 2))
        centers[:, 0] = 10.0 * np.arange(m)
        near = centers + [0.5, 0.0]
        away = rng.uniform(-1.0, 1.0, size=(far, 2)) + [0.0, 100.0]
        points = np.concatenate([near, away])
        return centers, points[rng.permutation(len(points))]

    @pytest.mark.parametrize("m, budget", SIZES)
    @pytest.mark.parametrize("far", [0, 5, 300])
    def test_hits_that_trickle_in(self, m, budget, far, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_BUDGET", budget)
        centers, points = self.trickle(m, far, seed=m + far)
        self.assert_threshold(centers, points)
        # The last center's point alone: only the last step finds it.
        self.assert_threshold(centers, points[points[:, 0] == centers[-1, 0] + 0.5])

    @pytest.mark.parametrize("m, budget", SIZES)
    def test_a_block_no_ball_touches(self, m, budget, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_BUDGET", budget)
        centers, _ = self.trickle(m, 0, seed=m)
        points = np.random.default_rng(m).uniform(-1.0, 1.0, size=(97, 2)) + [0.0, 100.0]
        for norm in ALL_NORMS:
            assert not member_batch(UncertaintySet(centers, 1.0, norm), points).any()

    @pytest.mark.parametrize("m, budget", SIZES)
    def test_every_point_inside_the_first_ball(self, m, budget, monkeypatch):
        monkeypatch.setattr(geometry, "_CHUNK_BUDGET", budget)
        centers, _ = self.trickle(m, 0, seed=m)
        points = np.random.default_rng(m).uniform(-0.5, 0.5, size=(3001, 2))
        for norm in ALL_NORMS:
            assert member_batch(UncertaintySet(centers, 1.0, norm), points).all()

    @pytest.mark.parametrize("m, budget", SIZES)
    def test_mixed_random_sets(self, m, budget, monkeypatch):
        # Centers at two scales: some points are found by the first step,
        # some late, some never.
        monkeypatch.setattr(geometry, "_CHUNK_BUDGET", budget)
        rng = np.random.default_rng(7 * m)
        centers = rng.normal(size=(m, 3)) * rng.choice([0.3, 3.0], size=(m, 1))
        points = rng.normal(scale=2.0, size=(1009, 3))
        for norm in ALL_NORMS:
            scores = shape_values(centers, norm, points)
            for radius in np.quantile(scores, [0.05, 0.5, 0.95]):
                inside = member_batch(UncertaintySet(centers, radius, norm), points)
                np.testing.assert_array_equal(inside, scores <= radius)


@st.composite
def sets_and_points(draw):
    """A set whose radius is one point's own score, plus points with NaN rows.

    The radius is the rank-k score, as calibration takes it, so at least one
    point lies exactly on the radius; centers may repeat.
    """
    norm = draw(st.sampled_from(ALL_NORMS))
    # Up to 40: from d = 8 up, numpy's ``sum`` would add in another order
    # than a left-to-right fold, so both kernels must fold to agree.
    d = draw(st.integers(1, 40))
    m = draw(st.integers(1, 300))
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.normal(size=(m, d))
    if draw(st.booleans()):
        centers = centers[rng.integers(0, m, size=m)]
    points = rng.normal(scale=draw(st.sampled_from([0.5, 2.0])), size=(n, d))
    scores = shape_values(centers, norm, points)
    radius = float(np.sort(scores)[draw(st.integers(0, n - 1))])
    nan_rows = draw(st.lists(st.integers(0, n - 1), max_size=3))
    points[nan_rows, rng.integers(0, d, size=len(nan_rows))] = np.nan
    return UncertaintySet(centers, radius, norm), points


class TestMemberBatchProperties:
    """The early-exit membership test is the nearest-center threshold, bit for bit."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(sets_and_points())
    def test_equals_the_shape_threshold(self, case):
        uset, points = case
        expected = shape_values(uset.centers, uset.norm, points) <= uset.radius
        inside = member_batch(uset, points)
        np.testing.assert_array_equal(inside, expected)
        assert not np.any(inside[np.isnan(points).any(axis=1)])
        # A 1-D point is one row, through both entry points.
        assert member_batch(uset, points[0]).tolist() == [expected[0]]
        assert member(uset, points[0]) is bool(expected[0])

    @pytest.mark.parametrize("norm", ALL_NORMS)
    @pytest.mark.parametrize("radius", [0.0, 5e-320, 1e-160, 1.0, 1e150, 1e200])
    def test_threshold_at_extreme_radii(self, radius, norm):
        # Radius 0, a subnormal radius, radii whose squares underflow or
        # overflow (1e-160, 1e200), and points with infinite coordinates.
        # Around the origin center the differences are the points themselves,
        # so subnormal and huge offsets reach the kernel unrounded.
        centers = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
        rng = np.random.default_rng(13)
        offsets = [0.0, 5e-324, 1e-320, 5e-320, 1e-160, 1e-150, 1.0, 1e150, 1.3e154, 1e199, 1e200]
        rows = [np.zeros(3), centers[1]]
        for value in offsets:
            rows += [np.array([value, 0.0, 0.0]), np.full(3, value), np.array([-value, value, 0.0])]
            rows.append(centers[1] + value)
            rows.append(np.nextafter(np.full(3, value), np.inf))
        for bad in (np.inf, -np.inf):
            rows += [np.array([bad, 0.0, 0.0]), np.array([1.0, -2.0, bad]), np.full(3, bad)]
        rows += list(rng.normal(scale=radius or 1.0, size=(40, 3)))
        points = np.array(rows)
        uset = UncertaintySet(centers, radius, norm)
        with np.errstate(over="ignore"):
            expected = shape_values(centers, norm, points) <= radius
            np.testing.assert_array_equal(member_batch(uset, points), expected)
            assert not np.any(member_batch(uset, points[np.isinf(points).any(axis=1)]))

    def test_squared_level_is_the_last_square_at_or_below_the_radius(self):
        rng = np.random.default_rng(14)
        radii = [0.0, 5e-324, 5e-320, 2.2e-308, 1e-160, 1.0, 2.0, 1e154, 1.4e154, 1e200, 1.7e308]
        radii += list(10.0 ** rng.uniform(-320, 308, size=500)) + list(rng.uniform(0, 3, size=500))
        for radius in radii:
            level = geometry._squared_level(float(radius))
            assert np.sqrt(level) <= radius
            assert np.sqrt(math.nextafter(level, math.inf)) > radius

    def test_dimension_mismatch(self):
        uset = UncertaintySet([(0.0, 0.0)], 1.0, Norm.L2)
        with pytest.raises(DimensionError):
            member_batch(uset, np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            member(uset, (1.0, 2.0, 3.0))


class TestUncertaintySet:
    def test_membership_examples(self):
        ball = UncertaintySet([(0, 0)], 1.0, Norm.L2)
        assert member(ball, (1, 0)) is True  # closed ball: boundary is inside
        assert member(UncertaintySet([(0, 0)], 0.5, Norm.L2), (1, 0)) is False
        two = UncertaintySet([(0, 0), (10, 0)], 1.0, Norm.L2)
        assert member(two, (9.5, 0)) is True

    def test_member_is_shape_threshold_bitwise(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            centers = rng.normal(size=(int(rng.integers(1, 6)), d))
            u = rng.normal(scale=2.0, size=d)
            norm = ALL_NORMS[rng.integers(3)]
            phi = shape_values(centers, norm, u)[0]
            # Exact tie: the point must be a member at radius == phi ...
            assert member(UncertaintySet(centers, phi, norm), u)
            # ... and a non-member one ulp below (phi > 0 so nextafter is valid).
            if phi > 0:
                below = np.nextafter(phi, -np.inf)
                assert not member(UncertaintySet(centers, below, norm), u)

    def test_membership_monotone_in_radius(self):
        rng = np.random.default_rng(5)
        centers = rng.normal(size=(4, 2))
        points = rng.normal(scale=2.0, size=(300, 2))
        for norm in ALL_NORMS:
            small = member_batch(UncertaintySet(centers, 0.7, norm), points)
            large = member_batch(UncertaintySet(centers, 1.4, norm), points)
            assert np.all(large[small])

    def test_single_center_promoted(self):
        ball = UncertaintySet((0.5, 0.5), 0.1, Norm.L2)
        assert ball.num_balls == 1
        assert ball.dimension == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            UncertaintySet([(0, 0)], -1.0, Norm.L2)
        with pytest.raises(ValueError):
            UncertaintySet([(0, 0)], float("nan"), Norm.L2)
        with pytest.raises(ValueError):
            UncertaintySet([(0, float("inf"))], 1.0, Norm.L2)
        with pytest.raises(DimensionError):
            UncertaintySet(np.zeros((0, 2)), 1.0, Norm.L2)
        with pytest.raises(TypeError):
            UncertaintySet([(0, 0)], 1.0, "l2")

    def test_centers_read_only(self):
        ball = UncertaintySet([(0, 0)], 1.0, Norm.L2)
        with pytest.raises(ValueError):
            ball.centers[0, 0] = 5.0

    def test_json_round_trip(self):
        uset = UncertaintySet([(0.25, -1.5), (3.0, 0.0)], 0.75, Norm.LINF)
        data = uset.to_dict()
        assert data["norm"] == "linf"
        back = UncertaintySet.from_dict(data)
        np.testing.assert_array_equal(back.centers, uset.centers)
        assert back.radius == uset.radius
        assert back.norm is uset.norm

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError):
            UncertaintySet.from_dict({"norm": "l2", "radius": 1.0})

    def test_from_dict_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            UncertaintySet.from_dict([[0.0, 0.0]])


class TestWorstCaseLinear:
    def test_l2_ball_closed_form(self):
        uset = UncertaintySet([(0.5, 0.5)], 0.1, Norm.L2)
        expected = 1.0 + 0.1 * np.sqrt(2.0)
        np.testing.assert_allclose(worst_case_linear(uset, (1, 1)), expected, rtol=1e-15)

    def test_l2_ball_sampled_cross_check(self):
        # The sampled max over many in-ball points never exceeds the closed
        # form and comes close to it.
        uset = UncertaintySet([(0.5, 0.5)], 0.1, Norm.L2)
        x = np.array([1.0, 1.0])
        rng = np.random.default_rng(1234)
        theta = rng.uniform(0, 2 * np.pi, size=1_000_000)
        rad = 0.1 * np.sqrt(rng.uniform(size=theta.size))
        pts = np.column_stack([0.5 + rad * np.cos(theta), 0.5 + rad * np.sin(theta)])
        sampled = float(np.max(pts @ x))
        closed = worst_case_linear(uset, x)
        assert sampled <= closed + 1e-12
        assert closed - sampled < 1e-3

    def test_degenerate_radius_zero(self):
        uset = UncertaintySet([(1, 0)], 0.0, Norm.L2)
        assert worst_case_linear(uset, (2, 3)) == 2.0

    def test_l1_union_brute_force(self):
        uset = UncertaintySet([(0, 0), (1, 0)], 1.0, Norm.L1)
        x = np.array([1.0, 0.0])
        # Boundary of the L1 ball: (+-(1-s), +-s) for s in [0, 1].
        s = np.linspace(0.0, 1.0, 20001)
        boundary = np.concatenate(
            [np.column_stack([sx * (1 - s), sy * s]) for sx in (1, -1) for sy in (1, -1)]
        )
        best = -np.inf
        for c in uset.centers:
            best = max(best, float(np.max((c + boundary) @ x)))
        assert worst_case_linear(uset, x) == 2.0
        np.testing.assert_allclose(best, 2.0, atol=1e-12)

    def test_dominates_sampled_members(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            centers = rng.normal(size=(int(rng.integers(1, 5)), d))
            norm = ALL_NORMS[rng.integers(3)]
            uset = UncertaintySet(centers, float(rng.uniform(0.1, 2.0)), norm)
            x = rng.normal(size=d)
            # Random points near the set, filtered down to actual members.
            candidates = centers[rng.integers(centers.shape[0], size=200)]
            candidates = candidates + rng.uniform(-1, 1, size=candidates.shape) * uset.radius
            inside = candidates[member_batch(uset, candidates)]
            bound = worst_case_linear(uset, x)
            for u in inside:
                assert u @ x <= bound + 1e-9

    @pytest.mark.parametrize(
        "norm, expected",
        [
            (Norm.L1, -1.5e308),
            (Norm.L2, (-2.0 + 0.5 * math.sqrt(2.0)) * 1e308),
            (Norm.LINF, -1e308),
        ],
    )
    def test_finite_answer_whose_products_overflow(self, norm, expected):
        # centers @ x is -2e308, out of range, but the worst case is not.
        uset = UncertaintySet([[1.0, 3.0]], 0.5, norm)
        value = worst_case_linear(uset, [1e308, -1e308])
        assert math.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-15)

    def test_scaling_keeps_the_unscaled_bits(self):
        # Dividing x by a power of two and multiplying back is exact when
        # nothing overflows or underflows.
        rng = np.random.default_rng(23)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            centers = rng.normal(size=(int(rng.integers(1, 6)), d))
            radius, norm = float(rng.uniform(0.0, 2.0)), ALL_NORMS[rng.integers(3)]
            uset = UncertaintySet(centers, radius, norm)
            x = rng.normal(size=d) * 10.0 ** rng.uniform(-100, 100)
            unscaled = float(
                np.max(uset.centers @ x) + uset.radius * dual_norm_eval(x, uset.norm)
            )
            assert worst_case_linear(uset, x) == unscaled

    @pytest.mark.parametrize("norm", ALL_NORMS)
    def test_worst_case_point_is_a_member_attaining_it(self, norm):
        # At 1e200, x . x overflows; the point is checked against x / max|x|.
        rng = np.random.default_rng(31)
        for size in (1e-100, 1.0, 1e200):
            for _ in range(20):
                d = int(rng.integers(1, 5))
                centers = rng.normal(size=(int(rng.integers(1, 5)), d))
                uset = UncertaintySet(centers, float(rng.uniform(0.0, 2.0)), norm)
                x = rng.normal(size=d) * size
                point = worst_case_point(uset, x)
                assert member(uset, point)
                unit = x / np.max(np.abs(x))
                assert float(point @ unit) == pytest.approx(
                    worst_case_linear(uset, unit), rel=1e-12, abs=1e-12
                )

    def test_dimension_mismatch(self):
        uset = UncertaintySet([(0, 0)], 1.0, Norm.L2)
        with pytest.raises(DimensionError):
            worst_case_linear(uset, (1, 2, 3))
        with pytest.raises(DimensionError):
            worst_case_point(uset, (1, 2, 3))
        # A non-finite x has no worst case (numpy would make it NaN).
        skew = UncertaintySet([[1, 2], [0, -1]], 0.5, Norm.L2)
        inf, nan = float("inf"), float("nan")
        for bad in ([inf, 0.0], [inf, -inf], [nan, 1.0]):
            with pytest.raises(ValueError, match="x must be finite"):
                worst_case_linear(skew, bad)
            with pytest.raises(ValueError, match="x must be finite"):
                worst_case_point(skew, bad)
