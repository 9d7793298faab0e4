"""Tests for Gaussian mixtures, random streams, and the mass oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from ballcover.geometry import (
    _CHUNK_BUDGET,
    DimensionError,
    Norm,
    UncertaintySet,
    member_batch,
)
from ballcover.mixtures import (
    GaussianMixture,
    RandomStream,
    bundled_mixture,
    true_ball_mass,
)


def std_normal(d):
    return GaussianMixture([1.0], [np.zeros(d)], [np.eye(d)])


def correlated(d, k=3, seed=0):
    """A k-component mixture with dense, well-conditioned covariances."""
    rng = np.random.default_rng(seed)
    covs = []
    for _ in range(k):
        a = rng.normal(size=(d, d))
        covs.append(a @ a.T + 0.5 * np.eye(d))
    weights = rng.random(k) + 0.1
    return GaussianMixture(weights / weights.sum(), 3.0 * rng.normal(size=(k, d)), covs)


def gather_sample(mix, stream, n):
    """Sampling by component counts, as an (n, d, d) gather: the reference formula.

    One multinomial gives the counts, component k owns the next counts[k]
    rows, and one (n, d) call gives every row's normals.
    """
    rng = stream.generator()
    comp = np.repeat(np.arange(mix.num_components), rng.multinomial(n, mix.weights))
    z = rng.standard_normal((n, mix.dimension))
    return mix.means[comp] + np.einsum("nij,nj->ni", mix._factors[comp], z)


class TestConstruction:
    def test_zero_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMixture([1.0], [(5.0, 5.0)], [np.zeros((2, 2))])

    def test_indefinite_covariance_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMixture([1.0], [(0.0, 0.0)], [cov])

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMixture([1.0], [(0.0, 0.0)], [cov])

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianMixture([0.5, 0.4], [(0, 0), (1, 1)], [np.eye(2)] * 2)
        with pytest.raises(ValueError, match="positive"):
            GaussianMixture([1.5, -0.5], [(0, 0), (1, 1)], [np.eye(2)] * 2)

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            GaussianMixture([0.5, 0.5], [(0, 0)], [np.eye(2)] * 2)

    def test_weights_renormalized_exactly(self):
        mix = GaussianMixture(
            [0.5 + 2e-10, 0.5], [(0, 0), (1, 1)], [np.eye(2)] * 2
        )
        assert abs(mix.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(ValueError, match="means must be finite"):
            GaussianMixture([0.5, 0.5], [(0.0, 0.0), (bad, 1.0)], [np.eye(2)] * 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_covariance_rejected(self, bad):
        with pytest.raises(ValueError, match="covariances must be finite"):
            GaussianMixture([1.0], [(0.0, 0.0)], [[[bad, 0.0], [0.0, 1.0]]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="weights must be finite"):
            GaussianMixture([bad, 0.5], [(0.0, 0.0), (1.0, 1.0)], [np.eye(2)] * 2)

    def test_immutable_arrays(self):
        mix = std_normal(2)
        with pytest.raises(ValueError):
            mix.means[0, 0] = 1.0


class TestDensity:
    def test_standard_normal_1d(self):
        np.testing.assert_allclose(
            std_normal(1).density([0.0]), 1.0 / math.sqrt(2 * math.pi), rtol=1e-14
        )

    def test_standard_normal_2d(self):
        np.testing.assert_allclose(
            std_normal(2).density([0.0, 0.0]), 1.0 / (2 * math.pi), rtol=1e-14
        )

    def test_two_component_symmetry(self):
        mix = GaussianMixture([0.5, 0.5], [(0.0,), (4.0,)], [np.eye(1), np.eye(1)])
        phi2 = math.exp(-2.0) / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(mix.density([2.0]), phi2, rtol=1e-13)
        np.testing.assert_allclose(mix.density([2.0]), 0.053991, atol=5e-7)

    def test_batch_matches_scalar(self):
        mix = bundled_mixture("peaked")
        pts = np.random.default_rng(3).normal(size=(50, 2))
        batch = mix.density(pts)
        np.testing.assert_allclose(batch, [mix.density(p) for p in pts], rtol=1e-13)

    def test_nonnegative_and_log_finite_on_grid(self):
        mix = bundled_mixture("fourmode")
        xs = np.linspace(-8, 8, 41)
        grid = np.array([(x, y) for x in xs for y in xs])
        values = mix.density(grid)
        assert np.all(values >= 0)
        assert np.all(np.isfinite(np.log(values)))

    def test_correlated_covariances_match_the_closed_form(self):
        # Non-diagonal Cholesky factors: the bundled mixtures are all diagonal.
        covs = [
            np.array([[2.0, 0.9, -0.4], [0.9, 1.0, 0.3], [-0.4, 0.3, 0.8]]),
            np.array([[0.5, -0.2, 0.1], [-0.2, 1.5, 0.7], [0.1, 0.7, 1.2]]),
        ]
        means = [np.array([0.5, -1.0, 0.0]), np.array([-1.0, 2.0, 1.0])]
        weights = [0.3, 0.7]
        mix = GaussianMixture(weights, means, covs)
        pts = np.random.default_rng(8).normal(scale=1.5, size=(200, 3))
        expected = np.zeros(len(pts))
        for w, mean, cov in zip(weights, means, covs):
            diff = pts - mean
            quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(cov), diff)
            expected += w * np.exp(-0.5 * quad) / math.sqrt(
                (2 * math.pi) ** 3 * np.linalg.det(cov)
            )
        np.testing.assert_allclose(mix.density(pts), expected, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            std_normal(2).density([1.0, 2.0, 3.0])


class TestSampling:
    def test_moments_standard_normal(self):
        pts = std_normal(2).sample(RandomStream(123, 0), 100_000)
        assert np.all(np.abs(pts.mean(axis=0)) < 0.02)
        cov = np.cov(pts.T)
        assert np.all(np.abs(cov - np.eye(2)) < 0.03)

    def test_component_balance(self):
        mix = GaussianMixture(
            [0.5, 0.5], [(-10.0, 0.0), (10.0, 0.0)], [np.eye(2)] * 2
        )
        pts = mix.sample(RandomStream(7, 3), 10_000)
        frac = float(np.mean(pts[:, 0] > 0))
        assert 0.48 <= frac <= 0.52

    def test_zero_draws(self):
        assert std_normal(2).sample(RandomStream(1), 0).shape == (0, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            std_normal(2).sample(RandomStream(1), -1)

    @pytest.mark.parametrize("n", [True, 2.0, np.float64(3.0), "4"])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            std_normal(2).sample(RandomStream(1), n)

    def test_numpy_integer_count_accepted(self):
        assert std_normal(2).sample(RandomStream(1), np.int64(3)).shape == (3, 2)

    @pytest.mark.parametrize(
        "mix",
        [bundled_mixture(name) for name in ("isotropic", "peaked", "fourmode")]
        + [correlated(d, seed=d) for d in (1, 3, 8, 9, 20)],
        ids=["isotropic", "peaked", "fourmode", "d1", "d3", "d8", "d9", "d20"],
    )
    @pytest.mark.parametrize("n", [0, 1, 2, 4918, 100_003])
    def test_matches_the_gather_formula_bit_for_bit(self, mix, n):
        for seed in range(4):
            stream = RandomStream(seed, 11)
            np.testing.assert_array_equal(
                mix.sample(stream, n), gather_sample(mix, stream, n)
            )

    @pytest.mark.parametrize(
        "mix",
        [bundled_mixture(name) for name in ("isotropic", "peaked", "fourmode")]
        + [correlated(5, seed=5)],
        ids=["isotropic", "peaked", "fourmode", "d5"],
    )
    def test_sample_equals_the_streamed_blocks(self, mix):
        # The streamed blocks reuse two buffers, so each is copied as it comes.
        block = _CHUNK_BUDGET // (2 * mix.dimension)
        for n in (1, block - 1, block, block + 1, 100_003):
            stream = RandomStream(2, n)
            blocks = [points.copy() for points in mix._blocks(stream, n)]
            assert max(len(points) for points in blocks) <= block
            np.testing.assert_array_equal(mix.sample(stream, n), np.concatenate(blocks))

    def test_blocks_alternate_between_two_buffers(self):
        # Block i stays valid while block i+1 is drawn and is overwritten by
        # block i+2, so a caller can score one block while the next is drawn.
        mix = bundled_mixture("peaked")
        block = _CHUNK_BUDGET // (2 * mix.dimension)
        blocks, copies = [], []
        for points in mix._blocks(RandomStream(2, 0), 4 * block + 1):
            if blocks:
                assert not np.shares_memory(points, blocks[-1])
                np.testing.assert_array_equal(blocks[-1], copies[-1])
            if len(blocks) >= 2:
                assert np.shares_memory(points, blocks[-2])
            blocks.append(points)
            copies.append(points.copy())
        assert len(blocks) == 5

    def test_component_without_draws(self):
        # The middle component gets no rows, so its slice of every block is empty.
        mix = GaussianMixture(
            [0.49, 0.02, 0.49], [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)],
            [np.eye(2), [[2.0, 0.9], [0.9, 1.0]], 0.3 * np.eye(2)],
        )
        stream = RandomStream(3, 0)
        counts = stream.generator().multinomial(4, mix.weights)
        assert counts[1] == 0 and counts[0] > 0 and counts[2] > 0
        np.testing.assert_array_equal(mix.sample(stream, 4), gather_sample(mix, stream, 4))

    @pytest.mark.parametrize(
        "mix",
        [
            bundled_mixture("fourmode"),
            GaussianMixture(
                [0.2, 0.5, 0.3], 100.0 * np.eye(3), [np.eye(3), 2.0 * np.eye(3), 0.5 * np.eye(3)]
            ),
        ],
        ids=["fourmode", "d3"],
    )
    def test_rows_are_grouped_by_component(self, mix):
        # Component k owns rows edges[k]:edges[k+1], across block boundaries:
        # with modes this far apart, each row is nearest its own mean.
        n = 3 * (_CHUNK_BUDGET // (2 * mix.dimension)) + 5
        stream = RandomStream(6, 1)
        counts = stream.generator().multinomial(n, mix.weights)
        points = mix.sample(stream, n)
        dist = np.linalg.norm(points[:, np.newaxis, :] - mix.means[np.newaxis], axis=2)
        np.testing.assert_array_equal(
            dist.argmin(axis=1), np.repeat(np.arange(mix.num_components), counts)
        )

    def test_scratch_memory_has_no_factor_gather(self):
        # An (n, d, d) gather of the factors alone would be 64 MB here.
        mix = correlated(20, seed=2)
        tracemalloc.start()
        try:
            mix.sample(RandomStream(4, 0), 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize(
        "mix",
        [bundled_mixture("peaked"), bundled_mixture("fourmode"), correlated(3, seed=3)],
        ids=["peaked", "fourmode", "d3"],
    )
    def test_scratch_memory_is_one_block(self, mix):
        # Beyond its output the sampler keeps one block's transform (half a
        # _CHUNK_BUDGET of floats) and einsum's buffer, whatever n is; one
        # byte a draw would already pass the bound at 2M draws.
        for n in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                out = mix.sample(RandomStream(4, 0), n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 8 * _CHUNK_BUDGET + 64 * 1024

    def test_density_integrates_to_one(self):
        # Importance sampling against a wide proposal.
        mix = bundled_mixture("peaked")
        proposal = GaussianMixture([1.0], [(0.0, 0.0)], [9.0 * np.eye(2)])
        pts = proposal.sample(RandomStream(55, 0), 200_000)
        ratios = mix.density(pts) / proposal.density(pts)
        estimate = float(ratios.mean())
        se = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
        assert abs(estimate - 1.0) <= 4 * se


class TestRandomStream:
    def test_reproducible(self):
        mix = bundled_mixture("isotropic")
        a = mix.sample(RandomStream(99, 5), 1000)
        b = mix.sample(RandomStream(99, 5), 1000)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        mix = bundled_mixture("isotropic")
        a = mix.sample(RandomStream(99, 5), 1000)
        b = mix.sample(RandomStream(99, 6), 1000)
        c = mix.sample(RandomStream(98, 5), 1000)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_ids_wrap(self):
        s = RandomStream(-1, 0)
        assert s.seed == 2**64 - 1

    def test_type_validation(self):
        with pytest.raises(TypeError):
            RandomStream(1.5, 0)


class TestTrueBallMass:
    def test_radial_closed_form(self):
        r = math.sqrt(2 * math.log(10.0))
        mass = true_ball_mass(std_normal(2), UncertaintySet([(0, 0)], r, Norm.L2))
        assert abs(mass - 0.9) <= 1e-4

    def test_zero_radius(self):
        assert true_ball_mass(std_normal(2), UncertaintySet([(0, 0)], 0.0, Norm.L2)) == 0.0

    def test_far_ball(self):
        uset = UncertaintySet([(1e6, 1e6)], 1.0, Norm.L2)
        assert true_ball_mass(std_normal(2), uset) < 1e-10

    def test_one_dimensional_exact(self):
        uset = UncertaintySet([(0.5,)], 1.0, Norm.L2)
        expected = float(ndtr(1.5) - ndtr(-0.5))
        np.testing.assert_allclose(true_ball_mass(std_normal(1), uset), expected, rtol=1e-12)

    def test_one_dimensional_overlapping_union(self):
        uset = UncertaintySet([(0.0,), (0.5,), (4.0,)], 0.6, Norm.L1)
        # Merged intervals: [-0.6, 1.1] and [3.4, 4.6].
        expected = float((ndtr(1.1) - ndtr(-0.6)) + (ndtr(4.6) - ndtr(3.4)))
        np.testing.assert_allclose(true_ball_mass(std_normal(1), uset), expected, rtol=1e-12)

    def test_monte_carlo_agreement(self):
        r = math.sqrt(2 * math.log(10.0))
        uset = UncertaintySet([(0, 0)], r, Norm.L2)
        n = 1_000_000
        pts = std_normal(2).sample(RandomStream(2024, 0), n)
        mc = float(member_batch(uset, pts).mean())
        assert abs(mc - true_ball_mass(std_normal(2), uset)) <= 4 / math.sqrt(n)

    def test_union_cross_check_all_norms(self):
        mix = bundled_mixture("peaked")
        pts = mix.sample(RandomStream(31, 0), 1_000_000)
        for norm, radius in [(Norm.L1, 1.2), (Norm.L2, 1.0), (Norm.LINF, 0.8)]:
            uset = UncertaintySet([(0.0, 0.0), (1.5, 1.5), (0.5, 1.0)], radius, norm)
            quad = true_ball_mass(mix, uset)
            mc = float(member_batch(uset, pts).mean())
            assert abs(quad - mc) <= 4 / math.sqrt(pts.shape[0]) + 1e-4

    def test_high_dimension_rejected(self):
        uset = UncertaintySet([np.zeros(4)], 1.0, Norm.L2)
        with pytest.raises(ValueError, match="Monte-Carlo"):
            true_ball_mass(std_normal(4), uset)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            true_ball_mass(std_normal(2), UncertaintySet([(0,)], 1.0, Norm.L2))


class TestBundledMixtures:
    def test_names_and_aliases(self):
        for name, alias in [("isotropic", "a"), ("peaked", "b"), ("fourmode", "c")]:
            mix = bundled_mixture(name)
            np.testing.assert_array_equal(mix.means, bundled_mixture(alias).means)
            assert mix.dimension == 2

    def test_fourmode_separation(self):
        mix = bundled_mixture("fourmode")
        assert mix.num_components == 4
        dists = [
            float(np.linalg.norm(a - b))
            for i, a in enumerate(mix.means)
            for b in mix.means[i + 1 :]
        ]
        # Modes are many standard deviations apart.
        assert min(dists) > 8 * math.sqrt(np.max(mix.covariances))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            bundled_mixture("ring")
