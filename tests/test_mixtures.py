"""Tests for Gaussian mixtures, random streams, and the mass oracle."""

import functools
import hashlib
import math
import operator
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
    """Sampling by component counts, as a per-row gather: the reference formula.

    One multinomial gives the counts, component k owns the next counts[k]
    rows, and one (d, rows) call per block of ``_CHUNK_BUDGET // (2 d)``
    rows gives those rows' normals z, coordinate 0 of every row first.
    Coordinate i of a row is ``mean[i] + (F[i,0]*z_0 + ... + F[i,i]*z_i)``,
    with F the row's Cholesky factor and the products added left to right.
    """
    rng = stream.generator()
    comp = np.repeat(np.arange(mix.num_components), rng.multinomial(n, mix.weights))
    d = mix.dimension
    block = max(1, _CHUNK_BUDGET // (2 * d))
    z = np.empty((n, d))
    for start in range(0, n, block):
        rows = min(block, n - start)
        z[start : start + rows] = rng.standard_normal((d, rows)).T
    out = np.empty_like(z)
    for i in range(mix.dimension):
        terms = [mix._factors[:, i, j][comp] * z[:, j] for j in range(i + 1)]
        out[:, i] = mix.means[comp, i] + functools.reduce(operator.add, terms)
    return out


# SHA-256 of ``sample(RandomStream(0, 0), n).tobytes()`` for the bundled
# 2-D mixtures, recorded when the streams became SFC64 and the blocks
# coordinate-major.
SAMPLE_DIGESTS = {
    ("isotropic", 1): "66a51a1b6aa957aef63bd2ecf35b21cddcd1d74d869c749ef1295b7ffe533f4d",
    ("isotropic", 16_383): "b7019cfd73992f6672973499f821d21952ddc1933de7c850dbe4f84d193daa65",
    ("isotropic", 16_384): "f7456866e6411deec255ea9d17fc7f7ed5ee69e7146310dae349d3917bd159ba",
    ("isotropic", 100_003): "84480d4ae6d9996639816c388f5de8fd31a53079bb936b0c9a8357985392cbbc",
    ("peaked", 1): "d52b1134702fb1cb9ce1a47e9b2d35648c742417459a5e15a3ec3ee806f3ac3e",
    ("peaked", 16_383): "90b36d803f3e0cac0858df14af038c77c2fae51bb1b80758335a0a65ea86645d",
    ("peaked", 16_384): "4bad6547e6557254e3e693ffde8fb69b1c8f39bf9d89b54852e09ca1152b4453",
    ("peaked", 100_003): "ad4ec09c34d10f50f01846141e81b53d51d5b99e71a5b2e4a5e768864b759310",
    ("fourmode", 1): "0cb36728c2a7ecb3b6779a7dd23bbc9f4db508463af264cd3ee6c54e5a2aabda",
    ("fourmode", 16_383): "e2d7304f8561bc1ff49ae5f0fabf68680ecb724fb071554fea95b8f04279be3d",
    ("fourmode", 16_384): "107be6c8aa94bf1ec33d40bb45a1dadec438965a3e0d4360246c81157d319814",
    ("fourmode", 100_003): "25a11b4bef783812c9ac8f13410b1b97f33e00d951be2234f7d176cdacbf3549",
}


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

    @pytest.mark.parametrize("name, n", sorted(SAMPLE_DIGESTS))
    def test_two_dimensional_draws_are_pinned(self, name, n):
        points = bundled_mixture(name).sample(RandomStream(0, 0), n)
        assert hashlib.sha256(points.tobytes()).hexdigest() == SAMPLE_DIGESTS[name, n]

    @pytest.mark.parametrize(
        "mix",
        [bundled_mixture(name) for name in ("isotropic", "peaked", "fourmode")]
        + [correlated(5, seed=5)],
        ids=["isotropic", "peaked", "fourmode", "d5"],
    )
    def test_sample_equals_the_streamed_blocks(self, mix):
        # The streamed blocks are C-ordered (d, rows) arrays, each its own.
        block = _CHUNK_BUDGET // (2 * mix.dimension)
        for n in (1, block - 1, block, block + 1, 100_003):
            stream = RandomStream(2, n)
            blocks = list(mix._blocks(stream, n))
            assert all(points.shape[0] == mix.dimension for points in blocks)
            assert all(points.flags.c_contiguous for points in blocks)
            assert max(points.shape[1] for points in blocks) <= block
            np.testing.assert_array_equal(
                mix.sample(stream, n), np.concatenate(blocks, axis=1).T
            )

    def test_blocks_are_never_written_again(self):
        # Each block is the caller's: no block shares memory with an earlier
        # one, and every block keeps its values while all later ones are drawn.
        mix = bundled_mixture("peaked")
        block = _CHUNK_BUDGET // (2 * mix.dimension)
        blocks, copies = [], []
        for points in mix._blocks(RandomStream(2, 0), 8 * block + 1):
            assert not any(np.shares_memory(points, earlier) for earlier in blocks)
            blocks.append(points)
            copies.append(points.copy())
        assert len(blocks) == 9
        for points, copy in zip(blocks, copies):
            np.testing.assert_array_equal(points, copy)

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
        # Beyond its output the sampler keeps the block being drawn, the block
        # the caller still holds and two scratch arrays of one block each,
        # four blocks of at most half a _CHUNK_BUDGET of floats, whatever n
        # is.  A 2-D ufunc call on a last block of fewer than 8192 floats may
        # also take numpy's own 8192-float buffer for each of its three
        # operands.  One byte a draw would already pass the bound at 2M draws.
        for n in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                out = mix.sample(RandomStream(4, 0), n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= out.nbytes + 8 * 2 * _CHUNK_BUDGET + 3 * 8 * 8192 + 64 * 1024

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

    def test_seed_and_stream_id_do_not_share_words(self):
        # An entropy list [seed, stream_id] is split into 32-bit words, so
        # these two identities would give the same words, state and draws.
        for gen in (RandomStream(2**32 + 5, 7), RandomStream(5, 7 * 2**32 + 1)):
            assert isinstance(gen.generator().bit_generator, np.random.SFC64)
        a = RandomStream(2**32 + 5, 7).generator().standard_normal(8)
        b = RandomStream(5, 7 * 2**32 + 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_negative_ids_wrap(self):
        s = RandomStream(-1, 0)
        assert s.seed == 2**64 - 1

    def test_type_validation(self):
        with pytest.raises(TypeError):
            RandomStream(1.5, 0)

    @pytest.mark.parametrize("seed, stream_id", [(True, 0), (False, 0), (1, True), (1, False)])
    def test_bools_rejected(self, seed, stream_id):
        # bool is an int subclass, but True is no seed.
        with pytest.raises(TypeError, match="must be an integer, got bool"):
            RandomStream(seed, stream_id)

    def test_numpy_integers_accepted(self):
        assert RandomStream(np.int64(3), np.uint8(4)) == RandomStream(3, 4)


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
