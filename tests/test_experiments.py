"""Tests for the Monte-Carlo harnesses and raster helpers."""

import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ballcover import experiments
from ballcover.calibration import (
    CalibrationSpec,
    UndersampledWarning,
    _quantile_rank,
    calibrate_radius,
    chernoff_violation_bounds,
    exact_violation_probs,
)
from ballcover.experiments import (
    ConsistencyConfig,
    CoverageReport,
    estimate_coverage,
    raster_density,
    raster_set,
    run_consistency_experiment,
    run_role_of_m_study,
    write_grid_csv,
    write_pgm,
)
from ballcover.geometry import (
    _CHUNK_BUDGET,
    DimensionError,
    Norm,
    UncertaintySet,
    _member_columns,
    member_batch,
    shape_values,
)
from ballcover.mixtures import GaussianMixture, RandomStream, bundled_mixture, true_ball_mass


def standard_normal_2d():
    return GaussianMixture([1.0], [[0.0, 0.0]], [np.eye(2)])


def quick_spec():
    return CalibrationSpec(alpha=0.9, epsilon=0.05, delta=0.05)


class TestEstimateCoverage:
    def test_huge_radius_covers_everything(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=100.0, norm=Norm.L2)
        value = estimate_coverage(
            uset, bundled_mixture("isotropic"), 2_000, RandomStream(1, 0)
        )
        assert value == 1.0

    def test_zero_radius_covers_nothing(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=0.0, norm=Norm.L2)
        value = estimate_coverage(
            uset, standard_normal_2d(), 2_000, RandomStream(1, 0)
        )
        assert value == 0.0

    def test_radial_closed_form(self):
        # P(||Z||_2 <= r) = 1 - exp(-r^2/2); this radius gives mass 0.9.
        radius = math.sqrt(2.0 * math.log(10.0))
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=radius, norm=Norm.L2)
        value = estimate_coverage(
            uset, standard_normal_2d(), 1_000_000, RandomStream(2024, 5)
        )
        assert abs(value - 0.9) <= 0.001

    def test_mean_over_trials_is_unbiased(self):
        radius = math.sqrt(2.0 * math.log(10.0))
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=radius, norm=Norm.L2)
        mix = standard_normal_2d()
        n = 10_000
        values = [
            estimate_coverage(uset, mix, n, RandomStream(77, t)) for t in range(100)
        ]
        sigma = math.sqrt(0.9 * 0.1 / n)
        assert abs(np.mean(values) - 0.9) <= 3.0 * sigma / 10.0

    def test_zero_samples_rejected(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=1.0, norm=Norm.L2)
        with pytest.raises(ValueError):
            estimate_coverage(uset, standard_normal_2d(), 0, RandomStream(1, 0))

    @pytest.mark.parametrize("n_samples", [-3, True, 2.5, "3", np.float64(4.0)])
    def test_n_samples_must_be_a_positive_integer(self, n_samples):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=1.0, norm=Norm.L2)
        with pytest.raises(ValueError, match="n_samples"):
            estimate_coverage(uset, standard_normal_2d(), n_samples, RandomStream(1, 0))

    def test_numpy_integer_n_samples_accepted(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=100.0, norm=Norm.L2)
        assert estimate_coverage(uset, standard_normal_2d(), np.int64(7), RandomStream(1, 0)) == 1.0

    def test_scratch_memory_does_not_grow_with_the_draw_count(self):
        # The draws are streamed through four reused blocks and the counts are
        # one integer per component, so ten times the draws keeps the same
        # peak.  One byte a draw would add 1.8 MB; the worker's scoring
        # blocks move the peak by up to about 0.1 MB from run to run.
        mix = bundled_mixture("peaked")
        uset = self.median_radius_set(mix, Norm.L2)
        estimate_coverage(uset, mix, 200_000, RandomStream(1, 1))
        peaks = []
        for n in (200_000, 2_000_000):
            tracemalloc.start()
            try:
                estimate_coverage(uset, mix, n, RandomStream(1, 2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 2**19

    def test_dimension_mismatch_rejected(self, monkeypatch):
        # Checked before any draw, so the error is not raised by the scorer.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the dimensions were checked")

        monkeypatch.setattr(GaussianMixture, "_blocks", no_sampling)
        uset = UncertaintySet(centers=[[0.0, 0.0, 0.0]], radius=1.0, norm=Norm.L2)
        with pytest.raises(DimensionError):
            estimate_coverage(uset, standard_normal_2d(), 10, RandomStream(1, 0))

    @staticmethod
    def median_radius_set(mix, norm):
        centers = mix.sample(RandomStream(3, 0), 10)
        radius = np.median(shape_values(centers, norm, mix.sample(RandomStream(3, 1), 1_000)))
        return UncertaintySet(centers=centers, radius=float(radius), norm=norm)

    @pytest.mark.parametrize("norm", list(Norm))
    @pytest.mark.parametrize(
        "n",
        [1, 2, 3, 4]
        + [("blocks", 1, -1), ("blocks", 1, 0), ("blocks", 1, 1), ("blocks", 2, 1)]
        + [100_003],
    )
    @pytest.mark.parametrize("mixture", ["peaked", "d20"])
    def test_split_matches_the_serial_formula(self, monkeypatch, mixture, n, norm):
        # One worker thread scores every streamed block and the estimate is
        # the serial formula.  ("blocks", j, k) is k draws more than j
        # streamed blocks hold; in 20-D a block holds a tenth of the 2-D
        # rows and each is transformed in twenty coordinate sweeps.
        mix = bundled_mixture("peaked") if mixture == "peaked" else twenty_dim_mixture()
        uset = self.median_radius_set(mix, norm)
        if isinstance(n, tuple):
            n = n[1] * (_CHUNK_BUDGET // (2 * mix.dimension)) + n[2]
        scorers = set()

        def recording_member_columns(uset, columns):
            scorers.add(threading.get_ident())
            return _member_columns(uset, columns)

        monkeypatch.setattr(experiments, "_member_columns", recording_member_columns)
        threads = threading.active_count()
        value = estimate_coverage(uset, mix, n, RandomStream(8, n))
        assert threading.active_count() == threads
        assert len(scorers) == 1 and threading.get_ident() not in scorers
        serial = np.count_nonzero(member_batch(uset, mix.sample(RandomStream(8, n), n))) / n
        assert value == serial

    def test_error_on_the_last_block_reaches_the_caller(self, monkeypatch):
        mix = bundled_mixture("peaked")
        uset = self.median_radius_set(mix, Norm.L2)
        n = 2 * (_CHUNK_BUDGET // (2 * mix.dimension)) + 1
        last_draw = mix.sample(RandomStream(8, 0), n)[-1]

        def failing_member_columns(uset, columns):
            if np.array_equal(columns[:, -1], last_draw):
                raise RuntimeError("scoring failed on the last block")
            return _member_columns(uset, columns)

        monkeypatch.setattr(experiments, "_member_columns", failing_member_columns)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="last block"):
            estimate_coverage(uset, mix, n, RandomStream(8, 0))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("m", [10_000, 20_000])
    def test_many_centers_keep_the_scratch_to_a_few_blocks(self, m):
        # In 8-D one point's pairs, m * d, are 80K or 160K floats, more than
        # one _CHUNK_BUDGET block, so the budget caps each step's centers.
        mix = GaussianMixture([1.0], [np.zeros(8)], [np.eye(8)])
        centers = mix.sample(RandomStream(3, 0), m)
        radius = np.median(shape_values(centers, Norm.L2, mix.sample(RandomStream(3, 1), 100)))
        uset = UncertaintySet(centers=centers, radius=float(radius), norm=Norm.L2)
        for n in (12, 2_000):
            draws = mix.sample(RandomStream(8, n), n)
            tracemalloc.start()
            try:
                inside = member_batch(uset, draws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 8 * _CHUNK_BUDGET
            np.testing.assert_array_equal(
                inside, shape_values(uset.centers, uset.norm, draws) <= uset.radius
            )
            value = estimate_coverage(uset, mix, n, RandomStream(8, n))
            assert value == np.count_nonzero(inside) / n


class TestConsistencyExperiment:
    def small_config(self, **overrides):
        base = dict(
            mixture=bundled_mixture("peaked"),
            num_centers=10,
            calibration=quick_spec(),
            trials=4,
            coverage_samples=2_000,
            seed=42,
        )
        base.update(overrides)
        return ConsistencyConfig(**base)

    def test_report_structure(self):
        report = run_consistency_experiment(self.small_config())
        assert report.num_trials == 4
        assert report.radii.shape == (4,)
        assert np.all(report.radii > 0.0)
        assert np.all((report.coverages >= 0.0) & (report.coverages <= 1.0))
        p5, p50, p95 = report.percentiles
        assert p5 <= p50 <= p95
        assert 0.0 <= report.fraction_within <= 1.0
        summary = report.summary()
        assert summary["trials"] == 4
        assert summary["middle90_width"] == p95 - p5

    def test_bit_identical_reruns(self):
        first = run_consistency_experiment(self.small_config())
        second = run_consistency_experiment(self.small_config())
        assert np.array_equal(first.radii, second.radii)
        assert np.array_equal(first.coverages, second.coverages)

    def test_seed_changes_the_draws(self):
        first = run_consistency_experiment(self.small_config())
        other = run_consistency_experiment(self.small_config(seed=43))
        assert not np.array_equal(first.coverages, other.coverages)

    def test_single_trial_percentiles_collapse(self):
        report = run_consistency_experiment(self.small_config(trials=1))
        p5, p50, p95 = report.percentiles
        assert p5 == p50 == p95 == report.coverages[0]

    def test_csv_round_trip(self, tmp_path):
        report = run_consistency_experiment(self.small_config())
        path = tmp_path / "coverage.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_id,radius,coverage"
        assert len(lines) == report.num_trials + 1
        for t, line in enumerate(lines[1:]):
            tid, radius, coverage = line.split(",")
            assert int(tid) == t
            assert float(radius) == report.radii[t]
            assert float(coverage) == report.coverages[t]

    def test_validation(self):
        with pytest.raises(ValueError):
            self.small_config(trials=0)
        with pytest.raises(ValueError):
            self.small_config(coverage_samples=0)
        for name in ("num_centers", "trials", "coverage_samples"):
            with pytest.raises(ValueError):
                self.small_config(**{name: True})
        with pytest.raises(TypeError):
            self.small_config(calibration=0.9)

    @pytest.mark.parametrize("seed", [True, False, 1.5, "7", None])
    def test_seed_must_be_an_integer(self, seed):
        # Checked at construction, not when the first stream is opened.
        with pytest.raises(TypeError, match="seed must be an integer"):
            self.small_config(seed=seed)

    def test_any_integer_seed_accepted(self):
        for seed in (0, -3, 2**70, np.int64(5)):
            assert self.small_config(seed=seed).seed == seed

    def test_report_rejects_ragged_arrays(self):
        with pytest.raises(ValueError):
            CoverageReport(
                alpha=0.9, epsilon=0.05, radii=[1.0, 2.0], coverages=[0.9]
            )


def serial_consistency(cfg):
    """Radii and coverages of ``cfg`` computed one step after another."""
    shape = cfg.mixture.sample(RandomStream(cfg.seed, 0), cfg.num_centers)
    radii, coverages = [], []
    for t in range(cfg.trials):
        training = cfg.mixture.sample(RandomStream(cfg.seed, 2 * t + 1), cfg.calibration.n_min)
        uset = calibrate_radius(shape, cfg.norm, training, cfg.calibration)
        draws = cfg.mixture.sample(RandomStream(cfg.seed, 2 * t + 2), cfg.coverage_samples)
        radii.append(uset.radius)
        coverages.append(np.count_nonzero(member_batch(uset, draws)) / cfg.coverage_samples)
    return radii, coverages


class TestConsistencyPipeline:
    """Calibration on the worker, overlapped with the caller's coverage sampling."""

    BLOCK = _CHUNK_BUDGET // 4  # rows of one streamed block in 2-D

    def config(self, mixture="peaked", norm=Norm.L2, coverage_samples=3 * BLOCK + 1):
        return ConsistencyConfig(
            mixture=bundled_mixture(mixture),
            num_centers=10,
            calibration=quick_spec(),
            trials=3,
            coverage_samples=coverage_samples,
            seed=11,
            norm=norm,
        )

    def assert_serial(self, cfg):
        report = run_consistency_experiment(cfg)
        radii, coverages = serial_consistency(cfg)
        assert report.radii.tolist() == radii
        assert report.coverages.tolist() == coverages

    @pytest.mark.parametrize("norm", list(Norm))
    @pytest.mark.parametrize("mixture", ["peaked", "fourmode"])
    @pytest.mark.parametrize(
        "blocks, extra", [(1, -1), (1, 0), (3, -1), (3, 0), (3, 1), (4, 1)]
    )
    def test_equals_the_serial_reference(self, mixture, norm, blocks, extra):
        self.assert_serial(self.config(mixture, norm, blocks * self.BLOCK + extra))

    def test_slow_scorer_reads_every_block_before_it_is_reused(self, monkeypatch):
        # A sampler that ran more than three blocks ahead of a slow scorer
        # would overwrite a buffer before it was scored.
        def slow_member_columns(uset, columns):
            time.sleep(0.001)
            return _member_columns(uset, columns)

        monkeypatch.setattr(experiments, "_member_columns", slow_member_columns)
        cfg = self.config(coverage_samples=6 * self.BLOCK + 1)
        self.assert_serial(cfg)
        uset = TestEstimateCoverage.median_radius_set(cfg.mixture, cfg.norm)
        n = cfg.coverage_samples
        draws = cfg.mixture.sample(RandomStream(0, 2), n)
        serial = np.count_nonzero(member_batch(uset, draws)) / n
        assert estimate_coverage(uset, cfg.mixture, n, RandomStream(0, 2)) == serial

    def test_one_worker_calibrates_and_scores_every_trial(self, monkeypatch):
        callers = {"calibrate": set(), "score": set()}

        def recording(name, fn):
            def record(*args):
                callers[name].add(threading.get_ident())
                return fn(*args)

            return record

        monkeypatch.setattr(experiments, "calibrate_radius", recording("calibrate", calibrate_radius))
        monkeypatch.setattr(experiments, "_member_columns", recording("score", _member_columns))
        threads = threading.active_count()
        run_consistency_experiment(self.config())
        assert threading.active_count() == threads
        assert len(callers["calibrate"]) == 1
        assert callers["calibrate"] == callers["score"]
        assert threading.get_ident() not in callers["score"]

    def test_calibration_error_reaches_the_caller(self, monkeypatch):
        error = RuntimeError("calibration failed on trial 2")
        calls = []

        def failing_calibrate_radius(*args):
            calls.append(None)
            if len(calls) == 3:
                raise error
            return calibrate_radius(*args)

        monkeypatch.setattr(experiments, "calibrate_radius", failing_calibrate_radius)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_consistency_experiment(self.config())
        assert info.value is error
        assert len(calls) == 3
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing_block", [0, 2, 5])
    def test_scoring_error_reaches_the_caller(self, monkeypatch, failing_block):
        # Each trial scores four blocks: block 5 is the second one of trial 1.
        error = RuntimeError("scoring failed")
        calls = []

        def failing_member_columns(uset, columns):
            calls.append(None)
            if len(calls) == failing_block + 1:
                raise error
            return _member_columns(uset, columns)

        monkeypatch.setattr(experiments, "_member_columns", failing_member_columns)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_consistency_experiment(self.config())
        assert info.value is error
        assert threading.active_count() == threads


class TestUndershootFrequency:
    def test_matches_the_exact_binomial_rate(self):
        # 1-D standard normal scores have a continuous distribution, so
        # the probability that a calibrated set undershoots the target
        # mass is a pure order-statistics quantity.
        n, alpha, epsilon, alpha_n = 400, 0.9, 0.05, 0.93
        spec = CalibrationSpec(alpha=alpha, epsilon=epsilon, delta=0.05, alpha_n=alpha_n)
        mix = GaussianMixture([1.0], [[0.0]], [[[1.0]]])
        centers = np.array([[0.0]])
        trials = 2_000
        undershoots = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndersampledWarning)
            for t in range(trials):
                training = mix.sample(RandomStream(314, t), n)
                uset = calibrate_radius(centers, Norm.L2, training, spec, strict=False)
                if true_ball_mass(mix, uset) < alpha:
                    undershoots += 1
        frequency = undershoots / trials
        exact, _ = exact_violation_probs(n, alpha, epsilon, alpha_n)
        standard_error = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(frequency - exact) <= 3.0 * standard_error
        chernoff, _ = chernoff_violation_bounds(n, alpha, epsilon, alpha_n)
        assert exact <= chernoff
        assert frequency <= chernoff


def twenty_dim_mixture():
    """A 3-component mixture in 20-D, its parameters drawn from ``default_rng([0, 20])``."""
    d = 20
    rng = np.random.default_rng([0, d])
    means = rng.normal(0.0, 1.0, (3, d))
    factors = rng.normal(0.0, 1.0, (3, d, d)) / math.sqrt(d)
    covariances = 0.1 * factors @ factors.transpose(0, 2, 1) + 0.05 * np.eye(d)
    weights = rng.dirichlet(np.ones(3))
    return GaussianMixture(weights / weights.sum(), means, covariances)


class TestCoverageLaw:
    @pytest.mark.parametrize(
        "mixture, trials, draws",
        [
            (lambda: bundled_mixture("peaked"), 200, 100_000),
            (twenty_dim_mixture, 100, 10_000),
        ],
        ids=["peaked", "d20"],
    )
    def test_hit_counts_follow_the_beta_binomial_law(self, mixture, trials, draws):
        # Given the centers, the calibrated radius is the k-th smallest of n
        # continuous scores, so the mass F(radius) it captures is
        # Beta(k, n + 1 - k) and a trial's hit count over N draws is
        # BetaBinomial(N, k, n + 1 - k), whatever the mixture and dimension.
        # The test fails a correct program with probability at most 1e-3.
        from scipy.stats import betabinom, kstest

        spec = quick_spec()
        n = spec.n_min
        k = _quantile_rank(n, spec.alpha_n)
        cfg = ConsistencyConfig(mixture(), 10, spec, trials, draws, seed=7, norm=Norm.L2)
        hits = np.rint(run_consistency_experiment(cfg).coverages * draws).astype(int)
        # One pass over the support: betabinom.cdf sums the pmf anew per call.
        cdf = np.cumsum(betabinom(draws, k, n + 1 - k).pmf(np.arange(draws + 1)))
        assert kstest(hits, lambda x: cdf[x.astype(int)]).pvalue > 1e-3


class TestRasterSet:
    def test_hand_enumerated_unit_disk(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=1.0, norm=Norm.L2)
        grid = raster_set(uset, ((-2.0, 2.0), (-2.0, 2.0)), 4)
        expected = np.array(
            [
                [False, False, False, False],
                [False, True, True, False],
                [False, True, True, False],
                [False, False, False, False],
            ]
        )
        np.testing.assert_array_equal(grid, expected)

    def test_zero_radius_hits_nothing(self):
        uset = UncertaintySet(centers=[[0.1, -0.3]], radius=0.0, norm=Norm.LINF)
        grid = raster_set(uset, ((-1.0, 1.0), (-1.0, 1.0)), 8)
        assert not grid.any()

    def test_row_zero_is_the_top_of_the_box(self):
        uset = UncertaintySet(centers=[[0.0, 1.5]], radius=0.6, norm=Norm.L2)
        grid = raster_set(uset, ((-2.0, 2.0), (-2.0, 2.0)), 4)
        assert grid[0].sum() == 2
        assert not grid[3].any()

    def test_refinement_approaches_the_area_ratio(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=1.0, norm=Norm.L2)
        bbox = ((-2.0, 2.0), (-2.0, 2.0))
        truth = math.pi / 16.0
        errors = [
            abs(raster_set(uset, bbox, res).mean() - truth) for res in (4, 8, 64)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_rejects_non_2d_sets(self):
        uset = UncertaintySet(centers=[[0.0, 0.0, 0.0]], radius=1.0, norm=Norm.L2)
        with pytest.raises(DimensionError):
            raster_set(uset, ((-1.0, 1.0), (-1.0, 1.0)), 4)

    def test_rejects_bad_boxes_and_resolutions(self):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=1.0, norm=Norm.L2)
        with pytest.raises(ValueError):
            raster_set(uset, ((1.0, -1.0), (-1.0, 1.0)), 4)
        for resolution in (0, True):
            with pytest.raises(ValueError, match="resolution"):
                raster_set(uset, ((-1.0, 1.0), (-1.0, 1.0)), resolution)
        # Non-finite bounds, and finite bounds whose side length overflows.
        for bbox in [
            ((0.0, math.inf), (0.0, 1.0)),
            ((-1.0, 1.0), (math.nan, 1.0)),
            ((-1e308, 1e308), (0.0, 1.0)),
        ]:
            with pytest.raises(ValueError, match="bbox"):
                raster_set(uset, bbox, 4)

    def test_density_raster_shape_and_peak(self):
        grid = raster_density(standard_normal_2d(), ((-3.0, 3.0), (-3.0, 3.0)), 31)
        assert grid.shape == (31, 31)
        # The odd resolution puts one cell center exactly at the mode.
        assert grid.argmax() == (31 * 31) // 2
        np.testing.assert_allclose(grid.max(), 1.0 / (2.0 * math.pi), rtol=1e-12)


def brute_force_cells(bbox, resolution):
    """Every cell center, row by row from the top of the box."""
    (xmin, xmax), (ymin, ymax) = bbox
    offsets = (np.arange(resolution) + 0.5) / resolution
    grid_x, grid_y = np.meshgrid(xmin + offsets * (xmax - xmin), ymax - offsets * (ymax - ymin))
    return np.column_stack([grid_x.ravel(), grid_y.ravel()])


def brute_force_raster(uset, bbox, resolution):
    """``member_batch`` on every cell center, row 0 at the top of the box."""
    cells = brute_force_cells(bbox, resolution)
    return member_batch(uset, cells).reshape(resolution, resolution)


ALL_NORMS = pytest.mark.parametrize("norm", list(Norm), ids=lambda n: n.value)


class TestRasterMatchesMemberBatch:
    """The windowed raster equals the all-pairs membership test exactly."""

    @ALL_NORMS
    def test_auto_fit_box_many_centers(self, norm):
        centers = bundled_mixture("fourmode").sample(RandomStream(0, 0), 1000)
        uset = UncertaintySet(centers, 0.21, norm)
        lo, hi = experiments._volume_box(uset)
        bbox = ((lo[0], hi[0]), (lo[1], hi[1]))
        grid = raster_set(uset, bbox, 64)
        assert 0 < grid.mean() < 1
        np.testing.assert_array_equal(grid, brute_force_raster(uset, bbox, 64))

    @ALL_NORMS
    @pytest.mark.parametrize(
        "bbox",
        [((-1.0, 0.5), (-0.3, 2.0)), ((20.0, 21.0), (-5.0, -4.0))],
        ids=["crops-balls", "holds-no-ball"],
    )
    def test_cropping_and_empty_boxes(self, norm, bbox):
        centers = np.random.default_rng(1).normal(size=(40, 2))
        uset = UncertaintySet(centers, 0.4, norm)
        grid = raster_set(uset, bbox, 37)
        np.testing.assert_array_equal(grid, brute_force_raster(uset, bbox, 37))

    @ALL_NORMS
    def test_radius_zero_on_a_cell_center(self, norm):
        # (0.25, 0.25) and (-0.75, 0.75) are cell centers of the 4x4 grid.
        uset = UncertaintySet([[0.25, 0.25], [-0.75, 0.75], [0.1, -0.3]], 0.0, norm)
        bbox = ((-1.0, 1.0), (-1.0, 1.0))
        grid = raster_set(uset, bbox, 4)
        assert grid.sum() == 2
        np.testing.assert_array_equal(grid, brute_force_raster(uset, bbox, 4))

    @ALL_NORMS
    @pytest.mark.parametrize("radius", [0.1, 2.0])
    def test_resolution_one(self, norm, radius):
        uset = UncertaintySet([[0.3, -0.2], [5.0, 5.0]], radius, norm)
        bbox = ((-1.0, 1.0), (-1.0, 1.0))
        np.testing.assert_array_equal(
            raster_set(uset, bbox, 1), brute_force_raster(uset, bbox, 1)
        )

    @ALL_NORMS
    def test_radius_equal_to_a_cell_distance_is_inside(self, norm):
        uset = UncertaintySet([[1.5, 1.5]], 1.0, norm)
        bbox = ((0.0, 4.0), (0.0, 4.0))
        grid = raster_set(uset, bbox, 4)
        # Cell centers sit at 0.5, 1.5, 2.5, 3.5; row 0 is y = 3.5, so the
        # cell (2.5, 1.5) is row 2, column 2, exactly 1 from the center.
        assert grid[2, 2]
        np.testing.assert_array_equal(grid, brute_force_raster(uset, bbox, 4))

    @ALL_NORMS
    def test_rounding_in_center_plus_radius_keeps_the_cell(self, norm):
        # The radius is the computed distance to the cell (0.03125, 0.96875),
        # but center + radius rounds to just below 0.03125: only the one-cell
        # margin of the window keeps that cell in the test.
        cx = -0.018610439872138774
        uset = UncertaintySet([[cx, 0.96875]], 0.03125 - cx, norm)
        assert cx + uset.radius < 0.03125
        bbox = ((0.0, 1.0), (0.0, 1.0))
        grid = raster_set(uset, bbox, 16)
        assert grid[0, 0]
        np.testing.assert_array_equal(grid, brute_force_raster(uset, bbox, 16))

    @ALL_NORMS
    def test_window_covering_the_grid_stays_under_the_chunk_budget(self, norm):
        # Every window is the whole 1024 x 1024 grid, cut into row bands.
        uset = UncertaintySet([[0.0, 0.0], [0.3, -0.4], [-2.0, 2.0]], 1.5, norm)
        bbox = ((-1.0, 1.0), (-1.0, 1.0))
        tracemalloc.start()
        try:
            grid = raster_set(uset, bbox, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - grid.nbytes <= 2 * 8 * _CHUNK_BUDGET
        np.testing.assert_array_equal(grid, brute_force_raster(uset, bbox, 1024))

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 30),
        resolution=st.integers(1, 40),
        norm=st.sampled_from(list(Norm)),
        offset=st.floats(-1e8, 1e8),
    )
    def test_random_sets_and_boxes(self, seed, m, resolution, norm, offset):
        # The third radius puts a cell center on the first ball's boundary,
        # where ``c +- r`` may round to just short of the cell and only the
        # one-cell margin of the windows keeps it tested.  The offset moves
        # the whole case up to 1e8 from the origin, where that rounding
        # hardly ever happens; the balls across 0 make it happen.
        rng = np.random.default_rng(seed)
        centers = offset + rng.normal(scale=2.0, size=(m, 2))
        corner = offset + rng.uniform(-4.0, 2.0, size=2)
        side = rng.uniform(0.01, 6.0, size=2)
        bbox = ((corner[0], corner[0] + side[0]), (corner[1], corner[1] + side[1]))
        cell = brute_force_cells(bbox, resolution)[rng.integers(resolution**2)]
        boundary = shape_values(centers[:1], norm, cell)[0]
        radius = float(rng.choice([0.0, rng.exponential(), boundary]))
        cases = [(UncertaintySet(centers, radius, norm), bbox)]
        if resolution > 1:
            cases += [ball_across_zero(rng, norm, resolution) for _ in range(4)]
        for uset, bbox in cases:
            np.testing.assert_array_equal(
                raster_set(uset, bbox, resolution), brute_force_raster(uset, bbox, resolution)
            )


def ball_across_zero(rng, norm, resolution):
    """One ball and a box with a cell on the ball's boundary, on the other side of 0.

    Along one axis the cell lies v cell widths from 0 and the center u widths
    on the other side, with u, v < 1/2 < u + v, so the ball also holds the
    cell next to it on the center's side.  Far from 0 a center and a nearby
    cell are within a factor of 2 of each other and ``c + (x - c)`` lands
    back on the cell; here ``c +- r`` rounds short of it in about one draw
    in eight, and only the one-cell margin of the ball's two-cell window
    keeps it tested.  A center outside the box would not show that (every
    window holds the box's edge cell), nor would more balls (a wider window
    of another ball sets the common width).
    """
    side = rng.uniform(0.01, 6.0, size=2)
    axis, flip = rng.integers(2), rng.choice([-1.0, 1.0])
    width = side[axis] / resolution
    v = rng.uniform(0.0, 0.5)
    u = rng.uniform(0.5 - v, 0.5)
    # Cell j of the axis lands near flip * v widths, with a neighbour on the
    # center's side.
    j = rng.integers(1, resolution) - (flip < 0)
    start = (flip * v - j - 0.5) * width
    bbox = [(-1.0, -1.0 + side[0]), (-1.0, -1.0 + side[1])]
    bbox[axis] = (start, start + side[axis])
    cells = brute_force_cells(bbox, resolution)
    gap = np.abs(cells[:, axis] - flip * v * width)
    cell = cells[gap == gap.min()][rng.integers(resolution)]
    center = cell.copy()
    center[axis] = -flip * u * width
    radius = float(shape_values(center[np.newaxis], norm, cell)[0])
    return UncertaintySet([center], radius, norm), tuple(bbox)


class TestGridFiles:
    def test_boolean_pgm_bytes(self, tmp_path):
        uset = UncertaintySet(centers=[[0.0, 0.0]], radius=1.0, norm=Norm.L2)
        grid = raster_set(uset, ((-2.0, 2.0), (-2.0, 2.0)), 4)
        path = tmp_path / "set.pgm"
        write_pgm(path, grid)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 4\n255\n")
        pixels = blob[len(b"P5\n4 4\n255\n") :]
        assert len(pixels) == 16
        expected = np.where(grid, 255, 0).astype(np.uint8).tobytes()
        assert pixels == expected

    def test_float_pgm_linear_scaling(self, tmp_path):
        grid = np.array([[0.0, 0.5], [0.75, 1.0]])
        path = tmp_path / "density.pgm"
        write_pgm(path, grid)
        pixels = path.read_bytes()[len(b"P5\n2 2\n255\n") :]
        assert pixels == bytes([0, 128, 191, 255])

    def test_constant_grid_maps_to_black(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((2, 3), 7.25))
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes(6)

    def test_grid_csv(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_grid_csv(path, np.array([[True, False], [False, True]]))
        assert path.read_text() == "1,0\n0,1\n"
        write_grid_csv(path, np.array([[0.5, 1.0]]))
        assert path.read_text() == "0.5,1.0\n"


class TestRoleOfMStudy:
    def test_structure_and_reproducibility(self):
        mix = bundled_mixture("fourmode")
        entries = run_role_of_m_study(
            mix,
            quick_spec(),
            [1, 4],
            seed=7,
            volume_samples=2_000,
            raster_resolution=16,
        )
        assert [e["m"] for e in entries] == [1, 4]
        for entry in entries:
            assert entry["radius"] > 0.0
            assert entry["volume"] >= 0.0
            assert entry["raster"].shape == (16, 16)
            assert entry["set"].num_balls == entry["m"]
            (x0, x1), (y0, y1) = entry["bbox"]
            assert x1 > x0 and y1 > y0
        again = run_role_of_m_study(
            mix,
            quick_spec(),
            [1, 4],
            seed=7,
            volume_samples=2_000,
            raster_resolution=16,
        )
        for left, right in zip(entries, again):
            assert left["radius"] == right["radius"]
            assert left["volume"] == right["volume"]
            np.testing.assert_array_equal(left["raster"], right["raster"])

    def test_more_balls_shrink_the_radius_on_separated_modes(self):
        entries = run_role_of_m_study(
            bundled_mixture("fourmode"),
            quick_spec(),
            [1, 100],
            seed=11,
            volume_samples=1_000,
            raster_resolution=0,
        )
        assert entries[0]["raster"] is None
        assert entries[0]["radius"] > entries[1]["radius"]

    @pytest.mark.parametrize("volume_samples", [0, True, 2.5])
    def test_volume_samples_must_be_a_positive_integer(self, volume_samples):
        with pytest.raises(ValueError, match="volume_samples"):
            run_role_of_m_study(
                bundled_mixture("fourmode"),
                quick_spec(),
                [1],
                volume_samples=volume_samples,
            )

    @pytest.mark.parametrize(
        "m_values, resolution, name",
        [([1000, 2000], bad, "raster_resolution") for bad in (-1, True, 2.5, "64")]
        + [([1000, bad], 64, "m_values") for bad in (0, 2.5, True, "3", None)],
    )
    def test_counts_are_checked_before_any_sampling(
        self, monkeypatch, m_values, resolution, name
    ):
        mix = bundled_mixture("fourmode")

        def no_sampling(*args, **kwargs):
            raise AssertionError(f"sampled before {name} was checked")

        monkeypatch.setattr(GaussianMixture, "sample", no_sampling)
        with pytest.raises(ValueError, match=name):
            run_role_of_m_study(mix, quick_spec(), m_values, raster_resolution=resolution)
