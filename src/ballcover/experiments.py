"""Monte-Carlo studies over calibrated uncertainty sets.

Two harnesses: a consistency experiment that repeatedly recalibrates the
ball radius on fresh training samples and measures the probability mass
actually covered, and a study of how the number of balls changes the
calibrated radius and volume.  Rasterization helpers turn 2-D sets and
densities into grids, PGM images, and CSV files for downstream figure
tooling.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calibration import CalibrationSpec, calibrate_radius
from .geometry import (
    _CHUNK_BUDGET,
    DimensionError,
    Norm,
    UncertaintySet,
    _member_columns,
    _pair_rule,
    member_batch,
)
from .mixtures import GaussianMixture, RandomStream

__all__ = [
    "ConsistencyConfig",
    "CoverageReport",
    "estimate_coverage",
    "run_consistency_experiment",
    "run_role_of_m_study",
    "raster_set",
    "raster_density",
    "write_pgm",
    "write_grid_csv",
]


# Scoring tasks _streamed_coverage keeps pending.  Each holds its own block,
# so a stream keeps at most four blocks (1 MB in 2-D) alive.
_BLOCKS_IN_FLIGHT = 4


def _check_count(name: str, value, *, zero_ok: bool = False) -> None:
    """Reject a count that is a ``bool``, not an integer, or below 1 (0 if ``zero_ok``)."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer)) and value >= (0 if zero_ok else 1)
    ):
        kind = "non-negative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def estimate_coverage(
    uset: UncertaintySet, mix: GaussianMixture, n_samples: int, stream: RandomStream
) -> float:
    """Fraction of ``n_samples`` i.i.d. draws from ``mix`` inside the set.

    The calling thread draws the coordinate-major blocks of
    :meth:`GaussianMixture._blocks <ballcover.mixtures.GaussianMixture._blocks>`
    one at a time and scores each block where it lies with the kernel of
    :func:`~ballcover.geometry.member_batch`, so the memory does not grow
    with ``n_samples`` and no thread is started.  The draws equal
    ``mix.sample(stream, n_samples)`` and the hit counts are integers, so
    the estimate is the serial one.
    """
    _check_count("n_samples", n_samples)
    if mix.dimension != uset.dimension:
        raise DimensionError(
            f"mixture dimension {mix.dimension} does not match set dimension "
            f"{uset.dimension}"
        )
    hits = sum(
        int(np.count_nonzero(_member_columns(uset, block)))
        for block in mix._blocks(stream, n_samples)
    )
    return float(hits) / float(n_samples)


def _score(uset, block: np.ndarray) -> int:
    """Number of columns of the (d, rows) ``block`` inside the set the future ``uset`` holds."""
    return int(np.count_nonzero(_member_columns(uset.result(), block)))


def _streamed_coverage(
    worker, uset, mix: GaussianMixture, n_samples: int, stream: RandomStream
) -> float:
    """Coverage of the ``n_samples`` draws of ``stream``, scored on ``worker``.

    ``uset`` is a future of the set.  ``worker`` has one thread, so it runs
    its tasks in the order they were submitted: a task that resolves
    ``uset``, submitted before this call, is done before the first block is
    scored.  The calling thread draws the blocks of
    :meth:`GaussianMixture._blocks <ballcover.mixtures.GaussianMixture._blocks>`
    and submits one scoring task per block, which scores the coordinate-major
    block where it lies, without a transposed copy.  Each block is its own
    array, so the sampler never overwrites a block being scored; to bound
    the memory, at most ``_BLOCKS_IN_FLIGHT`` (four) tasks are pending, the
    count of block i-3 being collected before block i+1 is drawn.  An error
    in ``uset`` or in a scoring task is raised here.
    """
    hits = 0
    pending = deque()
    for block in mix._blocks(stream, n_samples):
        pending.append(worker.submit(_score, uset, block))
        if len(pending) == _BLOCKS_IN_FLIGHT:
            hits += pending.popleft().result()
    hits += sum(scoring.result() for scoring in pending)
    return float(hits) / float(n_samples)


@dataclass(frozen=True)
class ConsistencyConfig:
    """Inputs of one coverage-consistency experiment.

    A single shape sample of ``num_centers`` points is drawn up front and
    shared by all trials; each trial then calibrates on a fresh training
    sample of size ``calibration.n_min`` and estimates the covered mass
    with ``coverage_samples`` fresh draws.
    """

    mixture: GaussianMixture
    num_centers: int
    calibration: CalibrationSpec
    trials: int = 200
    coverage_samples: int = 100_000
    seed: int = 0
    norm: Norm = Norm.L2

    def __post_init__(self) -> None:
        if not isinstance(self.mixture, GaussianMixture):
            raise TypeError("mixture must be a GaussianMixture")
        if not isinstance(self.calibration, CalibrationSpec):
            raise TypeError("calibration must be a CalibrationSpec")
        if not isinstance(self.norm, Norm):
            raise TypeError(f"norm must be a Norm, got {self.norm!r}")
        for name in ("num_centers", "trials", "coverage_samples"):
            _check_count(name, getattr(self, name))
        RandomStream(self.seed)  # rejects a seed that is not an integer, or a bool


@dataclass(frozen=True)
class CoverageReport:
    """Per-trial radii and coverage estimates plus their summaries."""

    alpha: float
    epsilon: float
    radii: np.ndarray
    coverages: np.ndarray

    def __post_init__(self) -> None:
        radii = np.asarray(self.radii, dtype=float)
        coverages = np.asarray(self.coverages, dtype=float)
        if radii.shape != coverages.shape or radii.ndim != 1 or radii.size == 0:
            raise ValueError("radii and coverages must be equal-length 1-D arrays")
        radii = radii.copy()
        coverages = coverages.copy()
        radii.flags.writeable = False
        coverages.flags.writeable = False
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "coverages", coverages)

    @property
    def num_trials(self) -> int:
        return int(self.coverages.size)

    @property
    def percentiles(self) -> tuple[float, float, float]:
        """5th, 50th and 95th percentile of the coverage estimates."""
        p5, p50, p95 = np.percentile(self.coverages, [5.0, 50.0, 95.0])
        return float(p5), float(p50), float(p95)

    @property
    def fraction_within(self) -> float:
        """Share of trials whose coverage landed in [alpha, alpha+epsilon]."""
        inside = (self.coverages >= self.alpha) & (
            self.coverages <= self.alpha + self.epsilon
        )
        return float(np.mean(inside))

    def summary(self) -> dict:
        p5, p50, p95 = self.percentiles
        return {
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "trials": self.num_trials,
            "coverage_p5": p5,
            "coverage_p50": p50,
            "coverage_p95": p95,
            "middle90_width": p95 - p5,
            "fraction_within": self.fraction_within,
            "radius_p50": float(np.percentile(self.radii, 50.0)),
        }

    def write_csv(self, path) -> None:
        """One row per trial: trial_id, radius, coverage."""
        lines = ["trial_id,radius,coverage"]
        for t, (radius, coverage) in enumerate(zip(self.radii, self.coverages)):
            lines.append(f"{t},{float(radius)!r},{float(coverage)!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def run_consistency_experiment(cfg: ConsistencyConfig) -> CoverageReport:
    """Fixed shape sample, then ``cfg.trials`` independent recalibrations.

    Trial t uses stream ids 2t+1 (training) and 2t+2 (coverage); the shape
    sample owns stream id 0.  Results are a pure function of the config.

    One worker thread serves every trial of the call.  For each trial it
    first draws the training sample and calibrates the radius, while the
    calling thread already draws the coverage blocks, which do not depend
    on the radius, up to three blocks ahead of the scorer; it then scores
    those blocks against the calibrated set (see :func:`_streamed_coverage`).
    """
    # Imported here so that commands which never estimate coverage skip it.
    from concurrent.futures import ThreadPoolExecutor

    shape = cfg.mixture.sample(RandomStream(cfg.seed, 0), cfg.num_centers)

    def calibrate(t: int) -> UncertaintySet:
        training = cfg.mixture.sample(
            RandomStream(cfg.seed, 2 * t + 1), cfg.calibration.n_min
        )
        return calibrate_radius(shape, cfg.norm, training, cfg.calibration)

    radii = np.empty(cfg.trials)
    coverages = np.empty(cfg.trials)
    with ThreadPoolExecutor(1) as worker:
        for t in range(cfg.trials):
            uset = worker.submit(calibrate, t)
            draws = RandomStream(cfg.seed, 2 * t + 2)
            coverages[t] = _streamed_coverage(
                worker, uset, cfg.mixture, cfg.coverage_samples, draws
            )
            radii[t] = uset.result().radius
    return CoverageReport(
        alpha=cfg.calibration.alpha,
        epsilon=cfg.calibration.epsilon,
        radii=radii,
        coverages=coverages,
    )


def _volume_box(uset: UncertaintySet) -> tuple[np.ndarray, np.ndarray]:
    """Bounding box auto-fit to the centers padded by three radii."""
    lo = uset.centers.min(axis=0) - 3.0 * uset.radius
    hi = uset.centers.max(axis=0) + 3.0 * uset.radius
    return lo, hi


def run_role_of_m_study(
    mixture: GaussianMixture,
    calibration: CalibrationSpec,
    m_values,
    *,
    norm: Norm = Norm.L2,
    seed: int = 0,
    volume_samples: int = 16_384,
    raster_resolution: int = 64,
) -> list[dict]:
    """Calibrate one set per entry of ``m_values`` and size it up.

    Each m gets a fresh shape sample (stream 3j), a fresh training sample
    of ``calibration.n_min`` points (stream 3j+1), and a Monte-Carlo
    volume estimate on the centers +- 3 radii bounding box (stream 3j+2,
    hit fraction times box volume; the estimator standard error is
    box_volume * sqrt(p(1-p)/volume_samples)).  For 2-D mixtures each
    entry also carries a raster of the set on that box, unless
    ``raster_resolution`` is 0.  Both counts and every m are checked before
    any m is sampled.
    """
    _check_count("volume_samples", volume_samples)
    _check_count("raster_resolution", raster_resolution, zero_ok=True)
    m_values = list(m_values)
    for m in m_values:
        _check_count("m_values entry", m)
    entries = []
    for j, m in enumerate(m_values):
        shape = mixture.sample(RandomStream(seed, 3 * j), int(m))
        training = mixture.sample(RandomStream(seed, 3 * j + 1), calibration.n_min)
        uset = calibrate_radius(shape, norm, training, calibration)
        lo, hi = _volume_box(uset)
        rng = RandomStream(seed, 3 * j + 2).generator()
        draws = rng.uniform(lo, hi, size=(volume_samples, uset.dimension))
        hit_fraction = float(np.mean(member_batch(uset, draws)))
        box_volume = float(np.prod(hi - lo))
        bbox = tuple((float(a), float(b)) for a, b in zip(lo, hi))
        raster = None
        if uset.dimension == 2 and raster_resolution >= 1:
            raster = raster_set(uset, bbox, raster_resolution)
        entries.append(
            {
                "m": int(m),
                "radius": float(uset.radius),
                "volume": box_volume * hit_fraction,
                "bbox": bbox,
                "set": uset,
                "raster": raster,
            }
        )
    return entries


def _cell_centers(bbox, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center x coordinates (left to right) and y coordinates (top to bottom)."""
    _check_count("resolution", resolution)
    (xmin, xmax), (ymin, ymax) = bbox
    if not np.all(np.isfinite([xmin, xmax, ymin, ymax, xmax - xmin, ymax - ymin])):
        raise ValueError(f"bbox bounds and side lengths must be finite, got {bbox!r}")
    if not (xmax > xmin and ymax > ymin):
        raise ValueError(f"bbox sides must have positive length, got {bbox!r}")
    offsets = (np.arange(resolution) + 0.5) / resolution
    xs = xmin + offsets * (xmax - xmin)
    # Row 0 is the top of the picture: y decreases down the rows.
    ys = ymax - offsets * (ymax - ymin)
    return xs, ys


def _windows(axis: np.ndarray, coords: np.ndarray, radius: float) -> tuple[np.ndarray, int]:
    """First cell and common width of each ball's window along one ascending axis.

    A window holds the cells within ``radius`` of the coordinate, widened by
    one cell on each side so that rounding in ``coord +- radius`` cannot drop
    a cell.  All windows take the widest one's width (the balls share one
    radius, so widths differ by at most one cell) and are shifted back inside
    the axis where they would hang over its ends.
    """
    lo = np.searchsorted(axis, coords - radius, side="left") - 1
    hi = np.searchsorted(axis, coords + radius, side="right") + 1
    width = min(int((hi - lo).max()), axis.size)
    return np.clip(lo, 0, axis.size - width), width


def raster_set(uset: UncertaintySet, bbox, resolution: int) -> np.ndarray:
    """Boolean membership grid over cell centers; row 0 is the top row.

    Each ball is stamped onto its own window of cells (see :func:`_windows`)
    instead of testing every cell against every center.  In the window, one
    transformed x difference per column is combined with one transformed y
    difference per row: :func:`~ballcover.geometry._pair_rule` in
    :func:`~ballcover.geometry.member_batch`'s order.  A cell outside the
    window lies a full cell beyond ``center +- radius`` along one axis, so
    that axis's term alone exceeds the level (unless the cells are only a
    few ulps wide).  The grid therefore equals ``member_batch(uset,
    cell_centers)`` bit for bit, at a cost that grows with the number of
    balls times the cells one ball covers.
    """
    if uset.dimension != 2:
        raise DimensionError(f"rasters need a 2-D set, got {uset.dimension} dimensions")
    xs, ys = _cell_centers(bbox, resolution)
    centers, radius = uset.centers, uset.radius
    transform, combine, level = _pair_rule(uset.norm, radius)
    col_start, cols = _windows(xs, centers[:, 0], radius)
    # ys falls down the rows; its negation rises, as searchsorted needs.
    row_start, rows = _windows(-ys, -centers[:, 1], radius)
    grid = np.zeros((ys.size, xs.size), dtype=bool)
    # Keep each (balls, rows, cols) block of pair sums within half the
    # kernel's budget; a window as large as the grid is cut into row bands.
    band = max(1, min(rows, _CHUNK_BUDGET // (2 * cols)))
    chunk = max(1, _CHUNK_BUDGET // (2 * band * cols))
    for first in range(0, uset.num_balls, chunk):
        batch = slice(first, first + chunk)
        col = col_start[batch, np.newaxis, np.newaxis] + np.arange(cols)
        across = transform(xs[col] - centers[batch, :1, np.newaxis])
        window_rows = row_start[batch, np.newaxis, np.newaxis] + np.arange(rows)[:, np.newaxis]
        for top in range(0, rows, band):
            row = window_rows[:, top : top + band]
            hits = combine(across, transform(ys[row] - centers[batch, 1:, np.newaxis])) <= level
            grid[
                np.broadcast_to(row, hits.shape)[hits], np.broadcast_to(col, hits.shape)[hits]
            ] = True
    return grid


def raster_density(mix: GaussianMixture, bbox, resolution: int) -> np.ndarray:
    """Mixture density sampled at cell centers; row 0 is the top row."""
    if mix.dimension != 2:
        raise DimensionError(
            f"rasters need a 2-D mixture, got {mix.dimension} dimensions"
        )
    xs, ys = _cell_centers(bbox, resolution)
    grid_x, grid_y = np.meshgrid(xs, ys)
    points = np.column_stack([grid_x.ravel(), grid_y.ravel()])
    return np.asarray(mix.density(points)).reshape(ys.size, xs.size)


def write_pgm(path, grid) -> None:
    """Binary PGM (P5, maxval 255): boolean grids map inside cells to 255,
    float grids are scaled linearly onto 0..255 (constant grids to 0)."""
    arr = np.asarray(grid)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("grid must be a nonempty 2-D array")
    if arr.dtype == bool:
        data = np.where(arr, 255, 0).astype(np.uint8)
    else:
        arr = arr.astype(float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("grid values must be finite")
        lo = float(arr.min())
        hi = float(arr.max())
        if hi > lo:
            data = np.rint((arr - lo) * (255.0 / (hi - lo))).astype(np.uint8)
        else:
            data = np.zeros(arr.shape, dtype=np.uint8)
    rows, cols = data.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    Path(path).write_bytes(header + data.tobytes())


def write_grid_csv(path, grid) -> None:
    """Comma-separated grid; booleans as 0/1, floats via repr."""
    arr = np.asarray(grid)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("grid must be a nonempty 2-D array")
    if arr.dtype == bool:
        lines = [",".join("1" if v else "0" for v in row) for row in arr]
    else:
        lines = [",".join(repr(float(v)) for v in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")
