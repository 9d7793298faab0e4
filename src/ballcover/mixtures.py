"""Gaussian-mixture test-bed distributions and reproducible sampling.

Mixtures are immutable: covariance factors and log-normalizers are computed
once at construction, and construction fails loudly on anything that is not
symmetric positive definite.  Sampling goes through :class:`RandomStream`,
a (seed, stream_id) pair whose generator is a pure function of that pair,
so per-trial substreams can run in any order, or in parallel, with
identical output.

scipy is imported only inside the 1-D branch of :func:`true_ball_mass`, so
importing this module does not load it; :meth:`GaussianMixture.density`
solves its d x d triangular systems with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _CHUNK_BUDGET,
    DimensionError,
    UncertaintySet,
    norm_eval,
    shape_values,
)

__all__ = [
    "GaussianMixture",
    "RandomStream",
    "bundled_mixture",
    "true_ball_mass",
]

_UINT64 = 2**64
# Probability mass still in doubt at which true_ball_mass stops refining.
_MASS_ABS_TOL = 1e-4


@dataclass(frozen=True)
class RandomStream:
    """A reproducible random source identified by (seed, stream_id).

    Streams with the same identity always produce the same draws; distinct
    identities give statistically independent sequences.  Each call to
    :meth:`generator` restarts the stream, so sampling is a pure function
    of the stream identity.  The generator is SFC64, seeded by a
    ``SeedSequence`` with ``seed`` as its entropy and ``(stream_id,)`` as
    its spawn key; the two stay apart, so no two identities share a state
    the way the words of one entropy list ``[seed, stream_id]`` could.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
            object.__setattr__(self, name, int(value) % _UINT64)

    def generator(self) -> np.random.Generator:
        seeds = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.SFC64(seeds))


class GaussianMixture:
    """Finite mixture of multivariate normals.

    Parameters
    ----------
    weights : (k,) positive weights; must sum to 1 within 1e-9 and are
        stored renormalized.
    means : (k, d) component means.
    covariances : (k, d, d) symmetric positive-definite matrices.
    """

    def __init__(self, weights, means, covariances) -> None:
        weights = np.asarray(weights, dtype=float)
        means = np.atleast_2d(np.asarray(means, dtype=float))
        covariances = np.asarray(covariances, dtype=float)
        if covariances.ndim == 2:
            covariances = covariances[np.newaxis, :, :]
        if weights.ndim != 1 or weights.size == 0:
            raise ValueError("weights must be a non-empty 1-D array")
        k = weights.size
        if means.shape[0] != k or covariances.shape[0] != k:
            raise ValueError(
                f"component count mismatch: {k} weights, {means.shape[0]} means, "
                f"{covariances.shape[0]} covariances"
            )
        d = means.shape[1]
        if covariances.shape[1:] != (d, d):
            raise ValueError(f"covariances must be (k, {d}, {d}), got {covariances.shape}")
        for name, arr in (("weights", weights), ("means", means), ("covariances", covariances)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        factors = np.empty_like(covariances)
        log_norms = np.empty(k)
        for i, cov in enumerate(covariances):
            if not np.allclose(cov, cov.T, rtol=0, atol=1e-12):
                raise ValueError(f"component {i} covariance is not symmetric")
            try:
                factors[i] = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise ValueError(
                    f"component {i} covariance is not positive definite"
                ) from exc
            log_norms[i] = -0.5 * d * math.log(2.0 * math.pi) - float(
                np.log(np.diag(factors[i])).sum()
            )
        self._weights = weights / total
        self._means = means.copy()
        self._covariances = covariances.copy()
        self._factors = factors
        self._log_norms = log_norms
        for arr in (self._weights, self._means, self._covariances, self._factors):
            arr.setflags(write=False)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def means(self) -> np.ndarray:
        return self._means

    @property
    def covariances(self) -> np.ndarray:
        return self._covariances

    @property
    def num_components(self) -> int:
        return int(self._weights.size)

    @property
    def dimension(self) -> int:
        return int(self._means.shape[1])

    def sample(self, stream: RandomStream, n: int) -> np.ndarray:
        """Draw n i.i.d. points: component counts, then mean + L z per point.

        The blocks of :meth:`_blocks` are transposed into their rows of the
        (n, d) output as they come, so beyond the output the scratch memory
        is a few blocks whatever n is, and no (n, d, d) copy of the factors
        is made.
        """
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"n must be an integer, got {type(n).__name__}")
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        out = np.empty((n, self.dimension))
        start = 0
        for block in self._blocks(stream, n):
            stop = start + block.shape[1]
            # One strided write per coordinate beats numpy's transposed copy at small d.
            for column, coordinate in zip(out[start:stop].T, block):
                column[:] = coordinate
            start = stop
        return out

    def _blocks(self, stream: RandomStream, n: int):
        """Yield the n draws of ``stream`` as coordinate-major (d, rows) blocks.

        The draws are sampled by composition: one ``rng.multinomial(n,
        weights)`` call gives the component counts, and component k owns the
        contiguous draws ``edges[k]:edges[k+1]``, ``edges`` being the running
        sum of the counts from 0.  Every estimator treats a sample as an
        unordered set, so grouping the draws by component changes no law.
        Then each block's standard normals ``z`` are drawn into a new
        C-ordered (d, rows) array, coordinate 0 of every draw first, and
        each component's columns of the block are transformed with d
        sweeps, ``acc[j:] += F[j:, j] * z[j]`` for j = 0 to d-1, ``F`` being
        its lower-triangular Cholesky factor, so coordinate i is ``mean[i] +
        ((F[i,0]*z_0 + F[i,1]*z_1) + ... + F[i,i]*z_i)``: the products are
        added left to right.  The sweeps use two (d, rows) scratch arrays,
        the running sums and the next products, and the result overwrites
        ``z``.  A block has ``_CHUNK_BUDGET // (2 * d)`` draws, half a
        budget of floats.  Each block is the caller's: the sampler never
        writes it again.
        """
        d = self.dimension
        block = max(1, _CHUNK_BUDGET // (2 * d))
        rng = stream.generator()
        edges = np.concatenate(([0], np.cumsum(rng.multinomial(n, self._weights))))
        acc, term = np.empty((2, d, min(n, block)))
        for start in range(0, n, block):
            stop = min(start + block, n)
            z = rng.standard_normal((d, stop - start))
            cuts = np.clip(edges, start, stop) - start
            for lo, hi, mean, factor in zip(cuts[:-1], cuts[1:], self._means, self._factors):
                draws, sums, products = z[:, lo:hi], acc[:, : hi - lo], term[:, : hi - lo]
                np.multiply(factor[:, :1], draws[0], out=sums)
                for j in range(1, d):
                    np.multiply(factor[j:, j : j + 1], draws[j], out=products[j:])
                    np.add(sums[j:], products[j:], out=sums[j:])
                np.add(mean[:, np.newaxis], sums, out=draws)
            yield z

    def density(self, u) -> float | np.ndarray:
        """Mixture pdf at one point (d,) or a batch (n, d)."""
        arr = np.asarray(u, dtype=float)
        single = arr.ndim == 1
        pts = arr[np.newaxis, :] if single else arr
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionError(
                f"point dimension {arr.shape} does not match mixture dimension "
                f"{self.dimension}"
            )
        out = np.zeros(pts.shape[0])
        for w, mean, factor, log_norm in zip(
            self._weights, self._means, self._factors, self._log_norms
        ):
            z = np.linalg.solve(factor, (pts - mean).T)
            out += w * np.exp(log_norm - 0.5 * np.square(z).sum(axis=0))
        return float(out[0]) if single else out


def bundled_mixture(name: str) -> GaussianMixture:
    """One of the three bundled 2-D example mixtures.

    ``"isotropic"`` (alias ``"a"``): one dominant isotropic mode with a
    faint broad halo.  ``"peaked"`` (alias ``"b"``): one concentrated mode
    plus diffuse off-center mass.  ``"fourmode"`` (alias ``"c"``): four
    well-separated modes.  Parameters are illustrative picks with these
    qualitative shapes, not fits to any external data.
    """
    key = name.lower()
    key = {"a": "isotropic", "b": "peaked", "c": "fourmode"}.get(key, key)
    eye = np.eye(2)
    if key == "isotropic":
        return GaussianMixture(
            [0.85, 0.15], [(0.0, 0.0), (0.0, 0.0)], [eye, 6.0 * eye]
        )
    if key == "peaked":
        return GaussianMixture(
            [0.6, 0.4], [(0.0, 0.0), (1.5, 1.5)], [0.2 * eye, 2.5 * eye]
        )
    if key == "fourmode":
        return GaussianMixture(
            [0.25, 0.25, 0.25, 0.25],
            [(5.0, 5.0), (-5.0, 5.0), (-5.0, -5.0), (5.0, -5.0)],
            [0.5 * eye] * 4,
        )
    raise ValueError(f"unknown bundled mixture {name!r}; choices: isotropic, peaked, fourmode")


def _mass_1d(mix: GaussianMixture, uset: UncertaintySet) -> float:
    # Union of intervals; exact via the mixture CDF.
    from scipy.special import ndtr

    r = uset.radius
    intervals = sorted((float(c[0]) - r, float(c[0]) + r) for c in uset.centers)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    sigmas = np.sqrt(mix.covariances[:, 0, 0])
    mus = mix.means[:, 0]
    total = 0.0
    for lo, hi in merged:
        upper = ndtr((hi - mus) / sigmas)
        lower = ndtr((lo - mus) / sigmas)
        total += float(np.dot(mix.weights, upper - lower))
    return total


def _cell_density_integral(mix: GaussianMixture, cells: np.ndarray, hw: np.ndarray) -> float:
    # Tensor-product 2-point Gauss-Legendre rule, exact through cubics.
    if cells.shape[0] == 0:
        return 0.0
    d = cells.shape[1]
    volume = float(np.prod(2.0 * hw))
    signs = np.array(list(np.ndindex(*([2] * d)))) * 2 - 1
    offsets = signs * (hw / math.sqrt(3.0))
    total = 0.0
    for off in offsets:
        total += float(np.sum(mix.density(cells + off)))
    return total * volume / offsets.shape[0]


def true_ball_mass(mix: GaussianMixture, uset: UncertaintySet) -> float:
    """Probability mass of the union of balls, by adaptive quadrature.

    Cells whose closure is provably inside or outside the union (the
    nearest-center distance is 1-Lipschitz in the ball norm) are resolved
    immediately; cells straddling the boundary are split until the density
    mass still in doubt is below ``_MASS_ABS_TOL`` (1e-4).  Dimensions 1-3
    only; use Monte-Carlo estimation above that.
    """
    if mix.dimension != uset.dimension:
        raise DimensionError(
            f"mixture dimension {mix.dimension} does not match set dimension "
            f"{uset.dimension}"
        )
    if uset.radius == 0.0:
        return 0.0
    d = uset.dimension
    if d == 1:
        return _mass_1d(mix, uset)
    if d > 3:
        raise ValueError("true_ball_mass supports dimension <= 3; use Monte-Carlo instead")

    r = uset.radius
    lo = uset.centers.min(axis=0) - r
    hi = uset.centers.max(axis=0) + r
    base = 32 if d == 2 else 12
    axes = [lo[j] + (hi[j] - lo[j]) * (np.arange(base) + 0.5) / base for j in range(d)]
    cells = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    hw = (hi - lo) / (2.0 * base)

    child_offsets = np.array(list(np.ndindex(*([2] * d)))) * 2.0 - 1.0
    mass = 0.0
    max_depth = 24
    for _ in range(max_depth):
        reach = norm_eval(hw, uset.norm)
        phi = shape_values(uset.centers, uset.norm, cells)
        inside = phi <= r - reach
        outside = phi >= r + reach
        ambiguous = ~(inside | outside)
        mass += _cell_density_integral(mix, cells[inside], hw)
        cells = cells[ambiguous]
        if cells.shape[0] == 0:
            return mass
        # Mass still in doubt, bounded by twice the center-density estimate
        # (the factor absorbs in-cell density variation at these cell sizes).
        volume = float(np.prod(2.0 * hw))
        doubt = 2.0 * float(np.sum(mix.density(cells))) * volume
        if doubt <= 0.5 * _MASS_ABS_TOL:
            break
        cells = (cells[:, np.newaxis, :] + child_offsets[np.newaxis, :, :] * (hw / 2.0)).reshape(
            -1, d
        )
        hw = hw / 2.0
    # Final sweep: midpoint rule with the center indicator on what is left.
    phi = shape_values(uset.centers, uset.norm, cells)
    keep = cells[phi <= r]
    volume = float(np.prod(2.0 * hw))
    mass += float(np.sum(mix.density(keep))) * volume
    return mass
