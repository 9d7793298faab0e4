"""Norm geometry for union-of-ball uncertainty sets.

An uncertainty set here is a finite union of closed p-norm balls that share
one radius.  Everything reduces to the nearest-center distance function

    phi(u) = min_i ||u - center_i||_p

whose sublevel set at level r is exactly the union of balls of radius r.
Membership tests, batch score evaluation, and the closed-form worst case of
a linear function over the set all live in this module.  Only p in
{1, 2, inf} is supported; those are the orders with simple duals.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "Norm",
    "UncertaintySet",
    "norm_eval",
    "dual_norm_eval",
    "dual_achieving_direction",
    "shape_values",
    "member",
    "member_batch",
    "worst_case_linear",
    "worst_case_point",
]

# Floats of kernel scratch: 64K floats (512 KB), so it stays in one core's L2
# cache.  ``shape_values`` fits each (rows, m, d) difference block in it up to
# d = 32; above that a block has the rows of a 32-D one, up to 2,048 pairs
# (at most 2,048 * d floats, 4.8 MB at d = 300), so a pass over one coordinate
# is not bound by call overhead.  A block has at least one row, so a single
# row wider than that, m * d above it, still makes one block.
# ``member_batch``'s kernel splits the budget into two (g, left) slots, a
# running sum and the next coordinate's terms, and each step takes the
# g = slot // left centers that fill one (a slot is smaller only when all
# of a block's pairs fit in less); ``raster_set`` keeps each
# (balls, rows, cols) block of pair sums in half of it.  All fold a pair
# by ``_pair_rule``.  ``GaussianMixture._blocks`` draws each coordinate-major
# (d, rows) block of half a budget of floats into its own array and transforms
# it with two scratch arrays of the same size, so a drawn block has at most
# half a budget of rows and ``_member_columns`` scores it whole, where it lies.
_CHUNK_BUDGET = 65_536


class DimensionError(ValueError):
    """A vector or matrix argument has an empty or mismatched shape."""


class Norm(enum.Enum):
    """Supported p-norm orders."""

    L1 = "l1"
    L2 = "l2"
    LINF = "linf"

    @property
    def dual(self) -> "Norm":
        """Dual order under the Hoelder pairing: L1 <-> LINF, L2 <-> L2."""
        return _DUAL[self]


_DUAL = {Norm.L1: Norm.LINF, Norm.L2: Norm.L2, Norm.LINF: Norm.L1}


def _vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    return arr


def _matrix(points, name: str = "points") -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1 and arr.size > 0:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise DimensionError(f"{name} must be a non-empty (n, d) array, got shape {arr.shape}")
    return arr


def _power_of_two_scale(x: np.ndarray) -> float:
    """The power of two ``2**(e-1)`` with ``max|x| / 2**(e-1)`` in [1, 2).

    Dividing x by it keeps every product and square of a formula in range
    whenever the answer itself is a finite double; where nothing overflows
    or underflows the division is exact, so the scaled formula gives the
    unscaled formula's bits.
    """
    return math.ldexp(1.0, math.frexp(float(np.max(np.abs(x))))[1] - 1)


def _norm_fold(x: np.ndarray, norm: Norm) -> float:
    """||x||_p with no scaling: the coordinates folded left to right."""
    transform, combine, _ = _pair_rule(norm, 0.0)
    total = float(combine.accumulate(transform(x))[-1])
    return math.sqrt(total) if norm is Norm.L2 else total


def norm_eval(x, norm: Norm) -> float:
    """Evaluate ||x||_p for p in {1, 2, inf}, folding the coordinates left to right."""
    x = _vector(x)
    scale = _power_of_two_scale(x)
    return _norm_fold(x / scale, norm) * scale


def dual_norm_eval(x, norm: Norm) -> float:
    """Evaluate the dual norm of ``norm`` at x (L1 <-> LINF, L2 self-dual)."""
    return norm_eval(x, norm.dual)


def dual_achieving_direction(x, norm: Norm) -> np.ndarray:
    """A direction g with ||g||_p <= 1 and g . x = dual_norm_eval(x, norm).

    This is the maximizer of ``x . g`` over the unit ``norm`` ball.  At
    x = 0 every direction is a maximizer; the first standard basis vector
    is returned so callers get a deterministic witness.
    """
    x = _vector(x)
    g = np.zeros_like(x)
    if not np.any(x):
        g[0] = 1.0
        return g
    if norm is Norm.L2:
        x = x / _power_of_two_scale(x)
        return x / np.sqrt(np.dot(x, x))
    if norm is Norm.L1:
        j = int(np.argmax(np.abs(x)))
        g[j] = 1.0 if x[j] >= 0 else -1.0
        return g
    # LINF ball: the sign vector (zeros may take either sign; use +1).
    return np.where(x >= 0, 1.0, -1.0)


def shape_values(centers, norm: Norm, points) -> np.ndarray:
    """Nearest-center distances for a batch of points.

    Parameters
    ----------
    centers : (m, d) array of ball centers.
    norm : Norm order used for the distance.
    points : (n, d) array of query points.

    Returns
    -------
    (n,) array with entry j equal to min_i ||points[j] - centers[i]||_p.

    Points are scored in blocks of ``(rows, m, d)`` differences, written
    into one scratch array, so the scratch memory does not grow with n.  A
    block holds at most ``_CHUNK_BUDGET`` floats up to d = 32 and at most
    ``_CHUNK_BUDGET * d / 32`` above it (at least one row either way), so a
    block of high-dimensional points holds as many pairs as a 32-D one.
    Each block is transformed in place and its last axis folded into the
    first coordinate, one coordinate at a time, by :func:`_pair_rule`'s
    combine, so ``shape_values(...) <= radius`` is the rule's verdict
    whatever the block size.  The block minima are written straight into
    the output, and L2 takes its square root once per point after the
    minimum: ``sqrt`` is monotone and correctly rounded, so that order
    gives the same bits.
    """
    centers = _matrix(centers, "centers")
    points = _matrix(points, "points")
    if centers.shape[1] != points.shape[1]:
        raise DimensionError(
            f"dimension mismatch: centers are {centers.shape[1]}-D, "
            f"points are {points.shape[1]}-D"
        )
    m, d = centers.shape
    n = points.shape[0]
    transform, combine, _ = _pair_rule(norm, 0.0)
    out = np.empty(n)
    chunk = max(1, _CHUNK_BUDGET // (m * min(d, 32)))
    scratch = np.empty((min(chunk, n), m, d))
    for start in range(0, n, chunk):
        block = points[start : start + chunk]
        diffs = np.subtract(block[:, np.newaxis, :], centers, out=scratch[: block.shape[0]])
        transform(diffs, out=diffs)
        folded = diffs[..., 0]
        for k in range(1, d):
            combine(folded, diffs[..., k], out=folded)
        folded.min(axis=1, out=out[start : start + block.shape[0]])
    return np.sqrt(out, out=out) if norm is Norm.L2 else out


@dataclass(frozen=True)
class UncertaintySet:
    """A union of closed p-norm balls with one shared radius.

    ``centers`` is an (m, d) array; a single d-vector is promoted to one
    center.  The array is made read-only so a set cannot drift after
    construction.
    """

    centers: np.ndarray
    radius: float
    norm: Norm

    def __post_init__(self) -> None:
        centers = _matrix(self.centers, "centers").copy()
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        centers.setflags(write=False)
        radius = float(self.radius)
        if not np.isfinite(radius) or radius < 0:
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
        if not isinstance(self.norm, Norm):
            raise TypeError(f"norm must be a Norm, got {type(self.norm).__name__}")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radius", radius)

    @property
    def num_balls(self) -> int:
        return self.centers.shape[0]

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    def to_dict(self) -> dict:
        """JSON-ready form: {"norm": "l2", "radius": r, "centers": [[...], ...]}."""
        return {
            "norm": self.norm.value,
            "radius": self.radius,
            "centers": [[float(v) for v in row] for row in self.centers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UncertaintySet":
        if not isinstance(data, dict):
            raise ValueError("uncertainty set must be a JSON object")
        try:
            norm = Norm(data["norm"])
            return cls(np.asarray(data["centers"], dtype=float), float(data["radius"]), norm)
        except KeyError as exc:
            raise ValueError(f"uncertainty-set dict is missing key {exc}") from exc


def member(uset: UncertaintySet, u) -> bool:
    """True iff u lies in the union (nearest-center distance <= radius).

    The comparison is a direct float <=, so boundary points are members;
    no tolerance is folded in.
    """
    return bool(member_batch(uset, _vector(u, "u")[np.newaxis, :])[0])


def member_batch(uset: UncertaintySet, points) -> np.ndarray:
    """Boolean membership for each row of an (n, d) array.

    Points enter in blocks, each transposed once to ``(d, rows)`` and
    scored by :func:`_member_columns`, with as many rows as one of its
    scratch slots holds but at most ``16 * _CHUNK_BUDGET`` floats (the cap
    binds above d = 32).  "Some ball holds the point" equals
    ``shape_values(...) <= radius`` bit for bit, and a row with a NaN is
    never inside.  The scratch does not grow with n or m.
    """
    points = _matrix(points, "points")
    d = uset.dimension
    if points.shape[1] != d:
        raise DimensionError(
            f"dimension mismatch: set is {d}-D, points are {points.shape[1]}-D"
        )
    n = points.shape[0]
    rows = min(n, max(1, _CHUNK_BUDGET // 2), max(1, 16 * _CHUNK_BUDGET // d))
    inside = np.empty(n, dtype=bool)
    for first in range(0, n, rows):
        block = points[first : first + rows].T.copy()
        inside[first : first + rows] = _member_columns(uset, block)
    return inside


def _member_columns(uset: UncertaintySet, columns: np.ndarray) -> np.ndarray:
    """Boolean membership for each column of a (d, rows) block.

    A point is inside once one ball holds it, so the centers are walked in
    their stored order, a step taking the next ``g = slot // left`` centers
    for the ``left`` points of the block, so that its ``(g, left)`` pairs
    fill one slot of the scratch (the last step takes what remains).  A
    point found inside is marked done but stays in the block until
    dropping it pays: the block is compacted to the points still outside
    once ``dead * (centers to go) >= left``, ``dead`` being the done
    points, that is once the pair tests they would still take are at
    least one pass over the block.  After the last center the done points
    are written without a compaction.  Testing a point that is already
    inside changes no verdict.  The pairs are scored one coordinate at a
    time by :func:`_pair_rule`: subtract, transform in place, and fold
    into the running result.

    ``columns`` is read, never written, so a sampler's block is scored
    where it lies.  The scratch is two slots, the running sum and the next
    coordinate's terms, of ``max(n, min(_CHUNK_BUDGET // 2, n * m))``
    floats each: half a budget, all ``n * m`` pairs if they are fewer (so
    a single point takes every center in one step), or one float per point
    for a block with more rows than half a budget.
    """
    centers, norm = uset.centers, uset.norm
    m, d = centers.shape
    transform, combine, level = _pair_rule(norm, uset.radius)
    n = columns.shape[1]
    # A slot holds a whole block against one center, or every pair of the
    # block if there are fewer than half a budget of them; a step takes as
    # many centers as fill it.
    scratch = np.empty((2, max(n, min(_CHUNK_BUDGET // 2, n * m))))
    by_axis = centers.T[:, :, np.newaxis]
    inside = np.zeros(n, dtype=bool)
    outside = columns
    left = np.arange(n)
    done = np.zeros(n, dtype=bool)
    start = 0
    while left.size:
        g = scratch.shape[1] // left.size
        cols = by_axis[:, start : start + g]
        acc, term = scratch[:, : cols.shape[1] * left.size].reshape(2, -1, left.size)
        transform(np.subtract(outside[0], cols[0], out=acc), out=acc)
        for j in range(1, d):
            transform(np.subtract(outside[j], cols[j], out=term), out=term)
            combine(acc, term, out=acc)
        done |= (acc <= level).any(axis=0)
        start += g
        if start >= m:
            inside[left[done]] = True
            break
        if np.count_nonzero(done) * (m - start) >= left.size:
            inside[left[done]] = True
            keep = np.flatnonzero(~done)
            left, outside = left.take(keep), outside.take(keep, axis=1)
            done = np.zeros(left.size, dtype=bool)
    return inside


def _pair_rule(norm: Norm, radius: float):
    """The per-pair rule: (u, c) is inside iff ``||u - c||_p <= radius``.

    Returns ``(transform, combine, level)``: each difference ``u_k - c_k``
    is transformed (``np.square`` for L2, ``np.abs`` otherwise), the results
    are folded left to right by ``combine`` (``np.add``, ``np.maximum`` for
    Linf), and the pair is inside iff the fold is at most ``level``.  That
    is the radius, except for L2: there it is the largest double whose
    ``sqrt`` is at most the radius, so ``fold <= level`` iff ``sqrt(fold)
    <= radius``, as ``sqrt`` is monotone and correctly rounded.
    """
    if norm is Norm.L2:
        return np.square, np.add, _squared_level(radius)
    return np.abs, np.add if norm is Norm.L1 else np.maximum, radius


def _squared_level(radius: float) -> float:
    """The largest double s with ``sqrt(s) <= radius`` (0 <= radius < inf)."""
    level = radius * radius
    while math.sqrt(level) > radius:
        level = math.nextafter(level, 0.0)
    while math.sqrt(math.nextafter(level, math.inf)) <= radius:
        level = math.nextafter(level, math.inf)
    return level


def worst_case_linear(uset: UncertaintySet, x) -> float:
    """max_{u in set} x . u in closed form.

    Over a single ball the maximum is x . center + radius * ||x||_dual;
    over the union it is the best center plus the same radius term.
    A non-finite x raises ValueError.  x is divided by
    :func:`_power_of_two_scale` and the answer multiplied back, so no
    product overflows when the answer itself is a finite double.
    """
    x, scale = _scaled_linear_argument(uset, x)
    return float(np.max(uset.centers @ x) + uset.radius * _norm_fold(x, uset.norm.dual)) * scale


def worst_case_point(uset: UncertaintySet, x) -> np.ndarray:
    """A member u of the set at which x . u attains :func:`worst_case_linear`.

    The best center (chosen on the scaled x, so no product overflows) plus
    the radius times :func:`dual_achieving_direction`.  Rounding in the L2
    direction, and in center + step when the radius is small next to the
    center, can land that point just outside its ball; it is then pulled
    toward the center by doubling shrinks, and at shrink 1 it is the center
    itself, so the result is always a member.
    """
    scaled, _ = _scaled_linear_argument(uset, x)
    center = uset.centers[int(np.argmax(uset.centers @ scaled))]
    step = uset.radius * dual_achieving_direction(x, uset.norm)
    point = center + step
    shrink = 2.0**-52
    while not member(uset, point):
        point = center + (1.0 - shrink) * step
        shrink *= 2.0
    return point


def _scaled_linear_argument(uset: UncertaintySet, x) -> tuple[np.ndarray, float]:
    """Check x against the set and return ``(x / scale, scale)``."""
    x = _vector(x)
    if x.size != uset.dimension:
        raise DimensionError(
            f"dimension mismatch: x is {x.size}-D, set is {uset.dimension}-D"
        )
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    scale = _power_of_two_scale(x)
    return x / scale, scale
