"""Radius calibration, sample-size planning, and finite-sample bounds.

The radius of a union-of-balls set is calibrated as an empirical quantile
of nearest-center distances computed on a training sample.  With training
size n at least the planned minimum, the probability mass captured by the
calibrated set lands in [alpha, alpha + epsilon] with confidence 1 - delta.
This module provides the quantile itself, the sample-size plan, and both
the exponential (Chernoff-type) and exact binomial expressions for the two
failure probabilities (mass below alpha; mass above alpha + epsilon).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import DimensionError, Norm, UncertaintySet, shape_values

__all__ = [
    "CalibrationSpec",
    "TrainingScores",
    "UndersampledError",
    "UndersampledWarning",
    "calibrate_radius",
    "chernoff_violation_bounds",
    "empirical_quantile",
    "exact_violation_probs",
    "optimal_lambda",
    "planning_constant",
    "sample_size",
]


class UndersampledError(RuntimeError):
    """Training sample is smaller than the planned minimum size."""


class UndersampledWarning(UserWarning):
    """Advisory-mode counterpart of :class:`UndersampledError`."""


def _check_range(name: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if not (lo < value < hi) or not math.isfinite(value):
        raise ValueError(f"{name} must lie in ({lo}, {hi}), got {value}")
    return value


class TrainingScores:
    """An immutable batch of real-valued scores (nearest-center distances).

    Scores must be non-empty and finite: NaN would break the total order of
    the sort, and an infinite score could become an infinite radius.
    The sorted copy is cached because every quantile query needs it.
    """

    __slots__ = ("values", "sorted_values")

    def __init__(self, values) -> None:
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"scores must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError("scores must be non-empty")
        if not np.isfinite(arr).all():
            raise ValueError("scores must be finite (no NaN or inf)")
        values_arr = arr.copy()
        values_arr.setflags(write=False)
        sorted_arr = np.sort(arr)
        sorted_arr.setflags(write=False)
        object.__setattr__(self, "values", values_arr)
        object.__setattr__(self, "sorted_values", sorted_arr)

    def __setattr__(self, name, value):
        raise AttributeError("TrainingScores is immutable")

    def __len__(self) -> int:
        return int(self.values.size)


def _quantile_rank(n: int, gamma: float) -> int:
    """The smallest rank k with k / n >= gamma, as computed in floats."""
    k = math.ceil(n * gamma)
    # n * gamma can round across an integer (e.g. 25 * 0.28 -> 7.000...01),
    # breaking the inf{z : F_n(z) >= gamma} identity.  Nudge k so that it is
    # the smallest rank whose CDF value k/n clears gamma under the same
    # float arithmetic the identity is stated in.
    while k > 1 and (k - 1) / n >= gamma:
        k -= 1
    while k / n < gamma:
        k += 1
    return k


def empirical_quantile(scores: TrainingScores, gamma: float) -> float:
    """Level-``gamma`` empirical quantile of the scores.

    Returns the k-th smallest score for the smallest k with k / n >= gamma
    (ceil(n * gamma) unless that product rounds across an integer), which
    equals inf{z : F_n(z) >= gamma} for the empirical distribution function F_n.
    Duplicate scores occupy consecutive ranks.

    Parameters
    ----------
    scores : TrainingScores
    gamma : float in (0, 1)
    """
    gamma = _check_range("gamma", gamma, 0.0, 1.0)
    return float(scores.sorted_values[_quantile_rank(len(scores), gamma) - 1])


def optimal_lambda(alpha: float, epsilon: float) -> float:
    """Mixing weight minimizing the planned sample size, for alpha > 1/2.

    lambda* = (1 - alpha - sqrt((1 - alpha)(alpha + epsilon))) / (1 - 2 alpha - epsilon)

    The closed form is only valid on alpha in (1/2, 1); outside that window
    a ValueError is raised (minimize :func:`planning_constant` directly if
    alpha <= 1/2 is ever needed).
    """
    alpha = float(alpha)
    if not 0.5 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0.5, 1) for the closed form, got {alpha}")
    epsilon = _check_range("epsilon", epsilon, 0.0, 1.0 - alpha)
    num = (1.0 - alpha) - math.sqrt((1.0 - alpha) * (alpha + epsilon))
    return num / (1.0 - 2.0 * alpha - epsilon)


def planning_constant(alpha: float, epsilon: float, lam: float) -> float:
    """c(lambda, alpha, epsilon) = max{(1-alpha)/lambda^2, (alpha+epsilon)/(1-lambda)^2}."""
    alpha = _check_range("alpha", alpha, 0.0, 1.0)
    epsilon = _check_range("epsilon", epsilon, 0.0, 1.0 - alpha)
    lam = _check_range("lambda", lam, 0.0, 1.0)
    return max((1.0 - alpha) / lam**2, (alpha + epsilon) / (1.0 - lam) ** 2)


def sample_size(alpha: float, epsilon: float, delta: float, lam: float) -> int:
    """Minimum training-sample size for the (alpha, epsilon, delta) guarantee.

    n_min = ceil( c(lambda, alpha, epsilon) * (2 / epsilon^2) * ln(2 / delta) )

    At this size each of the two failure probabilities is at most delta / 2
    when the quantile level is alpha + lambda * epsilon.
    """
    delta = _check_range("delta", delta, 0.0, 1.0)
    c = planning_constant(alpha, epsilon, lam)
    return math.ceil(c * (2.0 / epsilon**2) * math.log(2.0 / delta))


@dataclass(frozen=True)
class CalibrationSpec:
    """Resolved calibration parameters.

    ``lam`` may be given as the string ``"optimal"`` (resolved through
    :func:`optimal_lambda`) or as a number in (0, 1).  ``alpha_n`` defaults
    to ``alpha + lam * epsilon`` but may be pinned anywhere in the open
    interval (alpha, alpha + epsilon) to sweep the quantile level
    independently of the sample-size plan.  ``n_min`` is always derived.
    """

    alpha: float
    epsilon: float
    delta: float
    lam: float | str = "optimal"
    alpha_n: float | None = None
    n_min: int = field(init=False)

    def __post_init__(self) -> None:
        alpha = _check_range("alpha", self.alpha, 0.0, 1.0)
        epsilon = _check_range("epsilon", self.epsilon, 0.0, 1.0 - alpha)
        delta = _check_range("delta", self.delta, 0.0, 1.0)
        lam = self.lam
        if isinstance(lam, str):
            if lam != "optimal":
                raise ValueError(f'lambda must be a number or "optimal", got {lam!r}')
            lam = optimal_lambda(alpha, epsilon)
        lam = _check_range("lambda", lam, 0.0, 1.0)
        alpha_n = alpha + lam * epsilon if self.alpha_n is None else self.alpha_n
        alpha_n = _check_level(alpha, epsilon, alpha_n)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "alpha_n", alpha_n)
        object.__setattr__(self, "n_min", sample_size(alpha, epsilon, delta, lam))


def calibrate_radius(
    centers,
    norm: Norm,
    training,
    spec: CalibrationSpec,
    *,
    strict: bool = True,
) -> UncertaintySet:
    """Calibrate the shared ball radius on a training sample.

    The radius is the level-``spec.alpha_n`` empirical quantile of the
    nearest-center distances of the training points.  The caller is
    responsible for drawing ``training`` independently of ``centers``.

    With fewer than ``spec.n_min`` training points the finite-sample
    guarantee does not apply: strict mode raises
    :class:`UndersampledError`, advisory mode (``strict=False``) issues an
    :class:`UndersampledWarning` and proceeds.
    """
    training = np.asarray(training, dtype=float)
    if training.ndim == 1 and training.size > 0:
        training = training[np.newaxis, :]
    if training.ndim != 2 or training.shape[0] == 0:
        raise DimensionError("training must be a non-empty (n, d) array")
    n = training.shape[0]
    if n < spec.n_min:
        message = (
            f"training sample has n={n} < n_min={spec.n_min}; the "
            f"(alpha={spec.alpha}, epsilon={spec.epsilon}, delta={spec.delta}) "
            "guarantee does not hold"
        )
        if strict:
            raise UndersampledError(message)
        warnings.warn(message, UndersampledWarning, stacklevel=2)
    scores = TrainingScores(shape_values(centers, norm, training))
    radius = empirical_quantile(scores, spec.alpha_n)
    return UncertaintySet(np.asarray(centers, dtype=float), radius, norm)


def _check_level(alpha: float, epsilon: float, alpha_n) -> float:
    """``alpha_n`` as a float, checked to lie strictly in (alpha, alpha+epsilon)."""
    alpha_n = float(alpha_n)
    if not alpha < alpha_n < alpha + epsilon:
        raise ValueError(
            f"alpha_n must lie strictly in (alpha, alpha+epsilon) = "
            f"({alpha}, {alpha + epsilon}), got {alpha_n}"
        )
    return alpha_n


def _check_level_hypothesis(n, alpha, epsilon, alpha_n):
    if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    alpha = _check_range("alpha", alpha, 0.0, 1.0)
    epsilon = _check_range("epsilon", epsilon, 0.0, 1.0 - alpha)
    return int(n), alpha, epsilon, _check_level(alpha, epsilon, alpha_n)


def chernoff_violation_bounds(
    n: int, alpha: float, epsilon: float, alpha_n: float
) -> tuple[float, float]:
    """Exponential bounds on the two calibration failure probabilities.

    Returns ``(undershoot, overshoot)`` where

        undershoot = exp(-n (alpha_n - alpha)^2 / (2 (1 - alpha)))
        overshoot  = exp(-n (alpha + epsilon - alpha_n)^2 / (2 (alpha + epsilon)))

    bound P(captured mass < alpha) and P(captured mass > alpha + epsilon)
    respectively, for a radius calibrated at quantile level alpha_n.
    """
    n, alpha, epsilon, alpha_n = _check_level_hypothesis(n, alpha, epsilon, alpha_n)
    under = math.exp(-n * (alpha_n - alpha) ** 2 / (2.0 * (1.0 - alpha)))
    over = math.exp(-n * (alpha + epsilon - alpha_n) ** 2 / (2.0 * (alpha + epsilon)))
    return under, over


def _binomial_cdf(k_max: int, n: int, p: float) -> float:
    # P(Bin(n, p) <= k_max) as scipy's regularized incomplete beta function.
    # bdtr is nan for k_max < 0, hence the first guard.  scipy is imported
    # here, not at module top, so that importing ballcover does not load it.
    from scipy.special import bdtr

    if k_max < 0:
        return 0.0
    if k_max >= n or p == 0.0:
        return 1.0
    return float(bdtr(k_max, n, p))


def exact_violation_probs(
    n: int, alpha: float, epsilon: float, alpha_n: float
) -> tuple[float, float]:
    """Exact binomial values of the two calibration failure probabilities.

    With k the rank that :func:`empirical_quantile` takes at level
    ``alpha_n`` (the smallest k with k / n >= alpha_n, which is
    ceil(n * alpha_n) unless that product rounds across an integer), the
    returned pair is

        ( sum_{i=0}^{n-k} C(n,i) (1-alpha)^i alpha^(n-i) ,
          sum_{i=0}^{k-1} C(n,i) (alpha+epsilon)^i (1-alpha-epsilon)^(n-i) )

    i.e. the probabilities that the calibrated set captures mass below
    alpha, respectively above alpha + epsilon, for a continuous score
    distribution.  Each component is dominated by the matching entry of
    :func:`chernoff_violation_bounds`.
    """
    n, alpha, epsilon, alpha_n = _check_level_hypothesis(n, alpha, epsilon, alpha_n)
    k = _quantile_rank(n, alpha_n)
    under = _binomial_cdf(n - k, n, 1.0 - alpha)
    over = _binomial_cdf(k - 1, n, alpha + epsilon)
    return under, over
