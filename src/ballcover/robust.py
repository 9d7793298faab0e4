"""Robust linear programs over union-of-balls uncertainty sets.

A model maximizes ``c . x`` subject to ordinary rows ``a . x <= b`` and
robust rows requiring ``x . u <= b`` for every ``u`` in an
:class:`~ballcover.geometry.UncertaintySet`.  Each robust row is
equivalent to one deterministic constraint per ball center,

    x . center_i + radius * ||x||_*  <=  b,

where ``||.||_*`` is the dual of the ball norm.  The solver writes every
such constraint as the same LP row ``center_i . x + radius * t <= b``,
where ``t`` is one epigraph column per ball norm in use, shared by all
rows of that norm, with ``t >= ||x||_*``.  For L1 and LINF balls the dual
norm is polyhedral and the epigraph is exact, so the model is one LP.
For L2 balls the cone ``||x||_2 <= t`` is outer-approximated by gradient
cuts (Kelley's cutting-plane method) added one per round around the same
LP core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    DimensionError,
    Norm,
    UncertaintySet,
    dual_achieving_direction,
    worst_case_linear,
    worst_case_point,
)
from .simplex import LPStatus, solve_lp

__all__ = [
    "ModelError",
    "LinearRow",
    "RobustRow",
    "RobustLinearProgram",
    "SolveReport",
    "solve",
    "pessimize",
    "bundled_example",
]

FEASIBILITY_TOL = 1e-7
MAX_CUTS = 500


class ModelError(ValueError):
    """Raised when the pieces of a robust LP do not fit together."""


def _row_vector(a, length: int | None, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ModelError(f"{what} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{what} must be finite")
    if length is not None and arr.size != length:
        raise ModelError(f"{what} has {arr.size} entries, expected {length}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _finite_scalar(b, what: str) -> float:
    value = float(b)
    if not math.isfinite(value):
        raise ModelError(f"{what} must be finite")
    return value


@dataclass(frozen=True)
class LinearRow:
    """One deterministic constraint ``a . x <= b``."""

    a: np.ndarray
    b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _row_vector(self.a, None, "row coefficients"))
        object.__setattr__(self, "b", _finite_scalar(self.b, "row bound"))


@dataclass(frozen=True)
class RobustRow:
    """One robust constraint ``x . u <= b`` for all u in the set."""

    uncertainty_set: UncertaintySet
    b: float

    def __post_init__(self) -> None:
        if not isinstance(self.uncertainty_set, UncertaintySet):
            raise ModelError("robust row needs an UncertaintySet")
        object.__setattr__(self, "b", _finite_scalar(self.b, "row bound"))


def _normalize_bounds(bounds, dim: int):
    if bounds is None:
        return None
    pairs = list(bounds)
    if len(pairs) != dim:
        raise ModelError(f"bounds has {len(pairs)} pairs, expected {dim}")
    out = []
    for j, pair in enumerate(pairs):
        lo, hi = pair
        for name, value in (("lower", lo), ("upper", hi)):
            if value is not None and not math.isfinite(float(value)):
                raise ModelError(f"{name} bound for variable {j} must be finite or None")
        out.append((None if lo is None else float(lo), None if hi is None else float(hi)))
    return tuple(out)


@dataclass(frozen=True)
class RobustLinearProgram:
    """Maximize ``objective . x`` under deterministic and robust rows.

    ``bounds`` is None (all variables free) or one ``(lower, upper)`` pair
    per variable with None marking an absent side.
    """

    objective: np.ndarray
    deterministic_rows: tuple[LinearRow, ...] = ()
    robust_rows: tuple[RobustRow, ...] = ()
    bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self) -> None:
        obj = _row_vector(self.objective, None, "objective")
        object.__setattr__(self, "objective", obj)
        det = tuple(self.deterministic_rows)
        for row in det:
            if not isinstance(row, LinearRow):
                raise ModelError(f"deterministic row must be a LinearRow, not {row!r}")
            if row.a.size != obj.size:
                raise ModelError(
                    f"deterministic row is {row.a.size}-D, model is {obj.size}-D"
                )
        object.__setattr__(self, "deterministic_rows", det)
        rob = tuple(self.robust_rows)
        for row in rob:
            if not isinstance(row, RobustRow):
                raise ModelError(f"robust row must be a RobustRow, not {row!r}")
            if row.uncertainty_set.dimension != obj.size:
                raise ModelError(
                    f"robust row set is {row.uncertainty_set.dimension}-D, "
                    f"model is {obj.size}-D"
                )
        object.__setattr__(self, "robust_rows", rob)
        object.__setattr__(self, "bounds", _normalize_bounds(self.bounds, obj.size))

    @property
    def num_variables(self) -> int:
        return int(self.objective.size)

    def to_dict(self) -> dict:
        return {
            "objective": [float(v) for v in self.objective],
            "rows": [
                {"a": [float(v) for v in row.a], "b": row.b}
                for row in self.deterministic_rows
            ],
            "robust_rows": [
                {"set": row.uncertainty_set.to_dict(), "b": row.b}
                for row in self.robust_rows
            ],
            "bounds": None
            if self.bounds is None
            else [[lo, hi] for lo, hi in self.bounds],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RobustLinearProgram":
        """Build a model from its JSON form; a malformed one raises ModelError."""
        if not isinstance(data, dict):
            raise ModelError("model must be a JSON object")
        try:
            bounds = data.get("bounds")
            return cls(
                objective=data["objective"],
                deterministic_rows=tuple(
                    LinearRow(row["a"], row["b"]) for row in data.get("rows", ())
                ),
                robust_rows=tuple(
                    RobustRow(UncertaintySet.from_dict(row["set"]), row["b"])
                    for row in data.get("robust_rows", ())
                ),
                bounds=None if bounds is None else [tuple(pair) for pair in bounds],
            )
        except KeyError as exc:
            raise ModelError(f"model is missing key {exc}") from exc
        except TypeError as exc:
            raise ModelError(f"malformed model: {exc}") from exc


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a robust (or plain) LP solve.

    ``max_violation`` is the largest constraint residual at ``x_star``
    (deterministic rows and robust worst cases alike; negative values mean
    slack) and is 0.0 when no point is reported.  ``cuts_added`` counts
    the cuts added to the L2 cone, feasibility solve included; it is 0 for
    models without an L2 ball of positive radius.  The stopping tolerance
    ``FEASIBILITY_TOL`` and the cut cap that governed the solve are
    recorded for reproducibility.
    """

    status: LPStatus
    x_star: np.ndarray | None
    objective_value: float | None
    cuts_added: int
    max_violation: float
    feasibility_tol: float = FEASIBILITY_TOL
    max_cuts: int = MAX_CUTS

    def to_dict(self) -> dict:
        return {
            "status": self.status.value,
            "x_star": None if self.x_star is None else [float(v) for v in self.x_star],
            "objective_value": self.objective_value,
            "cuts_added": self.cuts_added,
            "max_violation": self.max_violation,
            "feasibility_tol": self.feasibility_tol,
            "max_cuts": self.max_cuts,
        }


def _substitution(bounds, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lift, shift)`` with ``x = lift @ y + shift`` and ``y >= 0``.

    A free variable takes two columns, ``x_j = y_p - y_q``; any other
    takes one, measured up from its lower bound or, with only an upper
    bound, down from that.  The upper side of a two-sided bound is left to
    an ordinary row ``x_j <= upper`` of :class:`_Relaxation`.
    """
    columns: list[tuple[int, float]] = []
    shift = np.zeros(dim)
    for j in range(dim):
        lo, hi = (None, None) if bounds is None else bounds[j]
        if lo is None and hi is None:
            columns += [(j, 1.0), (j, -1.0)]
        elif lo is None:
            shift[j] = hi
            columns.append((j, -1.0))
        else:
            shift[j] = lo
            columns.append((j, 1.0))
    lift = np.zeros((dim, len(columns)))
    for p, (j, sign) in enumerate(columns):
        lift[j, p] = sign
    return lift, shift


class _Relaxation:
    """The LP that :func:`solve` grows, over ``[y | t per norm in use | s]``.

    ``x = lift @ y + shift`` (see :func:`_substitution`) and ``t_col`` maps
    each ball norm in use to its column ``t``.  The base rows are, in order:
    the deterministic rows, ``x_j <= upper`` for each two-sided bound, the
    epigraph rows, and one row ``center . x + radius * t <= b`` per robust
    center.  The L1 epigraph (dual: max norm) is ``t >= |x_j|``; the LINF
    epigraph (dual: sum norm) is ``s_j >= |x_j|`` and ``sum(s) <= t``.  The
    L2 epigraph starts with no rows; the cuts of :func:`solve` build it, so
    an L2 relaxation may be unbounded.
    """

    def __init__(self, rlp: RobustLinearProgram, lift: np.ndarray, shift: np.ndarray):
        dim = rlp.num_variables
        norms = [
            norm
            for norm in Norm
            if any(row.uncertainty_set.norm is norm for row in rlp.robust_rows)
        ]
        self.lift, self.shift = lift, shift
        self.t_col = {norm: lift.shape[1] + k for k, norm in enumerate(norms)}
        s_start = lift.shape[1] + len(norms)
        self.width = s_start + (dim if Norm.LINF in norms else 0)
        self.rows: list[np.ndarray] = []
        self.rhs: list[float] = []
        s_cols = range(s_start, self.width)
        identity = np.eye(dim)

        for row in rlp.deterministic_rows:
            self.add(row.a, row.b)
        for j, (lo, hi) in enumerate(rlp.bounds or ()):
            if lo is not None and hi is not None:
                self.add(identity[j], hi)

        # |x_j| <= t for the L1 epigraph and |x_j| <= s_j for the LINF one.
        abs_bounds = [(j, self.t_col[Norm.L1]) for j in range(dim)] if Norm.L1 in norms else []
        abs_bounds += list(enumerate(s_cols))
        for j, col in abs_bounds:
            self.add(identity[j], 0.0, aux=[(col, -1.0)])
            self.add(-identity[j], 0.0, aux=[(col, -1.0)])
        if Norm.LINF in norms:
            self.add(
                np.zeros(dim), 0.0,
                aux=[(col, 1.0) for col in s_cols] + [(self.t_col[Norm.LINF], -1.0)],
            )

        for row in rlp.robust_rows:
            uset = row.uncertainty_set
            for center in uset.centers:
                self.add(center, row.b, aux=[(self.t_col[uset.norm], uset.radius)])

    def add(self, vec: np.ndarray, bound: float, aux=()) -> None:
        """Append ``vec . x + sum(coef * column for column, coef in aux) <= bound``.

        Each row keeps its own dot with the shift: one product for all
        rows would sum in another order and move right-hand sides by an ulp.
        """
        row = np.zeros(self.width)
        row[: self.lift.shape[1]] = vec @ self.lift
        for col, coef in aux:
            row[col] = coef
        self.rows.append(row)
        self.rhs.append(bound - float(vec @ self.shift))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows as an ``(rows, width)`` matrix and their right-hand sides."""
        return np.array(self.rows).reshape(len(self.rows), self.width), np.array(self.rhs)


def _certificate(rlp: RobustLinearProgram, x: np.ndarray) -> float:
    residuals = [float(row.a @ x) - row.b for row in rlp.deterministic_rows]
    residuals += [
        worst_case_linear(row.uncertainty_set, x) - row.b for row in rlp.robust_rows
    ]
    return max(residuals, default=0.0)


def solve(rlp: RobustLinearProgram, *, max_cuts: int = MAX_CUTS) -> SolveReport:
    """Solve a robust LP and certify the returned point.

    All rows go into one LP, each robust center as
    ``center . x + radius * t <= b`` over the epigraph column ``t`` of its
    ball norm; the L1 and LINF epigraphs are exact.  While some L2 row of
    positive radius has a worst case above its bound by more than
    ``FEASIBILITY_TOL`` at the iterate ``x_hat``, each round adds the one
    gradient cut ``(x_hat / ||x_hat||_2) . x <= t`` to the L2 cone and
    solves again, for at most ``max_cuts`` rounds in all.  An unbounded
    relaxation's ray ``(ray_x, ray_t)`` is cut the same way unless
    ``||ray_x||_2 <= ray_t * (1 + FEASIBILITY_TOL)``; then the model is
    UNBOUNDED if a zero-objective solve finds it feasible.
    """
    dim = rlp.num_variables
    cone_rows = [
        row
        for row in rlp.robust_rows
        if row.uncertainty_set.norm is Norm.L2 and row.uncertainty_set.radius > 0.0
    ]
    lift, shift = _substitution(rlp.bounds, dim)
    lp = _Relaxation(rlp, lift, shift)
    cost = np.zeros(lp.width)
    cost[: lift.shape[1]] = rlp.objective @ lift
    cuts_added = 0

    while True:
        result = solve_lp(cost, *lp.arrays())
        status, x_hat = result.status, None
        if status is LPStatus.UNBOUNDED and cone_rows:
            point = lift @ result.ray[: lift.shape[1]]
            ray_t = result.ray[lp.t_col[Norm.L2]]
            if np.linalg.norm(point) <= ray_t * (1.0 + FEASIBILITY_TOL):
                zero = replace(rlp, objective=np.zeros(dim))
                inner = solve(zero, max_cuts=max_cuts - cuts_added)
                cuts_added += inner.cuts_added
                status = LPStatus.UNBOUNDED if inner.status is LPStatus.OPTIMAL else inner.status
                break
        elif status is not LPStatus.OPTIMAL:
            break
        else:
            x_hat = point = lift @ result.x[: lift.shape[1]] + shift
            violation = max(
                (worst_case_linear(row.uncertainty_set, x_hat) - row.b for row in cone_rows),
                default=-math.inf,
            )
            if violation <= FEASIBILITY_TOL:
                break
        if cuts_added >= max_cuts:
            status = LPStatus.ITERATION_LIMIT
            break
        lp.add(dual_achieving_direction(point, Norm.L2), 0.0, aux=[(lp.t_col[Norm.L2], -1.0)])
        cuts_added += 1

    if x_hat is None:
        return SolveReport(status, None, None, cuts_added, 0.0, max_cuts=max_cuts)
    objective = float(rlp.objective @ x_hat)
    return SolveReport(
        status, x_hat, objective, cuts_added, _certificate(rlp, x_hat), max_cuts=max_cuts
    )


def pessimize(
    rlp: RobustLinearProgram, x
) -> tuple[float, tuple[int, np.ndarray] | None]:
    """Worst violation over the robust rows at ``x`` and a witness point.

    Returns ``(max_violation, (row_index, u))`` where ``u`` lies in the
    offending row's set and attains its worst case; with no robust rows
    the result is ``(-inf, None)``.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size != rlp.num_variables:
        raise DimensionError(
            f"x has shape {x.shape}, expected ({rlp.num_variables},)"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if not rlp.robust_rows:
        return float("-inf"), None

    best_violation = float("-inf")
    best_index = 0
    for index, row in enumerate(rlp.robust_rows):
        violation = worst_case_linear(row.uncertainty_set, x) - row.b
        if violation > best_violation:
            best_violation = violation
            best_index = index

    witness = worst_case_point(rlp.robust_rows[best_index].uncertainty_set, x)
    return best_violation, (best_index, witness)


def bundled_example() -> RobustLinearProgram:
    """Two-variable demo: maximize x1 + x2 against one L2 ball row."""
    uset = UncertaintySet(centers=[[0.5, 0.5]], radius=0.1, norm=Norm.L2)
    return RobustLinearProgram(
        objective=[1.0, 1.0],
        robust_rows=(RobustRow(uset, 1.0),),
        bounds=[(0.0, None), (0.0, None)],
    )
