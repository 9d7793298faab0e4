"""Dense two-phase tableau simplex for small inequality-form LPs.

Solves   maximize c.x   subject to   A x <= b,  x >= 0.

Each row of A (with its b), then each column, is first scaled to max |entry| 1.
Bland's smallest-index rule is used for both the entering and the leaving
choice, which rules out cycling on degenerate instances; the ratio test skips
entries below ``_PIVOT_TOL`` or ``_RATIO_TOL`` times the column's largest
entry, and 50 * (rows + columns) iterations cap numerical stalls.  Rows with
negative right-hand sides get artificial variables and a phase-1 feasibility
solve.  Everything is dense numpy; intended for desk-scale problems, not large
or sparse ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["LPStatus", "LPResult", "solve_lp"]

_PIVOT_TOL = 1e-9
_RATIO_TOL = 1e-8


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int
    ray: np.ndarray | None = None  # UNBOUNDED: d >= 0, A d <= 0 to pivot tolerance, c.d > 0


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    pivot_row = tableau[row] / tableau[row, col]
    tableau -= np.outer(tableau[:, col], pivot_row)
    tableau[row] = pivot_row
    basis[row] = col


def _bland_iterate(tableau, basis, candidate_cols, budget):
    """Run Bland pivots until optimal or unbounded, within an iteration budget.

    Returns (status, iterations_used, col); ITERATION_LIMIT means the budget
    ran out, and col is the entering column that found no pivot row (UNBOUNDED).
    """
    used = 0
    while True:
        objective_row = tableau[-1, candidate_cols]
        improving = np.where(objective_row < -_PIVOT_TOL)[0]
        if improving.size == 0:
            return LPStatus.OPTIMAL, used, None
        if used >= budget:
            return LPStatus.ITERATION_LIMIT, used, None
        col = int(candidate_cols[improving[0]])
        column = tableau[:-1, col]
        eligible = np.where(column > max(_PIVOT_TOL, _RATIO_TOL * column.max(initial=0.0)))[0]
        if eligible.size == 0:
            return LPStatus.UNBOUNDED, used, col
        ratios = tableau[eligible, -1] / column[eligible]
        best = float(ratios.min())
        ties = eligible[ratios <= best + 1e-12 * max(1.0, abs(best))]
        row = int(ties[np.argmin(basis[ties])])
        _pivot(tableau, basis, row, col)
        used += 1


def solve_lp(c, A, b, *, max_iterations: int | None = None) -> LPResult:
    """Maximize c.x subject to A x <= b and x >= 0.

    Raises ValueError for mismatched shapes, and for rows so badly scaled,
    even after equilibration, that phase 1 finds no pivot row.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.size == 0:
        A = A.reshape(0, c.size)
    if c.ndim != 1 or A.ndim != 2 or A.shape[1] != c.size or b.shape != (A.shape[0],):
        raise ValueError(f"incompatible shapes: c {c.shape}, A {A.shape}, b {b.shape}")
    m, n = A.shape
    # Equilibrate rows (with b), then columns; the LP is solved over col_scale * x.
    row_scale = np.where(A.any(axis=1), np.abs(A).max(axis=1, initial=0.0), 1.0)
    A, b = A / row_scale[:, np.newaxis], b / row_scale
    col_scale = np.where(A.any(axis=0), np.abs(A).max(axis=0, initial=0.0), 1.0)
    A = A / col_scale

    flip = b < 0
    rows = np.where(flip[:, np.newaxis], -A, A)
    rhs = np.where(flip, -b, b)
    art_rows = np.where(flip)[0]
    n_art = int(art_rows.size)
    n_cols = n + m + n_art
    if max_iterations is None:
        max_iterations = 50 * (m + n_cols)

    tableau = np.zeros((m + 1, n_cols + 1))
    tableau[:m, :n] = rows
    tableau[:m, n : n + m] = np.diag(np.where(flip, -1.0, 1.0))
    for j, i in enumerate(art_rows):
        tableau[i, n + m + j] = 1.0
    tableau[:m, -1] = rhs
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(n_art)
    structural_cols = np.arange(n + m)

    iterations = 0
    if n_art:
        # Phase 1: maximize -(sum of artificials); feasible iff it reaches 0.
        # Objective row starts as +1 on artificial columns (the z - c form
        # for cost -1), then basic artificial rows are priced out.
        tableau[-1, :] = 0.0
        tableau[-1, n + m : n + m + n_art] = 1.0
        for i in art_rows:
            tableau[-1, :] -= tableau[i, :]
        # Artificials never re-enter once they leave the basis.
        status, used, _ = _bland_iterate(tableau, basis, structural_cols, max_iterations)
        iterations += used
        if status is LPStatus.UNBOUNDED:
            # Phase 1 is bounded by 0: the entering column fell below tolerance.
            raise ValueError(
                "constraint rows are too badly scaled for the pivot tolerances "
                f"({_PIVOT_TOL:g} absolute, {_RATIO_TOL:g} relative); rescale the "
                "rows so their coefficients are of similar magnitude"
            )
        if status is LPStatus.ITERATION_LIMIT:
            return LPResult(LPStatus.ITERATION_LIMIT, None, None, iterations)
        if tableau[-1, -1] < -_PIVOT_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0))):
            return LPResult(LPStatus.INFEASIBLE, None, None, iterations)
        # Drive any artificial still basic (at value 0) out of the basis.
        # Its row's slack entry stays exactly -1, so a candidate always exists.
        for i in range(m):
            if basis[i] < n + m:
                continue
            pivot_candidates = np.where(np.abs(tableau[i, : n + m]) > _PIVOT_TOL)[0]
            _pivot(tableau, basis, i, int(pivot_candidates[0]))
        # Drop artificial columns entirely.
        tableau = np.hstack([tableau[:, : n + m], tableau[:, -1:]])

    # Phase 2 objective row: start from -c and price out the basic columns.
    cost = np.zeros(n + m)
    cost[:n] = c / col_scale
    tableau[-1, :-1] = -cost
    tableau[-1, -1] = 0.0
    for i in range(m):
        coeff = cost[basis[i]]
        if coeff != 0.0:
            tableau[-1, :] += coeff * tableau[i, :]
    status, used, col = _bland_iterate(
        tableau, basis, structural_cols, max_iterations - iterations
    )
    iterations += used
    full = np.zeros(n + m)
    if status is LPStatus.UNBOUNDED:
        full[basis], full[col] = -tableau[:m, col], 1.0
        return LPResult(status, None, None, iterations, full[:n] / col_scale)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, None, None, iterations)

    full[basis] = tableau[:m, -1]
    x = np.where(np.abs(full[:n]) < 1e-12, 0.0, full[:n])
    x = np.maximum(x, 0.0) / col_scale
    return LPResult(LPStatus.OPTIMAL, x, float(c @ x), iterations)
