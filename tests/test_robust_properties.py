"""Property tests: the robust solver against an independent HiGHS epigraph LP."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ballcover.geometry import Norm, UncertaintySet, member, worst_case_linear
from ballcover.robust import LinearRow, RobustLinearProgram, RobustRow, pessimize, solve
from ballcover.simplex import LPStatus

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, database=None)


@st.composite
def polyhedral_models(draw):
    """Box-bounded models with one or two L1/LINF robust rows, feasible at 0."""
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    norms = draw(
        st.lists(st.sampled_from([Norm.L1, Norm.LINF]), min_size=1, max_size=2)
    )
    rng = np.random.default_rng(seed)
    rows = tuple(
        RobustRow(
            UncertaintySet(
                rng.normal(size=(int(rng.integers(1, 6)), d)),
                float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
                norm,
            ),
            float(rng.uniform(0.5, 3.0)),
        )
        for norm in norms
    )
    bounds = [
        (float(rng.uniform(-2.0, 0.0)), float(rng.uniform(0.5, 3.0))) for _ in range(d)
    ]
    return RobustLinearProgram(
        objective=rng.uniform(-1.0, 1.0, d), robust_rows=rows, bounds=bounds
    )


@st.composite
def models_with_one_range(draw):
    """Models with one L1/L2/LINF row and one two-sided variable j; every
    other variable is free or bounded on one side.  Returns (model, j)."""
    d = draw(st.integers(1, 4))
    j = draw(st.integers(0, d - 1))
    norm = draw(st.sampled_from(list(Norm)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    uset = UncertaintySet(
        rng.normal(size=(int(rng.integers(1, 5)), d)), float(rng.uniform(0.0, 1.0)), norm
    )
    one_sided = [(None, None), (float(rng.uniform(-2.0, 0.0)), None), (None, 2.0)]
    bounds = [one_sided[int(rng.integers(3))] for _ in range(d)]
    lo = float(rng.uniform(-2.0, 0.5))
    bounds[j] = (lo, lo + float(rng.uniform(0.0, 3.0)))
    model = RobustLinearProgram(
        objective=rng.uniform(-1.0, 1.0, d),
        deterministic_rows=(LinearRow(rng.normal(size=d), float(rng.uniform(0.5, 3.0))),),
        robust_rows=(RobustRow(uset, float(rng.uniform(0.5, 3.0))),),
        bounds=bounds,
    )
    return model, j


def highs_objective(model):
    """Optimum over [x | per-row auxiliaries]: an L1 row bounds ||x||_inf by
    one t, a LINF row bounds each |x_j| by its own s_j and sums them."""
    d = model.num_variables
    blocks = [
        1 if row.uncertainty_set.norm is Norm.L1 else d for row in model.robust_rows
    ]
    n = d + sum(blocks)
    a_ub, b_ub = [], []
    col = d
    for row, width in zip(model.robust_rows, blocks):
        uset = row.uncertainty_set
        for j in range(d):
            for sign in (1.0, -1.0):
                line = np.zeros(n)
                line[j] = sign
                line[col + (j if uset.norm is Norm.LINF else 0)] = -1.0
                a_ub.append(line)
                b_ub.append(0.0)
        for center in uset.centers:
            line = np.zeros(n)
            line[:d] = center
            line[col : col + width] = uset.radius
            a_ub.append(line)
            b_ub.append(row.b)
        col += width
    result = linprog(
        -np.concatenate([model.objective, np.zeros(n - d)]),
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        bounds=list(model.bounds) + [(0.0, None)] * (n - d),
        method="highs",
    )
    assert result.status == 0, result.message
    return -float(result.fun)


@PROPERTY_SETTINGS
@given(polyhedral_models())
def test_polyhedral_solve_matches_highs(model):
    report = solve(model)
    assert report.status is LPStatus.OPTIMAL
    assert report.cuts_added == 0
    assert report.max_violation <= report.feasibility_tol
    expected = highs_objective(model)
    assert abs(report.objective_value - expected) <= 1e-7 * max(1.0, abs(expected))


@PROPERTY_SETTINGS
@given(polyhedral_models(), st.sampled_from(list(Norm)), st.integers(0, 2**32 - 1))
def test_pessimize_witness_is_a_member(model, norm, seed):
    row = model.robust_rows[0]
    uset = UncertaintySet(row.uncertainty_set.centers, row.uncertainty_set.radius, norm)
    variant = RobustLinearProgram(
        objective=model.objective, robust_rows=(RobustRow(uset, row.b),)
    )
    x = np.random.default_rng(seed).normal(size=model.num_variables)
    violation, (index, witness) = pessimize(variant, x)
    assert index == 0
    assert member(uset, witness)
    worst = worst_case_linear(uset, x)
    assert abs(violation - (worst - row.b)) <= 1e-12 * max(1.0, abs(worst))
    assert abs(float(witness @ x) - worst) <= 1e-9 * max(1.0, abs(worst))


@PROPERTY_SETTINGS
@given(models_with_one_range())
def test_two_sided_bound_solves_as_an_upper_row(case):
    # The upper side of a two-sided bound is the row x_j <= hi placed right
    # after the deterministic rows, so writing it as the last deterministic
    # row must not change a bit of the solve.  Only the certificate differs:
    # max_violation scores deterministic rows, and now also x_j <= hi.
    model, j = case
    lo, hi = model.bounds[j]
    bounds = list(model.bounds)
    bounds[j] = (lo, None)
    variant = RobustLinearProgram(
        objective=model.objective,
        deterministic_rows=model.deterministic_rows
        + (LinearRow(np.eye(model.num_variables)[j], hi),),
        robust_rows=model.robust_rows,
        bounds=bounds,
    )
    report, expected = solve(model), solve(variant)
    got = report.to_dict()
    if report.x_star is not None:
        assert report.x_star.tobytes() == expected.x_star.tobytes()
        got["max_violation"] = max(report.max_violation, float(report.x_star[j]) - hi)
    assert got == expected.to_dict()
