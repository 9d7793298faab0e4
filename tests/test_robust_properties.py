"""Property tests: the robust solver against an independent HiGHS epigraph LP."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from ballcover.geometry import Norm, UncertaintySet, member, worst_case_linear
from ballcover.robust import RobustLinearProgram, RobustRow, pessimize, solve
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
