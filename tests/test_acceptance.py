"""End-to-end acceptance checks for the package's headline guarantees.

Each test prints one summary line; run them visibly with

    pytest tests/test_acceptance.py -v -s

The heavier Monte-Carlo fixtures are module-scoped so the coverage
experiments run once and are shared.
"""

import contextlib
import io
import json
import math
import time
import warnings

import numpy as np
import pytest

from ballcover.calibration import (
    CalibrationSpec,
    UndersampledWarning,
    calibrate_radius,
    chernoff_violation_bounds,
    empirical_quantile,
    exact_violation_probs,
)
from ballcover.cli import main
from ballcover.experiments import ConsistencyConfig, run_consistency_experiment, run_role_of_m_study
from ballcover.geometry import Norm, UncertaintySet
from ballcover.mixtures import GaussianMixture, RandomStream, bundled_mixture, true_ball_mass
from ballcover.robust import (
    LinearRow,
    RobustLinearProgram,
    RobustRow,
    bundled_example,
    pessimize,
    solve,
)
from ballcover.simplex import LPStatus


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def consistency_report(epsilon):
    cfg = ConsistencyConfig(
        mixture=bundled_mixture("b"),
        num_centers=10,
        calibration=CalibrationSpec(alpha=0.9, epsilon=epsilon, delta=0.05),
        trials=200,
        coverage_samples=100_000,
        seed=0,
    )
    return run_consistency_experiment(cfg)


@pytest.fixture(scope="module")
def report_at_eps_005():
    spec = CalibrationSpec(alpha=0.9, epsilon=0.05, delta=0.05)
    assert spec.n_min == 4918
    return consistency_report(0.05)


@pytest.fixture(scope="module")
def eps_sweep(report_at_eps_005):
    reports = {0.05: report_at_eps_005}
    for epsilon, planned_n in ((0.025, 19280), (0.0125, 76335)):
        assert CalibrationSpec(alpha=0.9, epsilon=epsilon, delta=0.05).n_min == planned_n
        reports[epsilon] = consistency_report(epsilon)
    return reports


def test_criterion_1_sample_size_planning():
    start = time.perf_counter()
    rc, out = run_cli(["samplesize"])
    elapsed = time.perf_counter() - start
    payload = json.loads(out)
    ok = (
        rc == 0
        and abs(payload["lambda"] - 0.244966) <= 1e-5
        and payload["n_min"] == 4918
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"lambda={payload['lambda']:.6f} (target 0.244966 +- 1e-5), "
        f"n_min={payload['n_min']} (want 4918), {elapsed * 1e3:.0f} ms",
    )


def test_criterion_2_mass_consistency(report_at_eps_005):
    summary = report_at_eps_005.summary()
    fraction = summary["fraction_within"]
    p5 = summary["coverage_p5"]
    ok = fraction >= 0.92 and p5 >= 0.895
    report(
        2,
        ok,
        f"coverage in [0.90, 0.95] for {fraction:.3f} of 200 trials (need >= 0.92), "
        f"5th percentile {p5:.4f} (need >= 0.895)",
    )


def test_criterion_3_tolerance_shrinkage(eps_sweep):
    widths = [eps_sweep[e].summary()["middle90_width"] for e in (0.05, 0.025, 0.0125)]
    ok = widths[0] > widths[1] > widths[2]
    report(
        3,
        ok,
        "middle-90% coverage width over eps {0.05, 0.025, 0.0125}: "
        + " > ".join(f"{w:.5f}" for w in widths),
    )


def test_criterion_4_undershoot_rate_is_the_binomial_tail():
    n, alpha, epsilon, alpha_n = 400, 0.9, 0.05, 0.93
    spec = CalibrationSpec(alpha=alpha, epsilon=epsilon, delta=0.05, alpha_n=alpha_n)
    mix = GaussianMixture([1.0], [[0.0]], [[[1.0]]])
    centers = np.array([[0.0]])
    trials = 2_000
    undershoots = 0
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndersampledWarning)
        for t in range(trials):
            training = mix.sample(RandomStream(1402, t), n)
            uset = calibrate_radius(centers, Norm.L2, training, spec, strict=False)
            if true_ball_mass(mix, uset) < alpha:
                undershoots += 1
    elapsed = time.perf_counter() - start
    frequency = undershoots / trials
    exact = exact_violation_probs(n, alpha, epsilon, alpha_n)[0]
    standard_error = math.sqrt(exact * (1.0 - exact) / trials)
    ok_rate = abs(frequency - exact) <= 3.0 * standard_error

    dominated = True
    for n_grid in (10, 50, 100, 400):
        for pinned in (0.91, 0.93, 0.95):
            ex = exact_violation_probs(n_grid, 0.9, 0.099, pinned)[0]
            ch = chernoff_violation_bounds(n_grid, 0.9, 0.099, pinned)[0]
            dominated = dominated and ex <= ch
    ok = ok_rate and dominated and elapsed < 60.0
    report(
        4,
        ok,
        f"undershoot rate {frequency:.4f} vs exact {exact:.4f} "
        f"(|diff| <= {3.0 * standard_error:.4f}), exact <= Chernoff on all 12 "
        f"grid points: {dominated}, {elapsed:.1f} s",
    )


def test_criterion_5_chernoff_dominates_exact_everywhere():
    points = 0
    violations = 0
    for n in (2, 5, 10, 20, 50, 100, 200, 500):
        for alpha in (0.8, 0.9, 0.95):
            for epsilon in (0.01, 0.025, 0.04):
                for t in (0.25, 0.5, 0.75):
                    alpha_n = alpha + t * epsilon
                    exact = exact_violation_probs(n, alpha, epsilon, alpha_n)
                    chernoff = chernoff_violation_bounds(n, alpha, epsilon, alpha_n)
                    points += 1
                    if exact[0] > chernoff[0] or exact[1] > chernoff[1]:
                        violations += 1
    ok = points >= 200 and violations == 0
    report(5, ok, f"{violations} violations over {points} parameter points (need 0 over >= 200)")


def test_criterion_6_robust_lp_correctness():
    result = solve(bundled_example())
    target = 2.0 / (1.0 + 0.1 * math.sqrt(2.0))
    gap = abs(result.objective_value - target)
    ok_objective = result.status is LPStatus.OPTIMAL and gap <= 1e-6

    degenerate = RobustLinearProgram(
        objective=[1.0, 1.0],
        robust_rows=[
            RobustRow(UncertaintySet(centers=[[0.5, 0.5]], radius=0.0, norm=Norm.L2), 1.0)
        ],
        bounds=[(0.0, None), (0.0, None)],
    )
    scenario = solve(
        RobustLinearProgram(
            objective=[1.0, 1.0],
            deterministic_rows=[LinearRow([0.5, 0.5], 1.0)],
            bounds=[(0.0, None), (0.0, None)],
        )
    )
    r0_gap = abs(solve(degenerate).objective_value - scenario.objective_value)

    rng = np.random.default_rng(2024)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=100_000)
    radii = 0.1 * np.sqrt(rng.uniform(size=100_000))
    draws = np.column_stack(
        [0.5 + radii * np.cos(angles), 0.5 + radii * np.sin(angles)]
    )
    sampled_violation = float(np.max(draws @ result.x_star) - 1.0)
    worst_violation, _ = pessimize(bundled_example(), result.x_star)

    ok = (
        ok_objective
        and r0_gap <= 1e-9
        and sampled_violation <= 1e-7
        and worst_violation <= 1e-7
    )
    report(
        6,
        ok,
        f"objective gap {gap:.2e} (<= 1e-6), r=0 vs scenario LP gap {r0_gap:.2e} "
        f"(<= 1e-9), violation over 1e5 sampled points {sampled_violation:.2e} and "
        f"worst case {worst_violation:.2e} (<= 1e-7)",
    )


def test_criterion_7_more_centers_tighten_the_set():
    spec = CalibrationSpec(alpha=0.9, epsilon=0.05, delta=0.05)
    mix = bundled_mixture("fourmode")
    m_values = (1, 10, 100, 1000)
    radii = {m: [] for m in m_values}
    volumes = {m: [] for m in m_values}
    for replication in range(20):
        entries = run_role_of_m_study(
            mix, spec, m_values, seed=replication, raster_resolution=0
        )
        for entry in entries:
            radii[entry["m"]].append(entry["radius"])
            volumes[entry["m"]].append(entry["volume"])
    median_radius = [float(np.median(radii[m])) for m in m_values]
    median_volume = [float(np.median(volumes[m])) for m in m_values]
    decreasing = all(a > b for a, b in zip(median_radius, median_radius[1:]))
    ratio = median_volume[0] / median_volume[-1]
    ok = decreasing and ratio >= 2.0
    report(
        7,
        ok,
        "median radius over m in {1, 10, 100, 1000}: "
        + " > ".join(f"{r:.3f}" for r in median_radius)
        + f" (strictly decreasing: {decreasing}), volume ratio m=1 vs m=1000 "
        f"= {ratio:.1f}x (need >= 2x)",
    )


def test_criterion_8_manifest_reruns_are_byte_identical(tmp_path):
    level = ["--alpha", "0.8", "--eps", "0.15", "--delta", "0.1"]
    commands = {
        "calibrate": ["calibrate", *level, "--mixture", "peaked", "--m", "6", "--seed", "3"],
        "coverage": [
            "coverage",
            *level,
            "--mixture",
            "peaked",
            "--m",
            "4",
            "--trials",
            "6",
            "--mc-samples",
            "500",
            "--seed",
            "2",
        ],
        "raster": [
            "raster",
            *level,
            "--mixture",
            "fourmode",
            "--m",
            "30",
            "--seed",
            "5",
            "--resolution",
            "24",
        ],
        "solve": ["solve", "--bundled-example"],
    }
    identical = True
    compared = 0
    for name, argv in commands.items():
        first = tmp_path / f"{name}-first"
        second = tmp_path / f"{name}-second"
        rc1, out1 = run_cli([*argv, "--out-dir", str(first)])
        rc2, out2 = run_cli(
            [name, "--config", str(first / "manifest.json"), "--out-dir", str(second)]
        )
        identical = identical and rc1 == 0 and rc2 == 0 and out1 == out2
        for output in json.loads((first / "manifest.json").read_text())["outputs"]:
            identical = identical and (
                (first / output).read_bytes() == (second / output).read_bytes()
            )
            compared += 1
    rc1, plan1 = run_cli(["samplesize"])
    rc2, plan2 = run_cli(["samplesize"])
    identical = identical and rc1 == rc2 == 0 and plan1 == plan2
    report(
        8,
        identical,
        f"4 commands re-run from their manifests, {compared} files byte-identical, "
        "samplesize output stable",
    )


def test_criterion_9_quantile_matches_the_cdf_scan():
    rng = np.random.default_rng(123)
    instances = 1_000
    matches = 0
    for _ in range(instances):
        n = int(rng.integers(1, 201))
        values = rng.normal(size=n)
        if rng.random() < 0.5:
            values = np.round(values, 1)  # force ties
        if rng.random() < 0.5 and n > 1:
            gamma = float(int(rng.integers(1, n)) / n)
        else:
            gamma = float(rng.uniform(1e-9, 1.0 - 1e-12))
        got = empirical_quantile(values, gamma)
        ordered = np.sort(values)
        want = next(
            float(z) for i, z in enumerate(ordered) if (i + 1) / n >= gamma
        )
        if got == want:
            matches += 1
    ok = matches == instances
    report(9, ok, f"{matches}/{instances} exact matches against the scan oracle (n <= 200)")
