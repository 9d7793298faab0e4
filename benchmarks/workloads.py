"""The benchmark's workloads: inputs built from a seed, one op, output checks.

Each workload is a closed loop in one process: :meth:`op` runs one call
into ballcover and returns whether it succeeded; run.py times it.
:meth:`check` runs after the timed loop and raises :class:`CheckFailed` on
any wrong output.  Calls go through module attributes (``experiments.
run_role_of_m_study(...)``) so that the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ballcover import calibration, cli, experiments, geometry, mixtures, robust
from ballcover.calibration import CalibrationSpec
from ballcover.geometry import Norm, UncertaintySet
from ballcover.robust import LinearRow, RobustLinearProgram, RobustRow
from ballcover.simplex import LPStatus

ROOT = Path(__file__).resolve().parent.parent
SPEC = CalibrationSpec(alpha=0.9, epsilon=0.05, delta=0.05)
NORMS = (Norm.L1, Norm.L2, Norm.LINF)


class CheckFailed(RuntimeError):
    """An output of the program is wrong."""


def check(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def op_seed(seed: int, i: int) -> int:
    """A distinct program seed for op ``i`` of the run with benchmark seed ``seed``."""
    return seed * 1_000_003 + i


def quantile_rank(n: int, gamma: float) -> int:
    """Rank k of the level-gamma empirical quantile, k = min{k : k/n >= gamma}."""
    k = math.ceil(n * gamma)
    while k > 1 and (k - 1) / n >= gamma:
        k -= 1
    while k / n < gamma:
        k += 1
    return k


def reference_scores(centers: np.ndarray, norm: Norm, points: np.ndarray) -> np.ndarray:
    """Brute-force nearest-center distances, one center at a time."""
    best = np.full(points.shape[0], np.inf)
    for center in centers:
        diff = np.abs(points - center)
        if norm is Norm.L1:
            dist = diff.sum(axis=1)
        elif norm is Norm.L2:
            dist = np.sqrt(np.square(diff).sum(axis=1))
        else:
            dist = diff.max(axis=1)
        np.minimum(best, dist, out=best)
    return best


class Consistency:
    """One mass-consistency trial per op: peaked mixture, m=10, L2, new seed each op."""

    name = "consistency"
    cycle = 1
    warmup = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.mixture = mixtures.bundled_mixture("peaked")
        self.draws = 5_000 if tiny else 100_000
        self.coverages: list[float] = []

    def op(self, i: int) -> bool:
        cfg = experiments.ConsistencyConfig(
            mixture=self.mixture,
            num_centers=10,
            calibration=SPEC,
            trials=1,
            coverage_samples=self.draws,
            seed=op_seed(self.seed, i),
            norm=Norm.L2,
        )
        report = experiments.run_consistency_experiment(cfg)
        self.coverages.append(float(report.coverages[0]))
        return True

    def check(self) -> None:
        lo, hi = SPEC.alpha, SPEC.alpha + SPEC.epsilon
        inside = sum(lo <= c <= hi for c in self.coverages) / len(self.coverages)
        check(
            inside >= 0.92,
            f"consistency: {inside:.3f} of {len(self.coverages)} trials covered mass in "
            f"[{lo}, {hi}], need >= 0.92",
        )


class ManyCenters:
    """One role-of-m entry at m=1000 on fourmode per op; ops cycle L1, L2, Linf.

    4096 volume draws and a 64x64 raster (the study's default resolution)
    keep an op near one second, so a run holds enough ops for a steady
    median; the kernel at m=1000 is still nearly all of the work.
    """

    name = "many_centers"
    cycle = 3

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.mixture = mixtures.bundled_mixture("fourmode")
        self.m = 50 if tiny else 1000
        self.volume_samples = 1_024 if tiny else 4_096
        self.resolution = 16 if tiny else 64
        self.results: list[tuple[int, Norm, dict]] = []

    def op(self, i: int) -> bool:
        norm = NORMS[i % 3]
        seed = op_seed(self.seed, i)
        (entry,) = experiments.run_role_of_m_study(
            self.mixture,
            SPEC,
            [self.m],
            norm=norm,
            seed=seed,
            volume_samples=self.volume_samples,
            raster_resolution=self.resolution,
        )
        self.results.append((seed, norm, entry))
        return True

    def check(self) -> None:
        # The study draws its shape sample from stream 0 and its training
        # sample from stream 1 for the first (only) m value.  Every op's
        # radius is checked; the membership invariant once per norm.
        for index, (seed, norm, entry) in enumerate(self.results):
            uset = entry["set"]
            shape = self.mixture.sample(mixtures.RandomStream(seed, 0), self.m)
            training = self.mixture.sample(mixtures.RandomStream(seed, 1), SPEC.n_min)
            check(np.array_equal(uset.centers, shape), "many_centers: centers differ from shape")
            k = quantile_rank(len(training), SPEC.alpha_n)
            expected = float(np.sort(reference_scores(shape, norm, training))[k - 1])
            check(
                abs(uset.radius - expected) <= 1e-12 * max(1.0, expected),
                f"many_centers: radius {uset.radius!r} != brute force {expected!r} ({norm.value})",
            )
            raster = entry["raster"]
            check(
                raster.shape == (self.resolution, self.resolution) and 0 < raster.mean() < 1,
                "many_centers: raster is empty or full",
            )
            check(entry["volume"] > 0, "many_centers: zero volume")
            if index >= len(NORMS):
                continue
            inside = geometry.shape_values(uset.centers, norm, training) <= uset.radius
            check(
                bool(np.all(geometry.member_batch(uset, training[inside]))),
                f"many_centers: a training point with score <= radius is outside ({norm.value})",
            )
            check(int(inside.sum()) >= k, f"many_centers: fewer than k={k} training points inside")


EXACT_REPLICAS = 3


def robust_models(seed: int, d: int, m: int, replica: int, kinds) -> list:
    """(kind, model) pairs: ``max c.x`` over x >= 0, one budget row, one robust row.

    The uncertain row vector u follows a 3-component Gaussian mixture whose
    parameters are drawn from the seed.  One shape sample and one training
    sample of n_min points are shared by all ``kinds``; each norm kind gets
    the set calibrated in that norm, ``scenario`` the centers at radius 0.
    """
    rng = np.random.default_rng([seed, d, m, replica])
    means = rng.normal(0.0, 1.0, (3, d))
    factors = rng.normal(0.0, 1.0, (3, d, d)) / math.sqrt(d)
    covariances = 0.1 * factors @ factors.transpose(0, 2, 1) + 0.05 * np.eye(d)
    weights = rng.dirichlet(np.ones(3))
    mixture = mixtures.GaussianMixture(weights / weights.sum(), means, covariances)
    stream_seed = int(rng.integers(2**62))
    shape = mixture.sample(mixtures.RandomStream(stream_seed, 0), m)
    training = mixture.sample(mixtures.RandomStream(stream_seed, 1), SPEC.n_min)
    objective = rng.uniform(0.5, 1.5, d)
    budget = LinearRow(np.ones(d), 10.0)
    bound = float(rng.uniform(6.0, 8.0))
    models = []
    for kind in kinds:
        if kind == "scenario":
            uset = UncertaintySet(shape, 0.0, Norm.L2)
        else:
            uset = calibration.calibrate_radius(shape, Norm(kind), training, SPEC)
        models.append((kind, RobustLinearProgram(
            objective=objective,
            deterministic_rows=(budget,),
            robust_rows=(RobustRow(uset, bound),),
            bounds=[(0.0, None)] * d,
        )))
    return models


def epigraph_objective(model: RobustLinearProgram) -> float:
    """Optimum of an L1, Linf or radius-0 model via its own epigraph LP and HiGHS.

    Variables are [x, t] with x >= 0 and t >= ||x||_dual written as linear
    rows: t >= x_j for an L1 ball (dual Linf), t >= sum(x) for a Linf ball
    (dual L1; x >= 0 makes the sum norm linear).
    """
    from scipy.optimize import linprog

    (row,) = model.robust_rows
    uset = row.uncertainty_set
    d = model.num_variables
    budget = model.deterministic_rows[0]
    rows = [np.append(budget.a, 0.0)]
    rhs = [budget.b]
    for center in uset.centers:
        rows.append(np.append(center, uset.radius))
        rhs.append(row.b)
    if uset.norm is Norm.L1:
        rows.extend(np.append(np.eye(d)[j], -1.0) for j in range(d))
    else:
        rows.append(np.append(np.ones(d), -1.0))
    rhs.extend([0.0] * (len(rows) - len(rhs)))
    result = linprog(
        -np.append(model.objective, 0.0),
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(0.0, None)] * (d + 1),
        method="highs",
    )
    check(result.status == 0, f"robust_lp: reference LP did not solve: {result.message}")
    return -float(result.fun)


class RobustLP:
    """One robust.solve per op over a pool of models from calibrated sets.

    For every d in {5, 10, 20} and m in {25, 50, 100} the pool holds
    EXACT_REPLICAS independent draws of the L1, Linf and scenario models;
    for every d it also holds one L2 model, with m drawn from the seed.
    Ops replay the pool in a seeded order with the L2 models spread evenly
    through it, and a run ends on a whole pass, so every run solves every
    model and holds the same share of L2 solves.
    """

    name = "robust_lp"

    def __init__(self, seed: int, tiny: bool) -> None:
        dims = (2, 3) if tiny else (5, 10, 20)
        sizes = (4, 6) if tiny else (25, 50, 100)
        rng = np.random.default_rng(seed)
        exact, cuts = [], []
        for d in dims:
            cut_m = sizes[rng.integers(len(sizes))]
            for m in sizes:
                for replica in range(EXACT_REPLICAS):
                    kinds = ["l1", "linf", "scenario"]
                    if (m, replica) == (cut_m, 0):
                        kinds.append("l2")
                    for kind, model in robust_models(seed, d, m, replica, kinds):
                        (cuts if kind == "l2" else exact).append(((d, m, kind), model))
        cuts = [cuts[j] for j in rng.permutation(len(cuts))]
        exact = [exact[j] for j in rng.permutation(len(exact))]
        block = len(exact) // len(cuts)
        order = []
        for k, entry in enumerate(cuts):
            order += exact[k * block : (k + 1) * block] + [entry]
        self.cells = [cell for cell, _ in order]
        self.models = [model for _, model in order]
        self.cycle = len(self.models)
        self.reports: dict[int, robust.SolveReport] = {}
        self.latencies: dict[str, list[float]] = {"exact": [], "cuts": []}

    def op(self, i: int) -> bool:
        j = i % self.cycle
        start = time.perf_counter()
        report = robust.solve(self.models[j])
        elapsed = time.perf_counter() - start
        self.latencies["cuts" if self.cells[j][2] == "l2" else "exact"].append(elapsed)
        self.reports[j] = report
        return report.status is LPStatus.OPTIMAL

    def check(self) -> None:
        for j, report in self.reports.items():
            d, m, kind = self.cells[j]
            model = self.models[j]
            where = f"robust_lp d={d} m={m} {kind}"
            if report.status is not LPStatus.OPTIMAL:
                # Running out of cuts on an L2 model is a failed op, not a
                # wrong answer; any other non-optimal status is wrong here,
                # since x = 0 is feasible and the budget row bounds x.
                check(
                    kind == "l2" and report.status is LPStatus.ITERATION_LIMIT,
                    f"{where}: solve ended {report.status.value}",
                )
                continue
            violation, _ = robust.pessimize(model, report.x_star)
            check(
                violation <= report.feasibility_tol,
                f"{where}: pessimize violation {violation:.3g} > {report.feasibility_tol:.3g}",
            )
            if kind != "l2":
                expected = epigraph_objective(model)
                check(
                    abs(report.objective_value - expected) <= 1e-6 * max(1.0, abs(expected)),
                    f"{where}: objective {report.objective_value!r} != HiGHS {expected!r}",
                )
                continue
            (row,) = model.robust_rows
            uset = row.uncertainty_set
            bounds = {}
            for norm in (Norm.L1, Norm.LINF):
                variant = RobustLinearProgram(
                    objective=model.objective,
                    deterministic_rows=model.deterministic_rows,
                    robust_rows=(
                        RobustRow(UncertaintySet(uset.centers, uset.radius, norm), row.b),
                    ),
                    bounds=model.bounds,
                )
                bounds[norm] = epigraph_objective(variant)
            slack = 1e-6 * max(1.0, abs(report.objective_value))
            check(
                bounds[Norm.LINF] - slack <= report.objective_value <= bounds[Norm.L1] + slack,
                f"{where}: L2 objective {report.objective_value!r} outside "
                f"[Linf {bounds[Norm.LINF]!r}, L1 {bounds[Norm.L1]!r}]",
            )

    def extra_metrics(self) -> dict:
        return {
            "solve_exact_p50_ms": _median_ms(self.latencies["exact"]),
            "solve_cuts_p50_ms": _median_ms(self.latencies["cuts"]),
        }


def _median_ms(values) -> float | None:
    return statistics.median(values) * 1e3 if values else None


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Cli:
    """One ``python -m ballcover`` subprocess per op, cycling the README commands."""

    name = "cli"
    cycle = 4
    warmup = True

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        raster_m = "50" if tiny else "1000"
        resolution = "16" if tiny else "128"
        self.commands = [
            ["samplesize"],
            ["calibrate", "--mixture", "peaked", "--m", "10"],
            ["solve", "--bundled-example"],
            ["raster", "--mixture", "fourmode", "--m", raster_m, "--resolution", resolution],
        ]
        self.work = ROOT / ".bench_work" / f"cli-{os.getpid()}"
        self.env = cli_env()
        self.outputs: list[tuple[list[str], Path, str]] = []
        self.walls: list[float] = []

    def argv(self, i: int) -> tuple[list[str], Path]:
        command = list(self.commands[i % self.cycle])
        if command[0] in ("calibrate", "raster"):
            command += ["--seed", str(op_seed(self.seed, i))]
        out = self.work / f"op{i}"
        if command[0] != "samplesize":
            command += ["--out-dir", str(out)]
        return command, out

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "ballcover", *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def op(self, i: int) -> bool:
        argv, out = self.argv(i)
        start = time.perf_counter()
        proc = self.run(argv)
        self.walls.append(time.perf_counter() - start)
        check(proc.returncode == 0, f"cli {argv[0]}: rc={proc.returncode}: {proc.stderr.strip()}")
        try:
            json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"cli {argv[0]}: stdout is not JSON: {exc}") from exc
        self.outputs.append((argv, out, proc.stdout))
        return True

    def check(self) -> None:
        # Rerun one manifest-writing command from its manifest; the seed picks which.
        with_manifest = [entry for entry in self.outputs if entry[0][0] != "samplesize"]
        argv, out, stdout = with_manifest[self.seed % len(with_manifest)]
        manifest = json.loads((out / "manifest.json").read_text())
        again = out.with_name(out.name + "-rerun")
        proc = self.run([argv[0], "--config", str(out / "manifest.json"), "--out-dir", str(again)])
        check(proc.returncode == 0, f"cli {argv[0]} rerun: rc={proc.returncode}: {proc.stderr}")
        check(proc.stdout == stdout, f"cli {argv[0]} rerun: stdout differs")
        for name in manifest["outputs"]:
            check(
                (out / name).read_bytes() == (again / name).read_bytes(),
                f"cli {argv[0]} rerun: {name} differs",
            )

    def in_process(self, i: int) -> float:
        """Wall time of ``cli.main(argv)`` in this process for op ``i``'s argv."""
        argv, _ = self.argv(i)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(argv)
            elapsed = time.perf_counter() - start
        check(rc == 0, f"cli {argv[0]} in process: rc={rc}")
        return elapsed

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


WORKLOADS = {cls.name: cls for cls in (Consistency, ManyCenters, RobustLP, Cli)}
