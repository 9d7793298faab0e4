"""ballcover benchmark: one workload per run, closed loop, single process.

    python3 benchmarks/run.py --workload consistency --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository (the package is imported from
``src/``).  With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run instead.  The line before it is a JSON report with the
environment, sample counts and the metrics that apply to this workload only.
Output checks run after the timed loop; a failed check prints
``"correct": false`` and exits 1.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("consistency", "many_centers", "robust_lp", "cli")
# Set-up is timed in this process and in this many more fresh interpreters.
SETUP_PROBES = 2
# A timed segment always ends on a whole cycle of ops, unless it has run
# this long; that keeps a run whose cycle is slow (a robust_lp pass with
# several L2 models that run out of cuts) within its time limit.  A traced
# run has two segments, so each gets a smaller cap.
SEGMENT_CAP_S = 90.0
TRACED_SEGMENT_CAP_S = 30.0
# The end-to-end metrics every workload reports on its last line.
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
# All end-to-end metrics, including those that do not apply to every
# workload; these go in the report line.
REPORT_UNITS = END_TO_END | {
    "op_p90_ms": "ms",
    "failed_frac": "ratio",
    "solve_exact_p50_ms": "ms",
    "solve_cuts_p50_ms": "ms",
}
GRID_POINTS = 20_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    # Seeds are taken modulo 2**63 so that numpy's seeding accepts any integer.
    parser.add_argument("--seed", type=lambda text: int(text) % 2**63, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def build(args):
    """Import ballcover and build the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    return workload, time.perf_counter() - start


def setup_probes(args) -> list[float]:
    """Set-up times of :func:`build` in fresh interpreters."""
    probe = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            probe, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def fresh_import_s(module: str, repeats: int = 3) -> float:
    """Median time for a fresh interpreter to import ``module``."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip()))
    return statistics.median(times)


def run_segment(workload, seconds: float, cap: float, tracer=None, after_op=None) -> dict:
    """Closed loop for ``seconds``, ending on a whole cycle; returns op timings."""
    from workloads import CheckFailed

    latencies, failed = [], 0
    start = time.perf_counter()
    i = 0
    while True:
        if tracer is not None:
            tracer.op_started()
        op_start = time.perf_counter()
        try:
            ok = workload.op(i)
        except CheckFailed:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        latencies.append(time.perf_counter() - op_start)
        if tracer is not None:
            tracer.op_finished()
        failed += not ok
        if after_op is not None:
            after_op(i)
        i += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i % workload.cycle == 0) or elapsed >= cap:
            break
    return {"latencies": latencies, "failed": failed, "wall": time.perf_counter() - start}


def p50_ms(latencies) -> float:
    return statistics.median(latencies) * 1e3


def peak_rss_mb(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(args, workload, setup: float) -> tuple[dict, dict]:
    setups = [setup] + setup_probes(args)
    if getattr(workload, "warmup", False):
        workload.op(0)
    seg = run_segment(workload, args.seconds, SEGMENT_CAP_S)
    lat = seg["latencies"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / seg["wall"],
        "op_p50_ms": p50_ms(lat),
        "peak_rss_mb": peak_rss_mb(args.workload),
    }
    extra = {
        "failed_frac": seg["failed"] / len(lat),
        # The highest percentile with at least ten samples beyond it.
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3 if len(lat) >= 100 else None,
    }
    if hasattr(workload, "extra_metrics"):
        extra |= workload.extra_metrics()
    all_metrics = {
        name: {"value": value, "unit": REPORT_UNITS[name]}
        for name, value in (metrics | extra).items()
        if value is not None
    }
    report = {"ops": len(lat), "setup_samples": setups, "end_to_end": all_metrics}
    return metrics, report | {"seg": seg}


def kernel_grid(n: int) -> dict:
    """ns per (point, center) pair of geometry.shape_values over (norm, m, d)."""
    import numpy as np
    from ballcover import geometry

    rng = np.random.default_rng(0)
    out = {}
    for norm in geometry.Norm:
        for m in (10, 1000):
            for d in (2, 20):
                points = rng.standard_normal((n, d))
                centers = rng.standard_normal((m, d))
                start = time.perf_counter()
                geometry.shape_values(centers, norm, points)
                elapsed = time.perf_counter() - start
                out[f"geometry.grid.{norm.value}.m{m}.d{d}.ns_per_pair"] = elapsed * 1e9 / (n * m)
    return out


def per_layer(args, workload) -> tuple[dict, dict]:
    """An untraced segment, then a traced one; layer metrics come from the latter.

    For ``cli`` the traced op is ``cli.main(argv)`` in this process, run
    after each subprocess op with the same argv, next to an untraced twin.
    """
    import tracing

    if getattr(workload, "warmup", False):
        workload.op(0)
    tracer = tracing.Tracer()
    if args.workload == "cli":
        baseline: list[float] = []

        def in_process(i):
            baseline.append(workload.in_process(i))
            tracer.op_started()
            workload.in_process(i)
            tracer.op_finished()

        walls_before = len(workload.walls)
        tracing.install(tracer)
        try:
            seg = run_segment(workload, args.seconds, TRACED_SEGMENT_CAP_S, after_op=in_process)
        finally:
            tracer.uninstall()
        walls = workload.walls[walls_before:]
        cli_metrics = {
            "cli.main_s": statistics.median(baseline),
            "cli.process_overhead_s": statistics.median(w - b for w, b in zip(walls, baseline)),
        }
        traced = [end - start for start, end in tracer.ops]
    else:
        baseline = run_segment(workload, args.seconds, TRACED_SEGMENT_CAP_S)["latencies"]
        tracing.install(tracer)
        try:
            seg = run_segment(workload, args.seconds, TRACED_SEGMENT_CAP_S, tracer=tracer)
        finally:
            tracer.uninstall()
        cli_metrics = {"cli.main_s": 0.0, "cli.process_overhead_s": 0.0}
        traced = seg["latencies"]
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ms"] = p50_ms(traced) - p50_ms(baseline)
    metrics |= cli_metrics
    metrics["cli.import_s"] = fresh_import_s("ballcover.cli")
    metrics |= kernel_grid(500 if args.tiny else GRID_POINTS)
    return metrics, {"ops": len(traced), "untraced_ops": len(baseline), "seg": seg}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ballcover" / "__init__.py").is_file():
        print(f"error: {SRC / 'ballcover'} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, setup = build(args)
    if args.setup_probe:
        print(setup)
        return 0

    import tracing
    from workloads import CheckFailed

    metrics, report, seg = {}, {}, {"latencies": [], "failed": 0}
    correct = True
    try:
        if args.trace:
            metrics, report = per_layer(args, workload)
        else:
            metrics, report = end_to_end(args, workload, setup)
        seg = report.pop("seg")
        workload.check()
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        if hasattr(workload, "close"):
            workload.close()
    units = tracing.LAYER_UNITS if args.trace else END_TO_END

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **report}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, len(seg["latencies"])),
        "failed": seg["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
