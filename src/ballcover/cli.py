"""Command-line front end.

Subcommands: ``samplesize`` (training-size planning), ``calibrate``
(build one uncertainty set), ``coverage`` (consistency experiment),
``raster`` (set and density images), and ``solve`` (robust LP).  Every
file-writing command drops a ``manifest.json`` beside its outputs that
records the fully resolved configuration; feeding that manifest back
through ``--config`` reproduces the run byte for byte.

Exit codes: 0 success, 2 configuration or domain error (a request too
large to allocate is one), 3 calibration guarantee violation
(undersampled training data in strict mode), 4 solver finished with a
non-optimal status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (
    CalibrationSpec,
    UndersampledError,
    calibrate_radius,
    chernoff_violation_bounds,
    planning_constant,
)
from .experiments import (
    ConsistencyConfig,
    _volume_box,
    raster_density,
    raster_set,
    run_consistency_experiment,
    write_grid_csv,
    write_pgm,
)
from .geometry import Norm
from .mixtures import RandomStream, bundled_mixture
from .robust import RobustLinearProgram, bundled_example, solve as solve_robust
from .simplex import LPStatus

__all__ = ["main"]

_NORM_NAMES = ("l1", "l2", "linf")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(_dump_json(payload))


def _print_json(payload: dict) -> None:
    sys.stdout.write(_dump_json(payload))


def _read_json(path) -> object:
    """Parse a JSON file; nesting too deep to parse is a ``ValueError``."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON is nested too deeply") from None


def _load_config(path: str, command: str) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    if "command" in data and "config" in data:
        if data["command"] != command:
            raise ValueError(
                f"manifest was written by {data['command']!r}, not {command!r}"
            )
        data = data["config"]
        if not isinstance(data, dict):
            raise ValueError("manifest config must be a JSON object")
    return data


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_NUMBER = ("a number", _is_number)
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_STR = ("a string", lambda v: isinstance(v, str))
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_LAMBDA = ('a number or "optimal"', lambda v: _is_number(v) or isinstance(v, str))
_BBOX = (
    "a list of four numbers",
    lambda v: isinstance(v, list) and len(v) == 4 and all(map(_is_number, v)),
)

# Every setting once: its default, the JSON type a config file must give it
# (a setting whose default is None may also be null), its flag, and the
# flag's argparse keywords.  Flags default to None, meaning "not given".
_SETTINGS = {
    "alpha": (0.9, _NUMBER, "--alpha", dict(type=float, help="target probability mass")),
    "epsilon": (0.05, _NUMBER, "--eps", dict(type=float, help="mass overshoot tolerance")),
    "delta": (0.05, _NUMBER, "--delta", dict(type=float, help="failure probability budget")),
    "lambda": (
        "optimal",
        _LAMBDA,
        "--lambda",
        dict(metavar="VALUE", help='quantile mixing weight in (0, 1), or "optimal"'),
    ),
    "norm": ("l2", _STR, "--norm", dict(choices=_NORM_NAMES)),
    "seed": (0, _INT, "--seed", dict(type=int, help="base seed for all randomness")),
    "mixture": (
        None, _STR, "--mixture", dict(help="bundled mixture name (isotropic, peaked, fourmode)")
    ),
    "m": (None, _INT, "--m", dict(type=int, help="number of shape-sample centers")),
    "shape_csv": (None, _STR, "--shape-csv", dict(help="headerless CSV of centers")),
    "n": (None, _INT, "--n", dict(type=int, help="generated training-sample size")),
    "train_csv": (None, _STR, "--train-csv", dict(help="headerless CSV of training points")),
    "strict": (
        True,
        _BOOL,
        "--strict",
        dict(action="store_true", help="refuse training samples below n_min (default)"),
    ),
    "trials": (200, _INT, "--trials", dict(type=int, help="number of recalibration trials")),
    "coverage_samples": (
        100_000, _INT, "--mc-samples", dict(type=int, help="coverage draws per trial")
    ),
    "resolution": (128, _INT, "--resolution", dict(type=int, help="pixels per axis")),
    "bbox": (
        None,
        _BBOX,
        "--bbox",
        dict(
            type=float,
            nargs=4,
            metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
            help="raster window (default: centers padded by three radii)",
        ),
    ),
    "model": (None, _STR, "--model", dict(help="model JSON file")),
    "bundled_example": (
        False,
        _BOOL,
        "--bundled-example",
        dict(action="store_true", help="solve the built-in two-variable demo"),
    ),
}

# The one flag that shares a setting: --advisory, beside --strict, turns it off.
_ADVISORY = dict(dest="strict", action="store_false", help="warn instead of failing below n_min")

_LEVEL = ("alpha", "epsilon", "delta", "lambda")
_SOURCES = ("norm", "seed", "mixture", "m", "shape_csv", "n", "train_csv", "strict")


def _resolve_config(args) -> dict:
    """defaults, overlaid by the --config file, overlaid by explicit flags."""
    config = {key: _SETTINGS[key][0] for key in _COMMANDS[args.command][2]}
    if args.config is not None:
        for key, value in _load_config(args.config, args.command).items():
            if key not in config:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            default, (kind, accepts), _, _ = _SETTINGS[key]
            if not (accepts(value) or (value is None and default is None)):
                raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
            config[key] = value
    for key in config:
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    return config


def _resolve_lambda(config: dict) -> CalibrationSpec:
    """Build the calibration spec and echo the numeric lambda back."""
    lam = config["lambda"]
    if isinstance(lam, str) and lam != "optimal":
        lam = float(lam)
    spec = CalibrationSpec(
        alpha=float(config["alpha"]),
        epsilon=float(config["epsilon"]),
        delta=float(config["delta"]),
        lam=lam,
    )
    config["alpha"] = spec.alpha
    config["epsilon"] = spec.epsilon
    config["delta"] = spec.delta
    config["lambda"] = spec.lam
    return spec


def _check_norm(value: str) -> Norm:
    if value not in _NORM_NAMES:
        raise ValueError(f"norm must be one of {_NORM_NAMES}, got {value!r}")
    return Norm(value)


def _positive_int(config: dict, key: str) -> int:
    value = int(config[key])
    if value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value}")
    config[key] = value
    return value


def _out_dir(args) -> Path:
    out = Path(args.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, command: str, config: dict, outputs: list[str]) -> None:
    _write_json(
        out / "manifest.json",
        {
            "command": command,
            "version": __version__,
            "seed": config.get("seed"),
            "config": config,
            "outputs": sorted(outputs + ["manifest.json"]),
        },
    )


def _load_csv(path: str) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    if data.size == 0:
        raise ValueError(f"no rows in {path}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ValueError(f"{path} row {bad[0] + 1} holds a non-finite value")
    return data


def _build_set(config: dict):
    """Calibrate one set from CSV files and/or the generator spec.

    Returns (set, mixture or None); fills the resolved generator sizes
    back into ``config`` so the manifest pins them.
    """
    norm = _check_norm(config["norm"])
    spec = _resolve_lambda(config)
    seed = int(config["seed"])
    config["seed"] = seed
    mixture = None
    if config["mixture"] is not None:
        mixture = bundled_mixture(config["mixture"])

    if config["shape_csv"] is not None:
        if config["m"] is not None:
            raise ValueError("--m sizes generated shapes; drop it with --shape-csv")
        shape = _load_csv(config["shape_csv"])
    else:
        if mixture is None or config["m"] is None:
            raise ValueError("shape sample needs --shape-csv, or --mixture and --m")
        shape = mixture.sample(RandomStream(seed, 0), _positive_int(config, "m"))

    if config["train_csv"] is not None:
        if config["n"] is not None:
            raise ValueError("--n sizes generated training data; drop it with --train-csv")
        if config["shape_csv"] is not None and (
            Path(config["train_csv"]).resolve() == Path(config["shape_csv"]).resolve()
        ):
            raise ValueError(
                "shape and training data must come from different sources"
            )
        training = _load_csv(config["train_csv"])
    else:
        if mixture is None:
            raise ValueError("training sample needs --train-csv, or --mixture")
        if config["n"] is None:
            config["n"] = spec.n_min
        training = mixture.sample(RandomStream(seed, 1), _positive_int(config, "n"))

    uset = calibrate_radius(shape, norm, training, spec, strict=config["strict"])
    return uset, mixture


def _cmd_samplesize(config: dict, args) -> int:
    spec = _resolve_lambda(config)
    under, over = chernoff_violation_bounds(spec.n_min, spec.alpha, spec.epsilon, spec.alpha_n)
    _print_json(
        {
            "alpha": spec.alpha,
            "epsilon": spec.epsilon,
            "delta": spec.delta,
            "lambda": spec.lam,
            "c": planning_constant(spec.alpha, spec.epsilon, spec.lam),
            "alpha_n": spec.alpha_n,
            "n_min": spec.n_min,
            "bounds_at_n_min": {"undershoot": under, "overshoot": over},
        }
    )
    return 0


def _cmd_calibrate(config: dict, args) -> int:
    out = _out_dir(args)
    uset, _ = _build_set(config)
    payload = uset.to_dict()
    _write_json(out / "set.json", payload)
    _write_manifest(out, "calibrate", config, ["set.json"])
    _print_json(payload)
    return 0


def _cmd_coverage(config: dict, args) -> int:
    spec = _resolve_lambda(config)
    if config["mixture"] is None or config["m"] is None:
        raise ValueError("the coverage experiment needs --mixture and --m")
    cfg = ConsistencyConfig(
        mixture=bundled_mixture(config["mixture"]),
        num_centers=_positive_int(config, "m"),
        calibration=spec,
        trials=_positive_int(config, "trials"),
        coverage_samples=_positive_int(config, "coverage_samples"),
        seed=int(config["seed"]),
        norm=_check_norm(config["norm"]),
    )
    config["seed"] = cfg.seed
    report = run_consistency_experiment(cfg)
    out = _out_dir(args)
    report.write_csv(out / "coverage.csv")
    summary = report.summary()
    _write_json(out / "summary.json", summary)
    _write_manifest(out, "coverage", config, ["coverage.csv", "summary.json"])
    _print_json(summary)
    return 0


def _cmd_raster(config: dict, args) -> int:
    out = _out_dir(args)
    uset, mixture = _build_set(config)
    resolution = _positive_int(config, "resolution")
    if config["bbox"] is None:
        lo, hi = _volume_box(uset)
        bbox = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    else:
        x0, x1, y0, y1 = (float(v) for v in config["bbox"])
        bbox = ((x0, x1), (y0, y1))

    grid = raster_set(uset, bbox, resolution)
    config["bbox"] = [bound for side in bbox for bound in side]
    write_pgm(out / "set.pgm", grid)
    write_grid_csv(out / "set_grid.csv", grid)
    _write_json(out / "set.json", uset.to_dict())
    outputs = ["set.pgm", "set_grid.csv", "set.json", "raster.json"]
    if mixture is not None:
        write_pgm(out / "density.pgm", raster_density(mixture, bbox, resolution))
        outputs.append("density.pgm")
    box_area = (bbox[0][1] - bbox[0][0]) * (bbox[1][1] - bbox[1][0])
    payload = {
        "bbox": config["bbox"],
        "resolution": resolution,
        "inside_fraction": float(grid.mean()),
        "box_area": box_area,
        "radius": float(uset.radius),
        "num_centers": uset.num_balls,
        "norm": config["norm"],
    }
    _write_json(out / "raster.json", payload)
    _write_manifest(out, "raster", config, outputs)
    _print_json(payload)
    return 0


def _cmd_solve(config: dict, args) -> int:
    if config["bundled_example"] == (config["model"] is not None):
        raise ValueError("pass exactly one of --model or --bundled-example")
    if config["bundled_example"]:
        model = bundled_example()
    else:
        model = RobustLinearProgram.from_dict(_read_json(config["model"]))
    report = solve_robust(model)
    payload = report.to_dict()
    out = _out_dir(args)
    _write_json(out / "report.json", payload)
    _write_manifest(out, "solve", config, ["report.json"])
    _print_json(payload)
    return 0 if report.status is LPStatus.OPTIMAL else 4


# Each command: its handler, its help line, its settings, and whether it
# writes files (and so takes --out-dir).
_COMMANDS = {
    "samplesize": (_cmd_samplesize, "plan the training-sample size", _LEVEL, False),
    "calibrate": (_cmd_calibrate, "calibrate one uncertainty set", _LEVEL + _SOURCES, True),
    "coverage": (
        _cmd_coverage,
        "run the coverage-consistency experiment",
        _LEVEL + ("norm", "seed", "mixture", "m", "trials", "coverage_samples"),
        True,
    ),
    "raster": (
        _cmd_raster,
        "rasterize a calibrated set",
        _LEVEL + _SOURCES + ("resolution", "bbox"),
        True,
    ),
    "solve": (_cmd_solve, "solve a robust linear program", ("model", "bundled_example"), True),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballcover",
        description="Calibrated union-of-balls uncertainty sets and robust LPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, keys, writes_files) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for key in keys:
            _, _, flag, kwargs = _SETTINGS[key]
            group = p.add_mutually_exclusive_group() if key == "strict" else p
            group.add_argument(flag, dest=key, default=None, **kwargs)
            if key == "strict":
                group.add_argument("--advisory", **_ADVISORY)
        p.add_argument("--config", help="JSON config or a previous manifest.json")
        if writes_files:
            p.add_argument("--out-dir", dest="out_dir", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](_resolve_config(args), args)
    except UndersampledError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
