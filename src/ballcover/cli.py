"""Command-line front end.

Subcommands: ``samplesize`` (training-size planning), ``calibrate``
(build one uncertainty set), ``coverage`` (consistency experiment),
``raster`` (set and density images), and ``solve`` (robust LP).

Each setting is stated once in ``_SETTINGS`` (default, accepted values,
flag); ``_resolve_config`` overlays defaults, the ``--config`` file and the
flags, then checks every value once.  A command computes its payload and
the writers of its output files; only ``main`` creates ``--out-dir``,
writes those files and a ``manifest.json`` that lists them and records the
fully resolved configuration, and it does so only after the command has
succeeded.  Feeding that manifest back through ``--config`` reproduces the
run byte for byte.

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


def _json_file(payload: dict):
    """A writer of ``payload`` as the JSON text the command prints."""
    return lambda path: path.write_text(_dump_json(payload))


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _float_or_text(text: str):
    """The float ``text`` spells, or ``text`` itself for its setting to reject."""
    try:
        return float(text)
    except ValueError:
        return text


def _int_or_text(text: str):
    """The int ``text`` spells, or ``text`` itself for its setting to reject."""
    try:
        return int(text)
    except ValueError:
        return text


_NUMBER = ("a number", _is_number)
_INT = ("an integer", _is_int)
_COUNT = ("a positive integer", lambda v: _is_int(v) and v >= 1)
_NORM = ("one of " + ", ".join(_NORM_NAMES), lambda v: v in _NORM_NAMES)
_STR = ("a string", lambda v: isinstance(v, str))
_BOOL = ("true or false", lambda v: isinstance(v, bool))
_LAMBDA = ('a number or "optimal"', lambda v: _is_number(v) or v == "optimal")
_BBOX = (
    "a list of four numbers",
    lambda v: isinstance(v, list) and len(v) == 4 and all(map(_is_number, v)),
)

# Every setting once: its default, the values it accepts from a config file
# or a flag (a setting whose default is None may also be null), its flag,
# and the flag's argparse keywords.  Flags default to None, "not given".  A
# typed flag keeps text it cannot convert, so the setting refuses it too.
_SETTINGS = {
    "alpha": (0.9, _NUMBER, "--alpha", dict(type=_float_or_text, help="target probability mass")),
    "epsilon": (
        0.05, _NUMBER, "--eps", dict(type=_float_or_text, help="mass overshoot tolerance")
    ),
    "delta": (
        0.05, _NUMBER, "--delta", dict(type=_float_or_text, help="failure probability budget")
    ),
    "lambda": (
        "optimal",
        _LAMBDA,
        "--lambda",
        dict(type=_float_or_text, help='quantile mixing weight in (0, 1), or "optimal"'),
    ),
    "norm": ("l2", _NORM, "--norm", dict(help="ball norm: " + ", ".join(_NORM_NAMES))),
    "seed": (0, _INT, "--seed", dict(type=_int_or_text, help="base seed for all randomness")),
    "mixture": (
        None, _STR, "--mixture", dict(help="bundled mixture name (isotropic, peaked, fourmode)")
    ),
    "m": (None, _COUNT, "--m", dict(type=_int_or_text, help="number of shape-sample centers")),
    "shape_csv": (None, _STR, "--shape-csv", dict(help="headerless CSV of centers")),
    "n": (None, _COUNT, "--n", dict(type=_int_or_text, help="generated training-sample size")),
    "train_csv": (None, _STR, "--train-csv", dict(help="headerless CSV of training points")),
    "strict": (
        True,
        _BOOL,
        "--strict",
        dict(action="store_true", help="refuse training samples below n_min (default)"),
    ),
    "trials": (
        200, _COUNT, "--trials", dict(type=_int_or_text, help="number of recalibration trials")
    ),
    "coverage_samples": (
        100_000, _COUNT, "--mc-samples", dict(type=_int_or_text, help="coverage draws per trial")
    ),
    "resolution": (128, _COUNT, "--resolution", dict(type=_int_or_text, help="pixels per axis")),
    "bbox": (
        None,
        _BBOX,
        "--bbox",
        dict(
            type=_float_or_text,
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
    """Defaults, overlaid by the --config file, overlaid by explicit flags;
    then each resolved value is checked against its setting."""
    config = {key: _SETTINGS[key][0] for key in _COMMANDS[args.command][2]}
    if args.config is not None:
        for key, value in _load_config(args.config, args.command).items():
            if key not in config:
                raise ValueError(f"unknown config key {key!r} for {args.command}")
            config[key] = value
    for key in config:
        value = getattr(args, key)
        if value is not None:
            config[key] = value
    for key, value in config.items():
        default, (kind, accepts), flag, _ = _SETTINGS[key]
        if not (accepts(value) or (value is None and default is None)):
            raise ValueError(f"config key {key!r} ({flag}) must be {kind}, got {value!r}")
    return config


def _resolve_lambda(config: dict) -> CalibrationSpec:
    """Build the calibration spec and echo the numeric lambda back."""
    spec = CalibrationSpec(
        alpha=float(config["alpha"]),
        epsilon=float(config["epsilon"]),
        delta=float(config["delta"]),
        lam=config["lambda"],
    )
    config.update(alpha=spec.alpha, epsilon=spec.epsilon, delta=spec.delta)
    config["lambda"] = spec.lam
    return spec


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
    spec = _resolve_lambda(config)
    seed = config["seed"]
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
        shape = mixture.sample(RandomStream(seed, 0), config["m"])

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
        training = mixture.sample(RandomStream(seed, 1), config["n"])

    uset = calibrate_radius(shape, Norm(config["norm"]), training, spec, strict=config["strict"])
    return uset, mixture


def _cmd_samplesize(config: dict):
    spec = _resolve_lambda(config)
    under, over = chernoff_violation_bounds(spec.n_min, spec.alpha, spec.epsilon, spec.alpha_n)
    payload = {
        "alpha": spec.alpha,
        "epsilon": spec.epsilon,
        "delta": spec.delta,
        "lambda": spec.lam,
        "c": planning_constant(spec.alpha, spec.epsilon, spec.lam),
        "alpha_n": spec.alpha_n,
        "n_min": spec.n_min,
        "bounds_at_n_min": {"undershoot": under, "overshoot": over},
    }
    return payload, {}, 0


def _cmd_calibrate(config: dict):
    uset, _ = _build_set(config)
    payload = uset.to_dict()
    return payload, {"set.json": _json_file(payload)}, 0


def _cmd_coverage(config: dict):
    spec = _resolve_lambda(config)
    if config["mixture"] is None or config["m"] is None:
        raise ValueError("the coverage experiment needs --mixture and --m")
    cfg = ConsistencyConfig(
        mixture=bundled_mixture(config["mixture"]),
        num_centers=config["m"],
        calibration=spec,
        trials=config["trials"],
        coverage_samples=config["coverage_samples"],
        seed=config["seed"],
        norm=Norm(config["norm"]),
    )
    report = run_consistency_experiment(cfg)
    summary = report.summary()
    return summary, {"coverage.csv": report.write_csv, "summary.json": _json_file(summary)}, 0


def _cmd_raster(config: dict):
    uset, mixture = _build_set(config)
    resolution = config["resolution"]
    if config["bbox"] is None:
        lo, hi = _volume_box(uset)
        bbox = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    else:
        x0, x1, y0, y1 = (float(v) for v in config["bbox"])
        bbox = ((x0, x1), (y0, y1))

    grid = raster_set(uset, bbox, resolution)
    config["bbox"] = [bound for side in bbox for bound in side]
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
    outputs = {
        "set.pgm": lambda path: write_pgm(path, grid),
        "set_grid.csv": lambda path: write_grid_csv(path, grid),
        "set.json": _json_file(uset.to_dict()),
        "raster.json": _json_file(payload),
    }
    if mixture is not None:
        density = raster_density(mixture, bbox, resolution)
        outputs["density.pgm"] = lambda path: write_pgm(path, density)
    return payload, outputs, 0


def _cmd_solve(config: dict):
    if config["bundled_example"] == (config["model"] is not None):
        raise ValueError("pass exactly one of --model or --bundled-example")
    if config["bundled_example"]:
        model = bundled_example()
    else:
        model = RobustLinearProgram.from_dict(_read_json(config["model"]))
    report = solve_robust(model)
    payload = report.to_dict()
    exit_code = 0 if report.status is LPStatus.OPTIMAL else 4
    return payload, {"report.json": _json_file(payload)}, exit_code


# Each command: its handler, its help line, its settings, and whether it
# writes files (and so takes --out-dir).  A handler takes the resolved
# config and returns (payload, outputs, exit code), where outputs maps each
# file name to a function that writes that file at a given path.
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
    handler, _, _, writes_files = _COMMANDS[args.command]
    try:
        config = _resolve_config(args)
        payload, outputs, exit_code = handler(config)
        if writes_files:
            manifest = {
                "command": args.command,
                "version": __version__,
                "seed": config.get("seed"),
                "config": config,
                "outputs": sorted([*outputs, "manifest.json"]),
            }
            out = Path(args.out_dir or ".")
            out.mkdir(parents=True, exist_ok=True)
            for name, write in {**outputs, "manifest.json": _json_file(manifest)}.items():
                write(out / name)
        sys.stdout.write(_dump_json(payload))
        return exit_code
    except UndersampledError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
