"""Tests for the command-line interface."""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ballcover import __version__
from ballcover.calibration import CalibrationSpec, UndersampledWarning
from ballcover.cli import main
from ballcover.experiments import run_role_of_m_study
from ballcover.geometry import UncertaintySet
from ballcover.mixtures import bundled_mixture


def read_json(path):
    return json.loads(path.read_text())


def quiet_main(argv):
    """Run the CLI with advisory-mode warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndersampledWarning)
        return main(argv)


CAL_ARGS = ["--mixture", "peaked", "--m", "6", "--n", "50", "--advisory", "--seed", "3"]


def csv_sources(tmp_path):
    rng = np.random.default_rng(6)
    shape = tmp_path / "shape.csv"
    train = tmp_path / "train.csv"
    np.savetxt(shape, rng.normal(size=(4, 2)), delimiter=",")
    np.savetxt(train, rng.normal(size=(80, 2)), delimiter=",")
    return ["--shape-csv", str(shape), "--train-csv", str(train), "--advisory"]


def infeasible_model(tmp_path):
    model = tmp_path / "model.json"
    rows = [{"a": [1.0], "b": -1.0}, {"a": [-1.0], "b": 0.0}]
    model.write_text(json.dumps({"objective": [1.0], "rows": rows}))
    return ["--model", str(model)]


def write_deep_json(path):
    """A JSON array nested past the parser's recursion limit."""
    path.write_text("[" * 200_000 + "]" * 200_000)
    return str(path)


class TestSamplesize:
    def test_default_payload(self, capsys):
        assert main(["samplesize"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_min"] == 4918
        assert payload["lambda"] == pytest.approx(0.24496552958641038, abs=1e-12)
        assert payload["alpha_n"] == pytest.approx(0.9122482764793205, abs=1e-12)
        assert payload["c"] == pytest.approx(1.666441400296898, abs=1e-12)
        assert payload["bounds_at_n_min"]["undershoot"] <= 0.025
        assert payload["bounds_at_n_min"]["overshoot"] <= 0.025

    def test_pinned_lambda_needs_more_data(self, capsys):
        assert main(["samplesize", "--lambda", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda"] == 0.5
        assert payload["n_min"] > 4918

    def test_bad_delta_exits_2(self, capsys):
        assert main(["samplesize", "--delta", "2"]) == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["1e-320", "5e-324"])
    def test_subnormal_delta_exits_2(self, delta, capsys):
        assert main(["samplesize", "--delta", delta]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_min ") and f"delta={float(delta)}" in err

    def test_unparseable_lambda_exits_2(self, capsys):
        assert main(["samplesize", "--lambda", "frog"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_dir_is_rejected(self, tmp_path, capsys):
        # samplesize writes no file, so --out-dir is an unknown flag.
        with pytest.raises(SystemExit) as exc:
            main(["samplesize", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--out-dir" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCalibrate:
    def test_writes_set_and_manifest(self, tmp_path, capsys):
        with pytest.warns(UndersampledWarning):
            rc = main(["calibrate", *CAL_ARGS, "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == (tmp_path / "set.json").read_text()
        uset = UncertaintySet.from_dict(read_json(tmp_path / "set.json"))
        assert uset.num_balls == 6
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["command"] == "calibrate"
        assert manifest["version"] == __version__
        assert manifest["seed"] == 3
        assert manifest["outputs"] == ["manifest.json", "set.json"]
        config = manifest["config"]
        assert isinstance(config["lambda"], float)
        assert config["strict"] is False
        assert config["n"] == 50

    @pytest.mark.parametrize("source", ["csv", "n"])
    def test_strict_undersampled_exits_3(self, tmp_path, capsys, source):
        train = tmp_path / "train.csv"
        train.write_text("0.1,0.2\n0.3,0.1\n0.2,0.4\n")
        training = ["--train-csv", str(train)] if source == "csv" else ["--n", "10"]
        out = tmp_path / "out"
        rc = main(["calibrate", "--mixture", "peaked", "--m", "4", *training, "--out-dir", str(out)])
        assert rc == 3
        captured = capsys.readouterr()
        assert "n_min" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_csv_sources(self, tmp_path):
        rng = np.random.default_rng(11)
        shape = tmp_path / "shape.csv"
        train = tmp_path / "train.csv"
        np.savetxt(shape, rng.normal(size=(5, 2)), delimiter=",")
        np.savetxt(train, rng.normal(size=(200, 2)), delimiter=",")
        rc = quiet_main(
            [
                "calibrate",
                "--shape-csv",
                str(shape),
                "--train-csv",
                str(train),
                "--advisory",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        uset = UncertaintySet.from_dict(read_json(tmp_path / "set.json"))
        expected = np.loadtxt(shape, delimiter=",", ndmin=2)
        np.testing.assert_array_equal(uset.centers, expected)

    def test_same_csv_for_both_sources_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.2\n0.3,0.1\n")
        rc = main(
            [
                "calibrate",
                "--shape-csv",
                str(data),
                "--train-csv",
                str(data),
                "--advisory",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "different sources" in capsys.readouterr().err

    def test_m_conflicts_with_shape_csv(self, tmp_path, capsys):
        data = tmp_path / "shape.csv"
        data.write_text("0.1,0.2\n")
        rc = main(
            ["calibrate", "--shape-csv", str(data), "--m", "5", "--mixture", "peaked"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_no_sources_exits_2(self, capsys):
        assert main(["calibrate"]) == 2
        assert "shape" in capsys.readouterr().err

    def test_non_finite_center_exits_2(self, tmp_path, capsys):
        shape = tmp_path / "shape.csv"
        train = tmp_path / "train.csv"
        shape.write_text("0.1,0.2\ninf,0.3\n")
        np.savetxt(train, np.random.default_rng(5).normal(size=(50, 2)), delimiter=",")
        rc = quiet_main(
            [
                "calibrate",
                "--shape-csv",
                str(shape),
                "--train-csv",
                str(train),
                "--advisory",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "set.json").exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_training_row_exits_2(self, tmp_path, capsys, value):
        shape = tmp_path / "shape.csv"
        train = tmp_path / "train.csv"
        np.savetxt(shape, np.random.default_rng(6).normal(size=(5, 2)), delimiter=",")
        rows = np.random.default_rng(7).normal(size=(50, 2)).astype(str).tolist()
        rows[17][1] = value
        train.write_text("".join(",".join(row) + "\n" for row in rows))
        rc = quiet_main(
            [
                "calibrate",
                "--shape-csv",
                str(shape),
                "--train-csv",
                str(train),
                "--advisory",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(train) in err and "row 18" in err and "non-finite" in err
        assert not (tmp_path / "set.json").exists()


class TestCoverage:
    ARGS = [
        "coverage",
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
    ]

    def test_outputs(self, tmp_path, capsys):
        assert main([*self.ARGS, "--out-dir", str(tmp_path)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary == read_json(tmp_path / "summary.json")
        assert summary["trials"] == 6
        lines = (tmp_path / "coverage.csv").read_text().splitlines()
        assert lines[0] == "trial_id,radius,coverage"
        assert len(lines) == 7
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["outputs"] == [
            "coverage.csv",
            "manifest.json",
            "summary.json",
        ]

    def test_requires_mixture(self, capsys):
        assert main(["coverage", "--m", "4"]) == 2
        assert "mixture" in capsys.readouterr().err


class TestRaster:
    def test_pgm_and_payload(self, tmp_path, capsys):
        rc = quiet_main(
            [
                "raster",
                *CAL_ARGS,
                "--resolution",
                "16",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == read_json(tmp_path / "raster.json")
        assert 0.0 < payload["inside_fraction"] < 1.0
        assert payload["resolution"] == 16

        blob = (tmp_path / "set.pgm").read_bytes()
        assert blob.startswith(b"P5\n16 16\n255\n")
        pixels = blob[len(b"P5\n16 16\n255\n") :]
        assert len(pixels) == 16 * 16
        assert set(pixels) <= {0, 255}
        inside = sum(1 for v in pixels if v == 255)
        assert inside / 256 == pytest.approx(payload["inside_fraction"])

        assert (tmp_path / "density.pgm").exists()
        grid_lines = (tmp_path / "set_grid.csv").read_text().splitlines()
        assert len(grid_lines) == 16
        manifest = read_json(tmp_path / "manifest.json")
        assert "density.pgm" in manifest["outputs"]

    def test_explicit_bbox_echoed(self, tmp_path, capsys):
        rc = quiet_main(
            [
                "raster",
                *CAL_ARGS,
                "--resolution",
                "8",
                "--bbox",
                "-1",
                "1",
                "-1",
                "1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bbox"] == [-1.0, 1.0, -1.0, 1.0]
        assert payload["box_area"] == 4.0

    @pytest.mark.parametrize(
        "bbox",
        [[0.0, math.inf, 0.0, 1.0], [0.0, 1.0, math.nan, 1.0], [-1e308, 1e308, 0.0, 1.0]],
        ids=["infinite-bound", "nan-bound", "infinite-width"],
    )
    def test_non_finite_bbox_exits_2_before_writing(self, tmp_path, capsys, bbox):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bbox": bbox}))
        out = tmp_path / "out"
        rc = quiet_main(
            ["raster", *CAL_ARGS, "--resolution", "8", "--config", str(cfg), "--out-dir", str(out)]
        )
        assert rc == 2
        assert "bbox" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_sources_skip_density(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        shape = tmp_path / "shape.csv"
        train = tmp_path / "train.csv"
        np.savetxt(shape, rng.normal(size=(4, 2)), delimiter=",")
        np.savetxt(train, rng.normal(size=(80, 2)), delimiter=",")
        rc = quiet_main(
            [
                "raster",
                "--shape-csv",
                str(shape),
                "--train-csv",
                str(train),
                "--advisory",
                "--resolution",
                "8",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert not (tmp_path / "density.pgm").exists()
        manifest = read_json(tmp_path / "manifest.json")
        assert "density.pgm" not in manifest["outputs"]

    @pytest.mark.parametrize("dim", [1, 3])
    def test_csv_set_that_is_not_2d_exits_2(self, tmp_path, capsys, dim):
        rng = np.random.default_rng(5)
        shape = tmp_path / "shape.csv"
        train = tmp_path / "train.csv"
        np.savetxt(shape, rng.normal(size=(4, dim)), delimiter=",")
        np.savetxt(train, rng.normal(size=(80, dim)), delimiter=",")
        out = tmp_path / "out"
        rc = quiet_main(
            ["raster", "--shape-csv", str(shape), "--train-csv", str(train),
             "--advisory", "--resolution", "8", "--out-dir", str(out)]
        )
        assert rc == 2
        assert "2-D set" in capsys.readouterr().err
        assert not out.exists()

    def test_volume_matches_monte_carlo_study(self, tmp_path, capsys):
        """Raster area and the study's MC volume are two routes to one number.

        Identical seeds make the calibrated set bitwise identical on both
        routes, so the only gap left is discretization versus sampling noise.
        """
        level = ["--alpha", "0.8", "--eps", "0.15", "--delta", "0.1"]
        rc = main(
            [
                "raster",
                *level,
                "--mixture",
                "fourmode",
                "--m",
                "150",
                "--seed",
                "9",
                "--resolution",
                "96",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        raster_volume = payload["inside_fraction"] * payload["box_area"]

        spec = CalibrationSpec(alpha=0.8, epsilon=0.15, delta=0.1)
        entry = run_role_of_m_study(
            bundled_mixture("fourmode"),
            spec,
            [150],
            seed=9,
            raster_resolution=0,
        )[0]
        assert payload["radius"] == entry["radius"]
        assert raster_volume == pytest.approx(entry["volume"], rel=0.1)


class TestSolve:
    def test_bundled_example(self, tmp_path, capsys):
        rc = main(["solve", "--bundled-example", "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report == read_json(tmp_path / "report.json")
        assert report["status"] == "optimal"
        expected = 2.0 / (1.0 + 0.1 * math.sqrt(2.0))
        assert report["objective_value"] == pytest.approx(expected, abs=1e-6)
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["seed"] is None
        assert manifest["outputs"] == ["manifest.json", "report.json"]

    def test_infeasible_model_exits_4(self, tmp_path, capsys):
        rc = main(["solve", *infeasible_model(tmp_path), "--out-dir", str(tmp_path)])
        assert rc == 4
        assert json.loads(capsys.readouterr().out)["status"] == "infeasible"
        assert read_json(tmp_path / "report.json")["status"] == "infeasible"

    def test_model_and_bundled_conflict(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"objective": [1.0]}))
        rc = main(["solve", "--model", str(model), "--bundled-example"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_needs_a_model(self, capsys):
        assert main(["solve"]) == 2
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model",
        [
            {"rows": []},
            {
                "objective": [1.0],
                "robust_rows": [
                    {"set": {"norm": "l2", "radius": 0.1, "centers": [[0.5]]}}
                ],
            },
            {"objective": [1.0], "robust_rows": [{"b": 1.0}]},
            [1.0, 2.0],
            {
                "objective": [0.0] * 4,
                "rows": [
                    {"a": [-5e-10, 1.0, 0.0, 0.0], "b": -1.0},
                    {"a": [-5e-10, 0.0, 1.0, 0.0], "b": -1.0},
                    {"a": [-5e-10, 0.0, 0.0, 1.0], "b": -1.0},
                    {"a": [-1.0, 0.0, 0.0, 0.0], "b": 1.0},
                ],
                "robust_rows": [],
                "bounds": [[0.0, None]] * 4,
            },
        ],
        ids=[
            "no-objective",
            "robust-row-without-b",
            "robust-row-without-set",
            "list",
            "badly-scaled-rows",
        ],
    )
    def test_malformed_model_exits_2(self, tmp_path, capsys, model):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["solve", "--model", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.json").exists()

    def test_deeply_nested_model_exits_2(self, tmp_path, capsys):
        model = write_deep_json(tmp_path / "model.json")
        rc = main(["solve", "--model", model, "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_badly_scaled_rows_exit_0(self, tmp_path, capsys):
        # x >= 1e10 through a row whose only coefficient is 3e-10.
        model = {
            "objective": [0.0],
            "rows": [{"a": [-3e-10], "b": -3.0}, {"a": [-0.3], "b": -2.0}],
            "robust_rows": [],
            "bounds": [[0.0, None]],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        rc = main(["solve", "--model", str(path), "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "optimal"
        assert report["x_star"] == pytest.approx([1e10], rel=1e-12)


# Each file-writing run: a function of tmp_path giving its argv, and its exit code.
WRITING_RUNS = {
    "calibrate": (lambda tmp: ["calibrate", *CAL_ARGS], 0),
    "coverage": (lambda tmp: TestCoverage.ARGS, 0),
    "raster-mixture": (lambda tmp: ["raster", *CAL_ARGS, "--resolution", "8"], 0),
    "raster-csv": (lambda tmp: ["raster", *csv_sources(tmp), "--resolution", "8"], 0),
    "solve": (lambda tmp: ["solve", "--bundled-example"], 0),
    "solve-infeasible": (lambda tmp: ["solve", *infeasible_model(tmp)], 4),
}


@pytest.mark.parametrize("run", WRITING_RUNS)
def test_out_dir_holds_exactly_the_manifest_outputs(tmp_path, capsys, run):
    argv, code = WRITING_RUNS[run]
    out = tmp_path / "out"
    assert quiet_main([*argv(tmp_path), "--out-dir", str(out)]) == code
    capsys.readouterr()
    manifest = read_json(out / "manifest.json")
    assert sorted(path.name for path in out.iterdir()) == manifest["outputs"]


@pytest.mark.parametrize("run", WRITING_RUNS)
def test_rerun_from_manifest_writes_the_same_bytes(tmp_path, capsys, run):
    argv, code = WRITING_RUNS[run]
    first = tmp_path / "first"
    second = tmp_path / "second"
    argv = argv(tmp_path)
    assert quiet_main([*argv, "--out-dir", str(first)]) == code
    out_first = capsys.readouterr().out
    rerun = [argv[0], "--config", str(first / "manifest.json"), "--out-dir", str(second)]
    assert quiet_main(rerun) == code
    assert capsys.readouterr().out == out_first
    names = sorted(path.name for path in first.iterdir())
    assert sorted(path.name for path in second.iterdir()) == names
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes()


LEVEL = ["alpha", "epsilon", "delta", "lambda"]
SOURCES = ["norm", "seed", "mixture", "m", "shape_csv", "n", "train_csv", "strict"]
COMMAND_SETTINGS = {
    "samplesize": LEVEL,
    "calibrate": LEVEL + SOURCES,
    "coverage": LEVEL + ["norm", "seed", "mixture", "m", "trials", "coverage_samples"],
    "raster": LEVEL + SOURCES + ["resolution", "bbox"],
    "solve": ["model", "bundled_example"],
}
# One value of the wrong JSON type for each setting.
WRONGLY_TYPED = {
    "alpha": "0.9",
    "epsilon": None,
    "delta": [0.05],
    "lambda": True,
    "norm": 2,
    "seed": 1.5,
    "strict": "no",
    "mixture": 5,
    "m": "10",
    "shape_csv": ["shape.csv"],
    "n": 50.0,
    "train_csv": {"path": "train.csv"},
    "trials": True,
    "coverage_samples": 1e5,
    "resolution": "128",
    "bbox": [-1, 1, -1],
    "model": False,
    "bundled_example": 1,
}
# Values of the right JSON type that a setting still refuses, and its flag.
OUT_OF_RANGE = {
    "norm": ("--norm", ["l3"]),
    "m": ("--m", [0, -1]),
    "n": ("--n", [0, -1]),
    "trials": ("--trials", [0, -1]),
    "coverage_samples": ("--mc-samples", [0, -1]),
    "resolution": ("--resolution", [0, -1]),
}
OUT_OF_RANGE_CASES = [
    pytest.param(command, key, value, id=f"{command}-{key}={value}")
    for command, keys in COMMAND_SETTINGS.items()
    for key in keys
    if key in OUT_OF_RANGE
    for value in OUT_OF_RANGE[key][1]
]
WRONG_TYPE_CASES = [
    pytest.param("calibrate", {"mixture": "peaked", "m": 10, "alpha": [1]}, "alpha", id="list-alpha"),
    pytest.param("calibrate", {"mixture": 5, "m": 10}, "mixture", id="numeric-mixture"),
    pytest.param(
        "calibrate", {"mixture": "peaked", "m": 10, "strict": "no"}, "strict", id="string-strict"
    ),
] + [
    pytest.param(command, {key: WRONGLY_TYPED[key]}, key, id=f"{command}-{key}")
    for command, keys in COMMAND_SETTINGS.items()
    for key in keys
    if not (command == "calibrate" and key in ("alpha", "mixture", "strict"))
] + [
    pytest.param(command, {key: value}, key, id=f"{command}-{key}={value}")
    for command, key, value in (case.values for case in OUT_OF_RANGE_CASES)
]


class TestConfigResolution:
    def test_config_file_then_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.8, "epsilon": 0.12}))
        rc = main(["samplesize", "--config", str(cfg), "--alpha", "0.85"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["alpha"] == 0.85
        assert payload["epsilon"] == 0.12

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["samplesize", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_manifest_for_other_command_exits_2(self, tmp_path, capsys):
        assert main(["solve", "--bundled-example", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = main(["calibrate", "--config", str(tmp_path / "manifest.json")])
        assert rc == 2
        assert "calibrate" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config, key", WRONG_TYPE_CASES)
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, command, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg)]
        if command != "samplesize":
            argv += ["--out-dir", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config key {key!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", OUT_OF_RANGE_CASES)
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, command, key, value):
        flag = OUT_OF_RANGE[key][0]
        out = tmp_path / "out"
        assert main([command, flag, str(value), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config key {key!r} ({flag})" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["samplesize", "calibrate", "solve"])
    def test_deeply_nested_config_exits_2(self, tmp_path, capsys, command):
        cfg = write_deep_json(tmp_path / "cfg.json")
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "nested too deeply" in captured.err
        assert captured.out == ""

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["samplesize", "--config", "/nonexistent/cfg.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")


# Each asks for an array above 100 TiB, which numpy refuses before touching
# memory: n_min is about 1.2e13 at eps=1e-6, and 12M x 12M cells is 131 TiB.
# Draw counts of 2**63 or more do not fit numpy's integer sampling.
OVERSIZE_ARGVS = [
    ["calibrate", "--mixture", "peaked", "--m", "10", "--eps", "1e-6"],
    ["calibrate", "--mixture", "peaked", "--m", "10000000000000"],
    ["coverage", "--mixture", "peaked", "--m", "10", "--eps", "1e-6", "--trials", "1"],
    ["coverage", "--mixture", "peaked", "--m", "10", "--trials", "1",
     "--mc-samples", "100000000000000000000"],
    ["raster", "--mixture", "peaked", "--m", "10", "--resolution", "12000000"],
]


@pytest.mark.parametrize("argv", OVERSIZE_ARGVS, ids=["n_min", "m", "trial", "mc", "raster"])
def test_request_too_large_to_allocate_exits_2(tmp_path, capsys, argv):
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ballcover", "samplesize"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_min"] == 4918
