"""The package's public surface, and the scipy-free import path.

Importing ballcover, and the commands that never need scipy, load no
scipy module; nor do they load concurrent.futures, which only the
consistency experiment uses.  The benchmark's tracer finds every name it
wraps.  A module imports another module's private names only where the
allow-list below says so.
"""

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ballcover

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

# The names the README's library example uses; everything else is imported
# from its submodule.
TOP_LEVEL = {
    "__version__",
    "CalibrationSpec",
    "Norm",
    "RandomStream",
    "bundled_mixture",
    "calibrate_radius",
    "worst_case_linear",
}
SUBMODULES = [
    info.name for info in pkgutil.iter_modules(ballcover.__path__) if info.name != "__main__"
]

# Every (importer, module, private name) of a ``from .module import _name``
# in the package.  A new one is a decision moved out of its module, so it is
# added here on purpose.
PRIVATE_IMPORTS = {
    ("calibration", "geometry", "_matrix"),
    ("cli", "experiments", "_volume_box"),
    ("experiments", "geometry", "_CHUNK_BUDGET"),
    ("experiments", "geometry", "_member_columns"),
    ("experiments", "geometry", "_pair_rule"),
    ("mixtures", "geometry", "_CHUNK_BUDGET"),
}

SCRIPT = """
import contextlib, io, json, sys, tempfile
import ballcover
from ballcover import cli

with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
    codes = [
        cli.main(["samplesize"]),
        cli.main(["calibrate", "--mixture", "peaked", "--m", "10", "--out-dir", tmp]),
        cli.main(["solve", "--bundled-example", "--out-dir", tmp]),
        cli.main(
            ["raster", "--mixture", "fourmode", "--m", "50", "--resolution", "16", "--out-dir", tmp]
        ),
    ]
scipy = sorted(name for name in sys.modules if name.startswith("scipy"))
futures = sorted(name for name in sys.modules if name.startswith("concurrent.futures"))
print(json.dumps({"codes": codes, "scipy": scipy, "futures": futures}))
"""


def test_cli_commands_load_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, check=True
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["scipy"] == []
    assert result["futures"] == []


def test_top_level_exports_exactly_the_library_names():
    assert len(ballcover.__all__) == len(TOP_LEVEL)
    assert set(ballcover.__all__) == TOP_LEVEL
    assert [name for name in ballcover.__all__ if not hasattr(ballcover, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_export_exists(name):
    module = importlib.import_module(f"ballcover.{name}")
    assert [export for export in module.__all__ if not hasattr(module, export)] == []


def test_benchmark_tracer_wraps_names_that_exist(monkeypatch):
    # benchmarks/tracing.py rebinds ballcover names by getattr, so renaming
    # or deleting one of them fails here.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        wrapped = list(tracer._restore)
    finally:
        tracer.uninstall()
    assert wrapped
    assert [attr for owner, attr, original in wrapped if getattr(owner, attr) is not original] == []


def test_cross_module_private_imports_are_the_allowed_ones():
    found = set()
    for path in Path(ballcover.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # The package imports its own modules relatively.
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    assert found == PRIVATE_IMPORTS
