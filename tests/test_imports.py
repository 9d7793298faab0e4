"""Importing ballcover, and the commands that never need scipy, load no scipy module."""

import json
import subprocess
import sys

SCRIPT = """
import contextlib, io, json, sys, tempfile
import ballcover
from ballcover import cli

with contextlib.redirect_stdout(io.StringIO()), tempfile.TemporaryDirectory() as tmp:
    codes = [
        cli.main(["samplesize"]),
        cli.main(["solve", "--bundled-example", "--out-dir", tmp]),
        cli.main(
            ["raster", "--mixture", "fourmode", "--m", "50", "--resolution", "16", "--out-dir", tmp]
        ),
    ]
scipy = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_cli_commands_load_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, check=True
    )
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    assert result["scipy"] == []
