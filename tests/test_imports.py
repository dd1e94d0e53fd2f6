"""Start-up guards: the modules a fresh interpreter loads for each entry point."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _scipy_modules(code):
    """Sorted names of the scipy modules loaded after running ``code`` in a
    fresh interpreter that imports ``otspec`` from this checkout."""
    probe = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules"
        + " if m == 'scipy' or m.startswith('scipy.'))))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["concentration", "brenier", "measures"])
def test_layer_loads_no_quadrature_interpolation_or_optimizer(module):
    loaded = _scipy_modules(f"import otspec.{module}")
    heavy = ("scipy.integrate", "scipy.interpolate", "scipy.optimize")
    assert [m for m in loaded if m.startswith(heavy)] == []


def _cli_scipy_modules(tmp_path, config):
    """The scipy modules a fresh ``cli.main`` run of ``config`` loads."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [config["kind"], "--config", str(path), "--out", str(tmp_path)]
    return _scipy_modules(f"from otspec import cli\nassert cli.main({argv!r}) == 0")


def test_geometry_selftest_loads_no_scipy(tmp_path):
    config = {"kind": "geometry-selftest", "pairs": 4, "dims": [2, 3]}
    assert _cli_scipy_modules(tmp_path, config) == []


def test_gamma2_check_loads_no_scipy(tmp_path):
    config = {"kind": "gamma2-check", "triples": 3, "points": 10}
    assert _cli_scipy_modules(tmp_path, config) == []


def test_no_source_file_imports_integrate_or_interpolate():
    pattern = re.compile(
        r"^\s*(from|import)\s+scipy\b.*\b(integrate|interpolate)\b", re.MULTILINE
    )
    sources = sorted((SRC / "otspec").rglob("*.py"))
    assert sources
    assert [p.name for p in sources if pattern.search(p.read_text())] == []
