"""Smoke tests of the analysis scripts: each parses its arguments, and each
runs end to end at a tiny size.  Nothing else in the suite runs them."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# script -> (tiny-size arguments, a line its stdout must contain)
TINY_RUNS = {
    "bias_sweep.py": (["--chains", "50", "--gammas", "0.2"], "   0.200     50 "),
    "gamma_shape.py": (["--chains", "50", "--steps", "50"], "W2^2 exact draws vs quantiles:"),
}


def _run(script, args, cwd=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, env=env, timeout=60, cwd=cwd,
    )


def test_scripts_exist():
    assert SCRIPTS
    assert sorted(s.name for s in SCRIPTS) == sorted(TINY_RUNS)


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_runs(script):
    proc = _run(script, ["--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_runs_end_to_end(script, tmp_path):
    args, line = TINY_RUNS[script.name]
    proc = _run(script, args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout, proc.stdout
