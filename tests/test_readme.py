"""The README's Python examples run as written, each in a fresh namespace,
and its example config passes the CLI's checks, so an API or config change
that leaves the README behind fails here."""

import json
import pathlib
import re

import pytest

import proxlmc
from proxlmc.cli import _EXPERIMENT_KEYS, _build, resolve_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.S | re.M)
CONFIGS = re.findall(r"^cat > \S+\.json <<'EOF'\n(.*?)^EOF$", TEXT, flags=re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block-{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_readme_example_config_passes_the_config_checks():
    """resolve_config and _build make every check a run makes before its
    first step, so the example is a valid run without sampling it."""
    assert CONFIGS
    for body in CONFIGS:
        cfg = resolve_config(json.loads(body))
        assembled, x0 = _build(cfg)
        assert x0.shape == assembled.shape


def test_readme_lists_each_experiments_keys():
    rows = re.findall(r"^\| `([\w-]+)` +\| (.*?) +\|", TEXT, flags=re.M)
    listed = {name: set(re.findall(r"`(\w+)`", keys)) for name, keys in rows}
    assert listed == _EXPERIMENT_KEYS


def test_readme_names_only_api_that_exists():
    """Every name the README writes as a backticked call, `Name(`, is a
    proxlmc export or a method of a potential."""
    calls = set(re.findall(r"`(\w+)\(", TEXT))
    methods = set(dir(proxlmc.NonsmoothPotential)) | set(dir(proxlmc.SmoothPotential))
    assert calls and sorted(calls - set(proxlmc.__all__) - methods) == []
