"""The README's Python examples run as written, each in a fresh namespace,
and its example config passes the CLI's checks, so an API or config change
that leaves the README behind fails here."""

import json
import math
import pathlib
import re
from dataclasses import asdict

import pytest

import proxlmc
from proxlmc.cli import _EXPERIMENTS, _build, main, resolve_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.S | re.M)
CONFIGS = re.findall(r"^cat > \S+\.json <<'EOF'\n(.*?)^EOF$", TEXT, flags=re.S | re.M)
# the experiment table: (id, keys, defaults) per row
EXPERIMENT_ROWS = re.findall(r"^\| `([\w-]+)` +\| (.*?) +\| (.*?) +\|$", TEXT, flags=re.M)


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
    listed = {name: set(re.findall(r"`(\w+)`", keys)) for name, keys, _ in EXPERIMENT_ROWS}
    assert listed == {name: row[0] for name, row in _EXPERIMENTS.items()}


@pytest.mark.parametrize("inputs", [{}, {"gamma": 0.3, "d": 3}], ids=["defaults", "gamma-d"])
def test_readme_states_each_experiments_defaults(inputs):
    """Each "key expression" of the defaults column, evaluated on the resolved
    config, is that config's value; with inputs the formulas of gamma and d
    are tried off their defaults too."""
    assert EXPERIMENT_ROWS
    for name, _, defaults in EXPERIMENT_ROWS:
        keys = _EXPERIMENTS[name][0]
        stated = dict(item.split(" ", 1) for item in re.split(r"[,;] ", defaults))
        assert set(stated) == keys | {"gamma", "num_steps"}
        raw = {"experiment": name, **{k: v for k, v in inputs.items() if k in stated}}
        cfg = resolve_config(raw)
        for key, expr in stated.items():
            if key not in raw:
                assert getattr(cfg, key) == eval(expr, {"ceil": math.ceil}, asdict(cfg)), key


def test_readme_names_only_api_that_exists():
    """Every name the README writes as a backticked call, `Name(`, is a
    proxlmc export or a method of a potential."""
    calls = set(re.findall(r"`(\w+)\(", TEXT))
    methods = set(dir(proxlmc.NonsmoothPotential)) | set(dir(proxlmc.SmoothPotential))
    assert calls and sorted(calls - set(proxlmc.__all__) - methods) == []


def test_readme_lists_the_c_estimate_keys_of_a_real_report(tmp_path):
    """The bullets of "The C estimate" name every key of a report's
    c_estimate block, and its value is the stated sum."""
    section = TEXT.split("### The C estimate\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)`:", section, flags=re.M)
    body = {"experiment": "wishart-mean-1d", "minibatch": 5, "num_steps": 50, "seed": 3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(body))
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    c = json.loads((tmp_path / "run" / "report.json").read_text())["c_estimate"]
    assert sorted(listed) == sorted(c)
    assert c["sigma_f_sq"] > 0
    assert c["value"] == c["grad_sq_mean"] + 2.0 * (c["L"] * c["ambient_dim"] + c["sigma_f_sq"])
