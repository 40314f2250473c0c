import csv
import hashlib
import json
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from proxlmc import (
    BoxIndicator,
    ChainTrace,
    LogBarrier,
    QuadraticSum,
    RngStream,
    SamplerConfig,
    TruncGaussSpec,
    WishartExperimentSpec,
    assemble_experiment,
    estimate_C,
    generate_gaussian_data,
    posterior_ground_truth,
    run_chain,
)
from proxlmc.cli import (
    _BLOCK,
    _EXPERIMENTS,
    ConfigError,
    _build,
    _digest,
    _resolve_out_dir,
    _write_histogram_csv,
    _write_trace_csv,
    load_config,
    main,
    resolve_config,
)
from proxlmc.space import flatten_points


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_defaults_for_trunc_gauss():
    cfg = resolve_config({"experiment": "trunc-gauss"})
    assert cfg.sampler == "psgla"
    assert cfg.gamma == 0.1
    assert cfg.num_steps == 100  # ceil(10 / gamma)
    assert cfg.burn_in == 0
    assert cfg.minibatch == "full"
    assert cfg.seed == 0
    assert cfg.num_chains == 1
    assert cfg.snapshot_steps == [100]
    assert (cfg.mean, cfg.lo, cfg.hi) == (0.0, -1.0, 1.0)


def test_defaults_for_wishart_experiments():
    m = resolve_config({"experiment": "wishart-mean-1d"})
    assert m.gamma == 0.01 and m.num_steps == 10000 and m.nu == 3.0 and m.n == 50
    p = resolve_config({"experiment": "wishart-precision", "d": 3})
    assert p.gamma == 0.1 and p.nu == 7.0 and p.d == 3
    assert p.data_seed == 1


def test_unknown_and_inapplicable_keys_error():
    with pytest.raises(ConfigError, match="experiment"):
        resolve_config({})
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config({"experiment": "trunc-gauss", "turbo": True})
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config({"experiment": "trunc-gauss", "d": 2})
    with pytest.raises(ConfigError, match="unknown config keys"):
        resolve_config({"experiment": "wishart-precision", "lo": 0.0})


@pytest.mark.parametrize("command", ["sample", "experiment"])
@pytest.mark.parametrize("value", [["trunc-gauss"], {"id": "trunc-gauss"}], ids=["list", "object"])
def test_an_unhashable_experiment_is_a_config_error(tmp_path, capsys, value, command):
    """The experiment table is a dict, and looking up a list or an object
    in it would raise TypeError."""
    path = write_config(tmp_path, {"experiment": value})
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: experiment must be one of ('trunc-gauss', 'wishart-mean-1d', "
        f"'wishart-precision'), got {value!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_every_experiment_resolves_and_builds_at_its_defaults(experiment):
    cfg = resolve_config({"experiment": experiment})
    assembled, x0 = _build(cfg)
    assert x0.shape == assembled.shape
    assert cfg.snapshot_steps == [cfg.num_steps]


def test_myula_lambda_rules():
    with pytest.raises(ConfigError, match="myula_lambda"):
        _build(resolve_config({"experiment": "trunc-gauss", "sampler": "myula"}))
    cfg = resolve_config(
        {"experiment": "trunc-gauss", "sampler": "myula", "myula_lambda": 0.2}
    )
    assert cfg.myula_lambda == 0.2
    with pytest.raises(ConfigError, match="myula"):
        resolve_config({"experiment": "trunc-gauss", "myula_lambda": 0.2})


def test_spla_r_weight_rules():
    cfg = resolve_config(
        {"experiment": "trunc-gauss", "sampler": "spla", "spla_r_weight": 0.3}
    )
    assert cfg.spla_r_weight == 0.3
    with pytest.raises(ConfigError, match="spla"):
        resolve_config({"experiment": "trunc-gauss", "spla_r_weight": 0.3})
    zero = resolve_config({"experiment": "trunc-gauss", "sampler": "spla", "spla_r_weight": 0.0})
    assembled, x0 = _build(zero)
    spla, psgla = (run_chain(sampler, assembled.smooth, assembled.nonsmooth, zero, x0)
                   for sampler in ("spla", "psgla"))
    assert np.array_equal(spla.primal, psgla.primal)  # a zero weight runs spla without R


def test_snapshot_steps_validation():
    base = {"experiment": "trunc-gauss", "num_steps": 50}
    with pytest.raises(ConfigError):
        resolve_config({**base, "snapshot_steps": [0]})
    with pytest.raises(ConfigError):
        resolve_config({**base, "snapshot_steps": [51]})
    with pytest.raises(ConfigError):
        resolve_config({**base, "snapshot_steps": []})
    with pytest.raises(ConfigError):
        resolve_config({**base, "burn_in": 10, "snapshot_steps": [10]})
    cfg = resolve_config({**base, "snapshot_steps": [30, 10]})
    assert cfg.snapshot_steps == [10, 30]


def test_duplicate_snapshot_steps_are_a_config_error(tmp_path, capsys):
    body = {"experiment": "trunc-gauss", "num_steps": 50, "snapshot_steps": [5, 5, 10]}
    with pytest.raises(ConfigError, match="distinct"):
        resolve_config(body)
    cfg = write_config(tmp_path, body)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "distinct" in capsys.readouterr().err


def test_type_checking_of_fields():
    with pytest.raises(ConfigError, match="gamma"):
        resolve_config({"experiment": "trunc-gauss", "gamma": "0.1"})
    with pytest.raises(ConfigError, match="seed"):
        resolve_config({"experiment": "trunc-gauss", "seed": True})
    with pytest.raises(ConfigError, match="num_steps"):
        resolve_config({"experiment": "trunc-gauss", "num_steps": 10.5})
    with pytest.raises(ConfigError, match="record_duals"):
        resolve_config({"experiment": "trunc-gauss", "record_duals": 1})
    with pytest.raises(ConfigError, match="lo < hi"):
        _build(resolve_config({"experiment": "trunc-gauss", "lo": 1.0, "hi": -1.0}))
    with pytest.raises(ConfigError, match="gamma"):
        resolve_config({"experiment": "wishart-precision", "gamma": float("inf")})


@pytest.mark.parametrize(
    "body",
    [
        {"experiment": "wishart-precision", "d": 2, "nu": float("nan")},
        {"experiment": "trunc-gauss", "mean": float("nan")},
        {"experiment": "trunc-gauss", "x0": float("inf")},
        {"experiment": "trunc-gauss", "sampler": "myula", "myula_lambda": float("inf")},
        {"experiment": "trunc-gauss", "sampler": "spla", "spla_r_weight": float("nan")},
        # an infinite truncation bound breaks the quantile oracle, so lo/hi are finite too
        {"experiment": "trunc-gauss", "lo": float("-inf")},
    ],
    ids=["nu", "mean", "x0", "myula_lambda", "spla_r_weight", "lo"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, body):
    key = [k for k in body if k not in ("experiment", "d", "sampler")][0]
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        resolve_config(body)
    cfg = write_config(tmp_path, body)  # json writes NaN / Infinity literals
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [
        {"experiment": "wishart-precision", "d": 3, "nu": 1.5},
        {"experiment": "wishart-precision", "d": 3, "n": 1, "nu": 2.5},
        {"experiment": "wishart-mean-1d", "nu": 1.0},
    ],
    ids=["nu-below-d-1", "negative-alpha", "mean-1d-negative-alpha"],
)
def test_unnormalizable_wishart_nu_is_a_config_error(tmp_path, capsys, body):
    """nu > d - 1 and a log-barrier weight alpha = ((nu + n) - d - 1)/2 >= 0
    (n = 0 for the prior-only mean-1d barrier) are checked at the boundary."""
    with pytest.raises(ConfigError, match="nu"):
        _build(resolve_config(body))
    cfg = write_config(tmp_path, body)
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before anything is written


def test_mean_1d_barrier_error_states_the_prior_only_bound(tmp_path, capsys):
    """mean-1d's barrier is the prior's alone, so the bound and the weight
    the error states use n = 0, whatever the config's n."""
    body = {"experiment": "wishart-mean-1d", "n": 1, "nu": 0.5}
    path = write_config(tmp_path, body)
    assert main(["experiment", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "config error: the Wishart log barrier of the prior alone, n = 0, needs "
        "nu >= d + 1 - n = 2, got nu = 0.5: its weight alpha = ((nu + n) - d - 1)/2 "
        "would be -0.75 < 0\n")


@pytest.mark.parametrize("command", ["sample", "experiment"])
@pytest.mark.parametrize(
    "body, message",
    [
        ({"experiment": "wishart-precision", "sampler": "projected"}, "indicator G"),
        ({"experiment": "wishart-mean-1d", "sampler": "projected"}, "indicator G"),
        (
            {"experiment": "trunc-gauss", "num_steps": 50, "burn_in": 10, "record_every": 41},
            "no step would be recorded",
        ),
        ({"experiment": "wishart-mean-1d", "num_chains": 4}, "quantile oracle"),
        ({"experiment": "wishart-precision", "d": 2, "num_chains": 4}, "quantile oracle"),
    ],
    ids=["projected-precision", "projected-mean-1d", "record-every", "chains-mean-1d",
         "chains-precision-d2"],
)
def test_runs_that_cannot_do_what_they_ask_are_config_errors(tmp_path, capsys, body, message,
                                                             command):
    """Each of these used to exit 1 mid-run, write a header-only trace, or
    drop the ensemble without a word."""
    with pytest.raises(ConfigError, match=message):
        _build(resolve_config(body))
    cfg = write_config(tmp_path, body)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before anything is written


def _wishart(kind, d, nu, n=50):
    return WishartExperimentSpec(kind=kind, d=d, nu=nu, data=np.ones((n, d)))


def _one_step(sampler, **fields):
    """run_chain for one step of sampler on a trunc-gauss-like target."""
    return run_chain(sampler, QuadraticSum(np.zeros((1, 1))), BoxIndicator([-1.0], [1.0]),
                     SamplerConfig(gamma=0.1, num_steps=1, **fields), np.zeros(1))


# Rules stated once, in the library, that a CLI run reaches through
# resolve_config (the sampler config's own rules) or _build: (config,
# message, the library call that raises it).  The chains rule is the
# CLI's own, so its library call shows the missing oracle instead.
_STATED_ONCE = {
    "unknown-sampler": ({"experiment": "trunc-gauss", "sampler": "bogus"},
                        "unknown sampler 'bogus'", lambda: _one_step("bogus")),
    "myula-without-lambda": ({"experiment": "trunc-gauss", "sampler": "myula"},
                             "myula_lambda > 0", lambda: _one_step("myula")),
    "myula-lambda-zero": ({"experiment": "trunc-gauss", "sampler": "myula", "myula_lambda": 0.0},
                          "myula_lambda > 0", lambda: _one_step("myula", myula_lambda=0.0)),
    "myula-lambda-negative": ({"experiment": "wishart-precision", "sampler": "myula",
                               "myula_lambda": -1.0},
                              "myula_lambda > 0", lambda: _one_step("myula", myula_lambda=-1.0)),
    "negative-spla-weight": ({"experiment": "trunc-gauss", "sampler": "spla",
                              "spla_r_weight": -0.3},
                             "weight must be a finite number >= 0, got -0.3",
                             lambda: SamplerConfig(0.1, 1, spla_r_weight=-0.3)),
    "d-zero": ({"experiment": "wishart-precision", "d": 0}, "d must be >= 1, got 0",
               lambda: WishartExperimentSpec("precision", 0, 3.0, np.zeros((5, 0)))),
    "d-negative": ({"experiment": "wishart-precision", "d": -1}, "d = -1",
                   lambda: generate_gaussian_data(50, -1, RngStream(1, 0))),
    "n-zero-precision": ({"experiment": "wishart-precision", "n": 0}, "n >= 1",
                         lambda: generate_gaussian_data(0, 1, RngStream(1, 0))),
    "n-zero-mean-1d": ({"experiment": "wishart-mean-1d", "n": 0}, "n >= 1",
                       lambda: generate_gaussian_data(0, 1, RngStream(1, 0))),
    "lo-not-below-hi": ({"experiment": "trunc-gauss", "lo": 1.0, "hi": 1.0}, "lo < hi",
                        lambda: TruncGaussSpec(lo=1.0, hi=1.0)),
    "low-mass-box": ({"experiment": "trunc-gauss", "lo": 10.0, "hi": 11.0}, "mass 0 < 1e-06",
                     lambda: TruncGaussSpec(lo=10.0, hi=11.0)),
    "nu-below-d-1": ({"experiment": "wishart-precision", "d": 3, "nu": 2.0}, "nu > d - 1",
                     lambda: _wishart("precision", 3, 2.0)),
    "precision-negative-alpha": ({"experiment": "wishart-precision", "d": 3, "n": 1, "nu": 2.5},
                                 r"nu >= d \+ 1 - n = 3",
                                 lambda: assemble_experiment(_wishart("precision", 3, 2.5, n=1))),
    "mean-1d-negative-alpha": ({"experiment": "wishart-mean-1d", "nu": 1.0},
                               r"nu >= d \+ 1 - n = 2",
                               lambda: assemble_experiment(_wishart("mean-1d", 1, 1.0))),
    "projected-on-a-barrier": ({"experiment": "wishart-mean-1d", "sampler": "projected"},
                               "needs an indicator G",
                               lambda: run_chain("projected", QuadraticSum(np.ones((5, 1))),
                                                 LogBarrier(1.0, 0.5),
                                                 SamplerConfig(gamma=0.01, num_steps=1),
                                                 np.ones(1))),
    "chains-without-oracle": ({"experiment": "wishart-mean-1d", "num_chains": 4},
                              "quantile oracle",
                              lambda: assemble_experiment(_wishart("mean-1d", 1, 3.0))),
}


@pytest.mark.parametrize("command", ["sample", "experiment"])
@pytest.mark.parametrize("rule", list(_STATED_ONCE))
def test_a_rule_stated_once_reaches_the_cli(tmp_path, capsys, rule, command):
    body, message, library = _STATED_ONCE[rule]
    if rule == "chains-without-oracle":
        assert library().quantile_oracle is None
    else:
        with pytest.raises(ValueError, match=message):
            library()
    with pytest.raises(ConfigError, match=message):
        _build(resolve_config(body))
    path = write_config(tmp_path, body)
    assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before anything is written
    assert err.startswith("config error: ")
    assert re.search(message, err)


def test_a_sampler_rule_is_checked_after_the_experiment_warns(tmp_path, capsys):
    """The sampler's rules are check_run's, made on the assembled
    experiment, so the moment-regime warning comes first."""
    body = {"experiment": "wishart-precision", "d": 3, "n": 1, "nu": 3.5, "sampler": "bogus"}
    cfg = resolve_config(body)
    with pytest.warns(RuntimeWarning, match="moment regime"):
        with pytest.raises(ConfigError, match="unknown sampler 'bogus'"):
            _build(cfg)
    path = write_config(tmp_path, body)
    with pytest.warns(RuntimeWarning, match="moment regime"):
        assert main(["sample", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown sampler 'bogus'")
    assert not (tmp_path / "o").exists()


def test_a_rejected_wishart_config_does_not_warn():
    """n + nu <= d + 3 would warn, but the negative barrier weight is found first."""
    cfg = resolve_config({"experiment": "wishart-precision", "d": 3, "n": 1, "nu": 2.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="nu"):
            _build(cfg)


def test_record_every_may_record_exactly_one_step():
    cfg = resolve_config(
        {"experiment": "trunc-gauss", "num_steps": 50, "burn_in": 10, "record_every": 40}
    )
    assert cfg.record_every == 40


def test_overrides_beat_config_values():
    raw = {"experiment": "trunc-gauss", "seed": 3, "num_chains": 4}
    cfg = resolve_config(raw, seed_override=9, chains_override=16)
    assert cfg.seed == 9
    assert cfg.num_chains == 16


def test_build_applies_scalar_x0():
    flat = resolve_config({"experiment": "trunc-gauss", "x0": 0.25})
    _, x0 = _build(flat)
    assert np.array_equal(x0, [0.25])
    mat = resolve_config({"experiment": "wishart-precision", "d": 2, "x0": 2.0})
    _, x0m = _build(mat)
    assert np.array_equal(x0m, 2.0 * np.eye(2))


def test_build_wires_the_spla_r_term(tmp_path):
    """The config's spla_r_weight reaches the kernel: each step of a d = 2
    run soft-thresholds one drawn diagonal entry, so the trace moves off
    the run without it."""
    body = {"experiment": "wishart-precision", "d": 2, "sampler": "spla", "num_steps": 30}
    traces = []
    for weight in (0.2, None):
        out = tmp_path / f"run-{weight}"
        config = write_config(tmp_path, {**body, "spla_r_weight": weight})
        assert main(["sample", "--config", config, "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] != traces[1]


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(arr))


def test_out_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv("PROXLMC_OUT", raising=False)
    assert _resolve_out_dir(None, None) == "./out"
    assert _resolve_out_dir(None, str(tmp_path / "cfg")) == str(tmp_path / "cfg")
    monkeypatch.setenv("PROXLMC_OUT", str(tmp_path / "env"))
    assert _resolve_out_dir(None, str(tmp_path / "cfg")) == str(tmp_path / "env")
    assert _resolve_out_dir(str(tmp_path / "flag"), str(tmp_path / "cfg")) == str(
        tmp_path / "flag"
    )


# ---------------------------------------------------------------------------
# sample command
# ---------------------------------------------------------------------------

def test_sample_writes_trace_and_manifest(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "trunc-gauss", "num_steps": 40, "record_duals": True, "seed": 2},
    )
    out = tmp_path / "run"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0

    rows = read_rows(out / "trace.csv")
    assert rows[0] == ["step", "x0", "y0", "feasible"]
    assert len(rows) == 41
    assert [r[0] for r in rows[1:4]] == ["1", "2", "3"]
    xs = np.array([float(r[1]) for r in rows[1:]])
    assert np.all((-1.0 <= xs) & (xs <= 1.0))
    assert all(r[-1] == "1" for r in rows[1:])

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["config"]["experiment"] == "trunc-gauss"
    assert manifest["outputs"]["trace.csv"] == sha256(out / "trace.csv")
    assert manifest["step_size_warning"] is False
    assert manifest["wall_time_s"] > 0


def test_manifest_echoes_every_config_field_but_out(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "wishart-precision", "d": 2, "sampler": "spla", "spla_r_weight": 0.2,
         "minibatch": 4, "num_steps": 30, "snapshot_steps": [30, 10], "nu": 5,
         "out": str(tmp_path / "ignored")},
    )
    out = tmp_path / "run"
    assert main(["sample", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {
        "experiment": "wishart-precision", "sampler": "spla", "gamma": 0.1, "num_steps": 30,
        "burn_in": 0, "minibatch": 4, "myula_lambda": None, "seed": 3, "record_every": 1,
        "record_duals": False, "num_chains": 1, "snapshot_steps": [10, 30], "x0": None,
        "spla_r_weight": 0.2, "d": 2, "nu": 5.0, "n": 50, "data_seed": 1, "mean": 0.0,
        "lo": -1.0, "hi": 1.0,
    }
    assert isinstance(manifest["config"]["nu"], float)


def test_sample_matrix_trace_has_flat_coordinates(tmp_path):
    cfg = write_config(
        tmp_path,
        {"experiment": "wishart-precision", "d": 2, "nu": 6.0, "n": 10, "num_steps": 15},
    )
    out = tmp_path / "run"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "trace.csv")
    assert rows[0] == ["step", "x0", "x1", "x2", "feasible"]
    assert len(rows) == 16
    assert all(r[-1] == "1" for r in rows[1:])


def test_trace_csv_flags_iterates_outside_the_box_in_csv_writer_bytes(tmp_path):
    """A ula chain leaves the box: its flags are 0 there and 1 inside, and
    the file holds the bytes csv.writer writes for its rows."""
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "sampler": "ula",
                                  "num_steps": 60, "seed": 2})
    out = tmp_path / "run"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "trace.csv")
    flags = [r[-1] for r in rows[1:]]
    assert flags == ["1" if -1.0 <= float(r[1]) <= 1.0 else "0" for r in rows[1:]]
    assert set(flags) == {"0", "1"}
    with open(tmp_path / "rewritten.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert (tmp_path / "rewritten.csv").read_bytes() == (out / "trace.csv").read_bytes()


def _one_join_trace_csv(trace, flags):
    """trace.csv's bytes as one join of every line: the writer's output
    before it wrote block by block."""
    columns = [flatten_points(trace.primal)]
    m = columns[0].shape[1]
    header = ["step"] + [f"x{i}" for i in range(m)]
    if len(trace.duals):
        header += [f"y{i}" for i in range(m)]
        columns.append(flatten_points(trace.duals))
    header.append("feasible")
    values = np.concatenate(columns, axis=1).T.tolist()
    rows = zip(map(str, trace.steps), *[map(repr, col) for col in values],
               ("1" if flag else "0" for flag in flags.tolist()))
    return "\r\n".join([",".join(header), *map(",".join, rows), ""]).encode()


def _synthetic_trace(shape, num_rows, duals, seed=30):
    rng = RngStream(seed, 0)
    points = rng.standard_normal((2, num_rows, *shape))
    if len(shape) == 2:
        points = points + np.swapaxes(points, -1, -2)
    return ChainTrace(steps=range(4, 4 + 3 * num_rows, 3), primal=points[0],
                      duals=points[1] if duals else points[1][:0], mean_checkpoints=[])


@pytest.mark.parametrize("duals", [False, True], ids=["primal", "duals"])
@pytest.mark.parametrize("shape", [(1,), (3, 3)], ids=["flat-1", "matrix-3x3"])
@pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["1-row", "block-1", "block", "block+1"])
def test_trace_csv_written_by_block_equals_one_join(tmp_path, shape, duals, offset):
    """Rows around one block of _BLOCK fields: the block writer's bytes are
    those of one join of every line."""
    m = 1 if shape == (1,) else 6
    per_block = _BLOCK // (2 + m * (2 if duals else 1))
    num_rows = 1 if offset is None else per_block + offset
    trace = _synthetic_trace(shape, num_rows, duals)
    flags = trace.primal.reshape(num_rows, -1)[:, 0] > 0
    _write_trace_csv(tmp_path / "trace.csv", trace, flags)
    assert (tmp_path / "trace.csv").read_bytes() == _one_join_trace_csv(trace, flags)


def test_digest_of_a_file_longer_than_one_read_is_its_sha256(tmp_path):
    data = RngStream(30, 1).integers(256, 3 * 65536 + 17).astype(np.uint8).tobytes()
    (tmp_path / "blob").write_bytes(data)
    assert _digest(tmp_path / "blob") == hashlib.sha256(data).hexdigest()


def test_trace_csv_of_a_long_trace_holds_one_block_in_memory(tmp_path):
    """100k rows of a flat trace with duals: the writer used to hold every
    value as a Python float and a string at once, about 21 MiB."""
    trace = _synthetic_trace((1,), 100_000, duals=True)
    flags = np.ones(100_000, dtype=bool)
    tracemalloc.start()
    try:
        _write_trace_csv(tmp_path / "trace.csv", trace, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ---------------------------------------------------------------------------
# experiment command
# ---------------------------------------------------------------------------

def trunc_experiment_config(tmp_path, **extra):
    body = {
        "experiment": "trunc-gauss",
        "num_steps": 200,
        "num_chains": 16,
        "snapshot_steps": [100, 200],
        "seed": 4,
    }
    body.update(extra)
    return write_config(tmp_path, body)


def test_experiment_report_for_trunc_gauss(tmp_path):
    cfg = trunc_experiment_config(tmp_path)
    out = tmp_path / "run"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0

    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == "trunc-gauss"
    assert report["sampler"] == "psgla"
    assert report["feasibility_fraction"] == 1.0
    assert -1.0 <= report["ergodic_mean"][0] <= 1.0
    # box gradient is zero inside, F has L = 1 on a 1-d state: C = 2
    assert report["c_estimate"]["value"] == pytest.approx(2.0)
    assert report["c_estimate"]["num_skipped"] == 0
    assert [s["step"] for s in report["snapshots"]] == [100, 200]
    assert all(s["w2_sq"] >= 0 for s in report["snapshots"])
    assert "m_star" not in report

    hist = read_rows(out / "histogram.csv")
    assert hist[0] == ["bin_left", "bin_right", "count"]
    assert len(hist) == 61
    assert sum(int(r[2]) for r in hist[1:]) <= 200

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"report.json", "histogram.csv"}
    for name, digest in manifest["outputs"].items():
        assert digest == sha256(out / name)


def test_experiment_report_for_matrix_precision(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "wishart-precision",
            "d": 2,
            "nu": 6.0,
            "n": 20,
            "num_steps": 300,
            "snapshot_steps": [100, 300],
            "seed": 5,
        },
    )
    out = tmp_path / "run"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert np.asarray(report["m_star"]).shape == (2, 2)
    assert report["nu_post"] == 26.0
    assert [c["step"] for c in report["convergence"]] == [100, 300]
    assert "snapshots" not in report  # no scalar quantile oracle for d > 1
    conv = read_rows(out / "convergence.csv")
    assert conv[0] == ["step", "frobenius_to_mstar"]
    assert len(conv) == 3
    assert not (out / "histogram.csv").exists()


def test_convergence_rows_are_run_chains_running_mean_distances(tmp_path):
    """README's convergence study at tiny size: each convergence.csv row is
    ||mean - m*||_F of run_chain's running post-burn-in mean under the same
    config, at geometric snapshot steps, and the chain stays feasible."""
    steps = [int(s) for s in np.unique(np.geomspace(10, 300, 6).astype(int))]
    body = {"experiment": "wishart-precision", "d": 3, "gamma": 0.01, "num_steps": 300,
            "seed": 11, "data_seed": 101, "record_every": 3, "snapshot_steps": steps}
    out = tmp_path / "run"
    assert main(["experiment", "--config", write_config(tmp_path, body), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["feasibility_fraction"] == 1.0

    data = generate_gaussian_data(50, 3, RngStream(101, 0))
    spec = WishartExperimentSpec(kind="precision", d=3, nu=7.0, data=data)  # nu = d + 4
    asm = assemble_experiment(spec)
    m_star = posterior_ground_truth(spec).m_star.reshape(3, 3)
    cfg = SamplerConfig(gamma=0.01, num_steps=300, seed=11, record_every=3)
    trace = run_chain("psgla", asm.smooth, asm.nonsmooth, cfg, asm.default_x0(0.01),
                      mean_checkpoints=steps)
    expected = [[str(step), repr(float(np.linalg.norm(mean - m_star)))]
                for step, mean in trace.mean_checkpoints]
    assert read_rows(out / "convergence.csv") == [["step", "frobenius_to_mstar"], *expected]


def test_experiment_report_for_scalar_precision(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "experiment": "wishart-precision",
            "d": 1,
            "nu": 5.0,
            "n": 20,
            "num_steps": 200,
            "num_chains": 8,
            "snapshot_steps": [200],
            "seed": 6,
        },
    )
    out = tmp_path / "run"
    assert main(["experiment", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert "m_star" in report and "snapshots" in report
    assert (out / "histogram.csv").exists()
    assert (out / "convergence.csv").exists()


def test_mean_1d_c_estimate_is_estimate_c_on_the_chains_own_trace(tmp_path):
    """wishart-mean-1d has neither a quantile oracle nor a ground truth, so
    its C estimate averages over the recorded chain's iterates."""
    body = {"experiment": "wishart-mean-1d", "num_steps": 120, "burn_in": 20,
            "record_every": 2, "seed": 5}
    out = tmp_path / "run"
    assert main(["experiment", "--config", write_config(tmp_path, body), "--out", str(out)]) == 0
    reported = json.loads((out / "report.json").read_text())["c_estimate"]

    cfg = resolve_config(body)
    asm, x0 = _build(cfg)
    trace = run_chain(cfg.sampler, asm.smooth, asm.nonsmooth, cfg, x0)
    expected = estimate_C(trace.primal, asm.nonsmooth, asm.smooth.L, 1, 0.0)
    assert reported["sigma_f_sq"] == 0.0
    assert (reported["value"], reported["grad_sq_mean"], reported["num_skipped"]) == (
        expected.value, expected.grad_sq_mean, expected.num_skipped)


def _c_estimate_of(tmp_path, body):
    out = tmp_path / "run"
    assert main(["experiment", "--config", write_config(tmp_path, body), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())["c_estimate"]


@pytest.mark.parametrize("body", [
    {"experiment": "wishart-mean-1d", "minibatch": 5, "num_steps": 50, "seed": 3},
    {"experiment": "wishart-precision", "d": 3, "minibatch": 5, "num_steps": 50, "seed": 3},
], ids=["mean-1d", "precision-d3"])
def test_a_minibatch_report_carries_the_variance_of_the_estimate(tmp_path, body):
    """sigma_f_sq is mean_i ||e_i - mean_j e_j||^2 / b over the single-index
    estimates e_i: n D_i for mean-1d (n (x - D_i) up to sign and shift) and
    n D_i D_i^T / 2 for precision, whatever the trace."""
    reported = _c_estimate_of(tmp_path, body)
    data = _build(resolve_config(body))[0].smooth.data
    n = len(data)
    est = n * data if body["experiment"] == "wishart-mean-1d" else (
        n * np.einsum("ni,nj->nij", data, data) / 2.0).reshape(n, -1)
    expected = np.mean(np.sum((est - est.mean(axis=0)) ** 2, axis=1)) / 5
    assert reported["sigma_f_sq"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("body", [
    {"experiment": "trunc-gauss", "num_steps": 50, "seed": 3},
    {"experiment": "wishart-mean-1d", "num_steps": 50, "seed": 3},
    {"experiment": "wishart-precision", "d": 3, "num_steps": 50, "seed": 3},
], ids=["trunc-gauss", "mean-1d", "precision-d3"])
def test_a_full_gradient_report_carries_no_gradient_variance(tmp_path, body):
    assert _c_estimate_of(tmp_path, body)["sigma_f_sq"] == 0.0


def test_scalar_precision_keeps_its_gradient_variance_bits(tmp_path):
    """At d = 1 the precision estimate n D_I^2 / 2 is a positive scalar, so
    sigma^2 is the variance of its norm, the value this run has always
    reported, bit for bit."""
    body = {"experiment": "wishart-precision", "d": 1, "minibatch": 5, "num_steps": 2000,
            "seed": 3}
    assert _c_estimate_of(tmp_path, body)["sigma_f_sq"] == 357.1744273037053


def test_experiment_rerun_is_bit_identical(tmp_path):
    cfg = trunc_experiment_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_seed_override_changes_outputs(tmp_path):
    cfg = trunc_experiment_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["experiment", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["experiment", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"]["report.json"] != m2["outputs"]["report.json"]


def test_out_env_variable_is_honored(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "num_steps": 30})
    env_dir = tmp_path / "env-out"
    monkeypatch.setenv("PROXLMC_OUT", str(env_dir))
    assert main(["sample", "--config", cfg]) == 0
    assert (env_dir / "trace.csv").exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_bad_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "turbo": 1})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["sample", "--config", str(tmp_path / "nope.json")]) == 2


def test_a_subnormal_trunc_gauss_gamma_is_a_config_error(tmp_path, capsys):
    """The default num_steps = ceil(10 / gamma) overflows for gamma = 1e-320."""
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "gamma": 1e-320})
    assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: gamma = 1e-320") and "set num_steps" in err


_HUGE = 10**400  # an int no float holds


@pytest.mark.parametrize("body, keys", [
    ({"experiment": "trunc-gauss", "gamma": _HUGE}, ["gamma must be a finite number"]),
    ({"experiment": "wishart-precision", "nu": _HUGE}, ["nu must be a finite number"]),
    ({"experiment": "trunc-gauss", "x0": _HUGE}, ["x0 must be a finite number"]),
    ({"experiment": "wishart-precision", "d": _HUGE}, ["d must be a finite number"]),
    ({"experiment": "trunc-gauss", "num_steps": _HUGE}, ["num_steps must be >= 1 and < 2**63"]),
    ({"experiment": "trunc-gauss", "num_steps": 2**63}, ["num_steps must be >= 1 and < 2**63"]),
    ({"experiment": "trunc-gauss", "gamma": 1e-300}, ["gamma = 1e-300", "num_steps"]),
], ids=["gamma", "nu", "x0", "d", "num_steps", "num_steps-2**63", "default-num_steps"])
@pytest.mark.parametrize("command", ["sample", "experiment"])
def test_oversized_numbers_are_config_errors(tmp_path, capsys, body, keys, command):
    """These raised OverflowError (exit 1) or failed with "Maximum allowed
    dimension exceeded" after making the output directory."""
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and all(key in err for key in keys)
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "experiment"])
def test_an_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys, command):
    """json.load raises a plain ValueError on an integer of more than 4300
    digits, which exited 1 as a runtime error."""
    path = tmp_path / "config.json"
    path.write_text('{"experiment": "trunc-gauss", "seed": ' + "1" * 5000 + "}")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {path} ") and "4300 digits" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "experiment"])
def test_a_mean_whose_square_overflows_is_a_config_error(tmp_path, capsys, command):
    """The trunc-gauss data point 1e300 overflowed QuadraticSum's square norm
    with a warning, and the run went on to exit 0."""
    body = {"experiment": "trunc-gauss", "mean": 1e300, "lo": 1e300, "hi": 1.0000001e300}
    out = tmp_path / "o"
    assert main([command, "--config", write_config(tmp_path, body), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: QuadraticSum data overflow")
    assert not out.exists()


def test_sample_runs_one_chain(tmp_path, capsys):
    """sample took --chains and a config num_chains, ran one chain anyway and
    recorded the ignored count in its manifest."""
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "num_steps": 10})
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main(["sample", "--config", cfg, "--out", str(out), "--chains", "64"])
    assert exit_info.value.code == 2 and "--chains" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "num_steps": 10, "num_chains": 64})
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: sample runs one chain")
    assert not out.exists()


def test_num_steps_just_below_2_63_passes_the_check():
    """Only constructed: a run this long cannot be allocated."""
    assert SamplerConfig(0.1, 2**63 - 1).num_steps == 2**63 - 1
    assert resolve_config({"experiment": "trunc-gauss", "gamma": 10 / 2**62}).num_steps == 2**62


@pytest.mark.parametrize("x", [1e5 + 0.371621876, 0.5])
def test_histogram_of_a_constant_trace_has_60_bins_of_positive_width(tmp_path, x):
    """hi = lo + 1e-12 was below one ulp of 1e5, so every bin had zero width."""
    path = tmp_path / "histogram.csv"
    _write_histogram_csv(path, np.full(3, x))
    rows = read_rows(path)[1:]
    edges = [float(r[0]) for r in rows] + [float(rows[-1][1])]
    assert len(rows) == 60 and all(a < b for a, b in zip(edges, edges[1:]))
    assert [float(r[0]) for r in rows[1:]] == [float(r[1]) for r in rows[:-1]]
    assert sum(int(r[2]) for r in rows) == 3


def test_divergence_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "trunc-gauss", "sampler": "ula", "gamma": 50.0, "num_steps": 400},
    )
    with pytest.warns(RuntimeWarning):
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "runtime error" in capsys.readouterr().err


@pytest.mark.parametrize("minibatch", [10**17, 10**400])
def test_an_unallocatable_minibatch_is_a_runtime_error_before_any_step(
    minibatch, tmp_path, capsys, monkeypatch
):
    """The kernel allocates its pre-draw blocks before step 1: a minibatch of
    10**17 indices, 8e17 bytes that no address space holds, or of more than
    numpy's dimension limit, fails there, and the CLI reports it as one
    runtime error line, not a traceback."""
    from proxlmc import samplers

    monkeypatch.setattr(samplers, "gaussian", lambda *a, **k: pytest.fail("a step ran"))
    cfg = write_config(tmp_path, {"experiment": "wishart-precision", "d": 1, "n": 50,
                                  "gamma": 0.01, "num_steps": 50, "minibatch": minibatch})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: ")
    assert "Traceback" not in captured.err + captured.out


_FAILING_RUNS = {  # a MemoryError before step 1, a ChainDivergence during the run
    "minibatch": ("sample", {"experiment": "wishart-precision", "d": 1, "n": 50, "gamma": 0.01,
                             "num_steps": 50, "minibatch": 10**17}),
    "divergence": ("experiment", {"experiment": "trunc-gauss", "sampler": "ula", "gamma": 50.0,
                                  "num_steps": 400}),
}


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize("case", sorted(_FAILING_RUNS))
def test_a_failed_run_removes_the_empty_out_dir_it_made(case, existed, tmp_path, capsys,
                                                         monkeypatch):
    """A run that fails at run time exits 1 and removes, deepest first, each
    directory of its --out path that it made and left empty.  What existed
    before the run stays: with existed, o and the a of a/b/o.  So does c of
    c/d/o, which the run made but something else wrote into meanwhile."""
    command, body = _FAILING_RUNS[case]
    cfg = write_config(tmp_path, body)
    monkeypatch.chdir(tmp_path)
    before = ["a", "o"] if existed else []
    for d in before:
        (tmp_path / d).mkdir()
    makedirs = os.makedirs

    def makedirs_beside(name, *args, **kwargs):
        makedirs(name, *args, **kwargs)
        if name == os.path.join("c", "d", "o"):
            (tmp_path / "c" / "other").write_text("")

    monkeypatch.setattr(os, "makedirs", makedirs_beside)
    for out in ("o", os.path.join("a", "b", "o"), os.path.join("c", "d", "o")):
        argv = [command, "--config", cfg, "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the diverging run's step-size warning
            code = main(argv + (["--chains", "8"] if command == "experiment" else []))
        assert code == 1
        assert capsys.readouterr().err.startswith("runtime error: ")
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == sorted(before + ["c"])
    assert all(list((tmp_path / d).iterdir()) == [] for d in before)
    assert list((tmp_path / "c").iterdir()) == [tmp_path / "c" / "other"]


def test_an_uncreatable_out_dir_fails_before_any_step(tmp_path, capsys, monkeypatch):
    from proxlmc import samplers

    monkeypatch.setattr(samplers, "gaussian", lambda *a, **k: pytest.fail("a step ran"))
    (tmp_path / "file").write_text("")
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "num_steps": 50})
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "file" / "o")]) == 1
    assert capsys.readouterr().err.startswith("runtime error: ")
    assert (tmp_path / "file").read_text() == ""


def test_experiment_with_chains_records_chain_zero_in_the_ensemble_pass(tmp_path, monkeypatch):
    """With --chains, one kernel pass also records chain 0: the run writes
    the bytes it wrote when a separate run_chain recorded that chain, and
    never calls run_chain."""
    from proxlmc import cli

    def no_lone_chain(*args, **kwargs):
        raise AssertionError("experiment --chains called run_chain")

    monkeypatch.setattr(cli, "run_chain", no_lone_chain)
    cfg = write_config(tmp_path, {"experiment": "trunc-gauss", "mean": 0.5, "burn_in": 10,
                                  "num_steps": 300, "snapshot_steps": [100, 200], "seed": 8})
    out = tmp_path / "o"
    assert main(["experiment", "--config", cfg, "--out", str(out), "--chains", "8"]) == 0
    assert sha256(out / "report.json") == (
        "bd276b15d9a1012f3d5f8bd89b7e3c2d1b035713ecb17cf9c1969fa9d7bbad09")
    assert sha256(out / "histogram.csv") == (
        "064114337d49d023f23145546310e342dbbc9cdc8557cc0f296b35ddfe6fd224")


def test_diverging_ensemble_exits_1_and_names_the_step(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "trunc-gauss", "sampler": "ula", "gamma": 50.0, "num_steps": 400},
    )
    out = tmp_path / "o"
    with pytest.warns(RuntimeWarning):
        code = main(["experiment", "--config", cfg, "--out", str(out), "--chains", "8"])
    assert code == 1
    assert not (out / "report.json").exists()
    assert re.search(r"runtime error: ula produced a non-finite iterate at step \d+",
                     capsys.readouterr().err)


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "moreau", "--trials", "25"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "moreau-identity" in out
    assert "trials=25" in out


def test_verify_all_suites_pass(capsys):
    assert main(["verify", "--trials", "20"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert len(lines) == 5
    assert all(l.startswith("PASS") for l in lines)


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--suite", "lemma2", "--trials", "-5"],
    ["--suite", "moreau", "--trials", "0"],
    ["--suite", "spectral", "--trials", "0"],
    ["--trials", "0"],
])
def test_verify_without_trials_is_a_config_error(argv, capsys):
    """A suite that would check nothing must not PASS."""
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert "config error: trials must be >= 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("names, trials, message", [
    (["lemma2"], True, "trials must be an integer"),
    (["lemma2"], 2.0, "trials must be an integer"),
    (["lemma2"], 0, "trials must be >= 1"),
    (["moreau", "nonsense"], 5, "unknown verify suite 'nonsense'"),
    ("nonsense", 5, "unknown verify suite 'nonsense'"),
    ("lemma2", 0, "trials must be >= 1"),
])
def test_run_suites_checks_its_arguments_before_running(names, trials, message, monkeypatch):
    from proxlmc import verify

    ran = []
    monkeypatch.setattr(verify, "SUITES", {
        name: lambda name=name, **kw: ran.append(name) for name in verify.SUITES
    })
    with pytest.raises(ValueError, match=message):
        verify.run_suites(names, trials=trials)
    assert ran == []


@pytest.mark.parametrize("names, expected", [
    ("moreau", ["moreau"]),
    (["spectral", "moreau"], ["spectral", "moreau"]),
    ("all", None),
    (None, None),
])
def test_run_suites_takes_a_bare_name_as_one_suite(names, expected, monkeypatch):
    from proxlmc import verify

    ran = []
    monkeypatch.setattr(verify, "SUITES", {
        name: lambda name=name, **kw: ran.append(name) for name in verify.SUITES
    })
    verify.run_suites(names, trials=1)
    assert ran == (list(verify.SUITES) if expected is None else expected)


def test_verify_detects_a_corrupted_prox(monkeypatch, capsys):
    """A prox that drifts between calls must fail the identity suite."""
    from proxlmc.potentials import BoxIndicator

    original = BoxIndicator.prox
    calls = {"k": 0}

    def drifting_prox(self, gamma, x):
        calls["k"] += 1
        return original(self, gamma, x) + 1e-4 * (calls["k"] % 2)

    monkeypatch.setattr(BoxIndicator, "prox", drifting_prox)
    assert main(["verify", "--suite", "moreau", "--trials", "10"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_fails_a_wrong_prox_that_keeps_the_moreau_identity(monkeypatch, capsys):
    """The identity x = p + gamma y holds for any map p, since the dual y
    is made from it: a box prox patched to 0.5 x + 7 keeps its residual at
    rounding, and the subdifferential check, which does not call the prox,
    fails it."""
    from proxlmc.potentials import BoxIndicator

    monkeypatch.setattr(BoxIndicator, "prox", lambda self, gamma, x: 0.5 * np.asarray(x) + 7)
    assert main(["verify", "--suite", "moreau", "--trials", "10"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  moreau-identity: worst relative residual ")
    assert float(out.split()[5].rstrip(",")) <= 1e-10
    assert "worst dual residual inf at zero gamma=0.01" in out
