import csv
import hashlib
import json

import numpy as np
import pytest

from proxlmc.cli import (
    ConfigError,
    _build,
    _resolve_out_dir,
    load_config,
    main,
    resolve_config,
)


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


def test_myula_lambda_rules():
    with pytest.raises(ConfigError, match="myula_lambda"):
        resolve_config({"experiment": "trunc-gauss", "sampler": "myula"})
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
        resolve_config({"experiment": "trunc-gauss", "lo": 1.0, "hi": -1.0})
    with pytest.raises(ConfigError, match="gamma"):
        resolve_config({"experiment": "wishart-precision", "gamma": float("inf")})


def test_overrides_beat_config_values():
    raw = {"experiment": "trunc-gauss", "seed": 3, "num_chains": 4}
    cfg = resolve_config(raw, seed_override=9, chains_override=16)
    assert cfg.seed == 9
    assert cfg.num_chains == 16


def test_build_applies_scalar_x0():
    flat = resolve_config({"experiment": "trunc-gauss", "x0": 0.25})
    _, _, x0 = _build(flat)
    assert np.array_equal(x0, [0.25])
    mat = resolve_config({"experiment": "wishart-precision", "d": 2, "x0": 2.0})
    _, _, x0m = _build(mat)
    assert np.array_equal(x0m, 2.0 * np.eye(2))


def test_build_wires_the_spla_r_term():
    cfg = resolve_config(
        {"experiment": "wishart-precision", "d": 2, "sampler": "spla", "spla_r_weight": 0.2}
    )
    _, term, _ = _build(cfg)
    assert term is not None and term.M == 0.2
    cfg2 = resolve_config({"experiment": "wishart-precision", "d": 2})
    _, term2, _ = _build(cfg2)
    assert term2 is None


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


def test_divergence_exits_1(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"experiment": "trunc-gauss", "sampler": "ula", "gamma": 50.0, "num_steps": 400},
    )
    with pytest.warns(RuntimeWarning):
        code = main(["sample", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "runtime error" in capsys.readouterr().err


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
