"""Command-line interface.

Subcommands:

* sample      run one chain of a configured sampler on an experiment and
              dump the recorded trace (trace.csv + manifest.json)
* experiment  run the full protocol for an experiment: a recorded chain,
              optional ensemble snapshots scored against the exact law,
              convergence of ergodic means to the conjugate posterior mean
              (report.json, histogram.csv, convergence.csv, manifest.json)
* verify      re-run the named invariant suites and exit nonzero on failure

Configs are JSON objects; unknown keys are an error.  Exit codes: 0 success,
1 runtime failure (diverged chain, failed invariant, IO), 2 config error.
The output directory resolves as --out flag, then $PROXLMC_OUT, then the
config "out" field, then ./out.  Reruns of the same config produce
byte-identical data files (the manifest records their digests).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .diagnostics import (
    EmpiricalMeasure,
    ergodic_mean,
    estimate_C,
    feasibility_fraction,
    wasserstein2_1d,
)
from .experiments import (
    TruncGaussSpec,
    WishartExperimentSpec,
    assemble_experiment,
    generate_gaussian_data,
    sample_wishart,
)
from .potentials import coordinate_absolute_term, diagonal_absolute_term
from .samplers import (
    SAMPLER_IDS,
    SamplerConfig,
    run_chain,
    run_ensemble,
    step_size_warning,
)
from .space import FLAT, RngStream, Space, flatten_points
from .verify import run_suites

EXPERIMENT_IDS = ("trunc-gauss", "wishart-mean-1d", "wishart-precision")

ENV_OUT = "PROXLMC_OUT"

_WISHART_SAMPLE_SEED = 9173  # exact posterior draws for the matrix C estimate
_ORACLE_GRID = 2000


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


@dataclass(kw_only=True)
class RunConfig(SamplerConfig):
    """A CLI run: the sampler config plus the experiment, ensemble and output
    fields.  Construction checks every range and raises ConfigError."""

    experiment: str
    sampler: str = "psgla"
    num_chains: int = 1  # >= 2 adds ensemble snapshots
    snapshot_steps: list
    out: str | None = None
    x0: float | None = None  # fills a vector or scales the identity
    spla_r_weight: float | None = None
    # the experiment's own fields; _EXPERIMENT_KEYS says which apply
    d: int = 1
    nu: float
    n: int = 50
    data_seed: int = 1
    mean: float = 0.0
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        try:
            super().__post_init__()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        _require(self.experiment in EXPERIMENT_IDS,
                 f"experiment must be one of {EXPERIMENT_IDS}, got {self.experiment!r}")
        _require(self.sampler in SAMPLER_IDS,
                 f"sampler must be one of {SAMPLER_IDS}, got {self.sampler!r}")
        _require(self.sampler != "projected" or self.experiment == "trunc-gauss",
                 f"sampler 'projected' needs an indicator G, but {self.experiment}'s G "
                 "is a log barrier")
        _require(self.record_every <= self.num_steps - self.burn_in,
                 f"record_every = {self.record_every} exceeds num_steps - burn_in = "
                 f"{self.num_steps - self.burn_in}, so no step would be recorded")
        if self.sampler == "myula":
            _require(self.myula_lambda is not None,
                     "sampler 'myula' requires the config field myula_lambda")
            _require(self.myula_lambda > 0, "myula_lambda must be > 0")
        else:
            _require(self.myula_lambda is None,
                     "myula_lambda is only meaningful for sampler 'myula'")
        if self.spla_r_weight is not None:
            _require(self.sampler == "spla", "spla_r_weight is only meaningful for sampler 'spla'")
            _require(self.spla_r_weight >= 0, "spla_r_weight must be >= 0")
        _require(self.num_chains >= 1, "num_chains must be >= 1")

        self.snapshot_steps = steps = sorted(self.snapshot_steps)
        _require(steps, "snapshot_steps must be a non-empty list of step indices")
        _require(steps[0] >= 1 and steps[-1] <= self.num_steps,
                 "snapshot steps must lie in [1, num_steps]")
        _require(steps[0] > self.burn_in, "snapshot steps must lie strictly after burn_in")
        _require(len(set(steps)) == len(steps), "snapshot steps must be distinct")

        _require(self.d >= 1, "d must be >= 1")
        _require(self.n >= 1, "n must be >= 1")
        # Ensemble snapshots are scored against an exact quantile oracle.
        _require(self.num_chains == 1 or self.experiment == "trunc-gauss"
                 or (self.experiment == "wishart-precision" and self.d == 1),
                 f"num_chains >= 2 needs an exact quantile oracle (trunc-gauss or "
                 f"wishart-precision with d = 1), which {self.experiment} lacks here")
        if self.experiment == "trunc-gauss":
            _require(self.lo < self.hi, "trunc-gauss needs lo < hi")
            return
        # The Wishart prior needs nu > d - 1, and the target's log-barrier
        # weight alpha = ((nu + n) - d - 1)/2 must be >= 0 for it to be
        # normalizable; wishart-mean-1d's barrier is the prior's, so n is 0.
        _require(self.nu > self.d - 1,
                 f"{self.experiment} needs nu > d - 1 = {self.d - 1}, got nu = {self.nu}")
        n = self.n if self.experiment == "wishart-precision" else 0
        alpha = ((self.nu + n) - self.d - 1) / 2.0
        _require(alpha >= 0, f"{self.experiment} needs nu >= {self.d + 1 - n}, got nu = "
                 f"{self.nu}: the log-barrier weight alpha would be {alpha} < 0")


_EXPERIMENT_KEYS = {
    "trunc-gauss": {"mean", "lo", "hi"},
    "wishart-mean-1d": {"nu", "n", "data_seed"},
    "wishart-precision": {"d", "nu", "n", "data_seed"},
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_COMMON_KEYS = set(_FIELD_TYPES).difference(*_EXPERIMENT_KEYS.values())


def _as_number(raw, key):
    """A finite number; json.load parses NaN and Infinity, which no field accepts."""
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), f"{key} must be a number")
    _require(math.isfinite(raw), f"{key} must be a finite number, got {raw}")
    return float(raw)


def _as_int(raw, key):
    _require(isinstance(raw, int) and not isinstance(raw, bool), f"{key} must be an integer")
    return int(raw)


def _as_bool(raw, key):
    _require(isinstance(raw, bool), f"{key} must be a boolean")
    return raw


def _as_steps(raw, key):
    _require(isinstance(raw, list), f"{key} must be a non-empty list of step indices")
    return [_as_int(s, f"{key} entry") for s in raw]


def _as_path(raw, key):
    _require(raw is None or isinstance(raw, str), f"{key} must be a string path")
    return raw


# JSON type checks by declared field type.  experiment and sampler pass as
# they are: RunConfig checks them against their ids.
_COERCE = {
    "int": _as_int,
    "float": _as_number,
    "float | None": lambda raw, key: None if raw is None else _as_number(raw, key),
    "int | str": lambda raw, key: raw if raw == "full" else _as_int(raw, key),
    "bool": _as_bool,
    "list": _as_steps,
    "str": lambda raw, key: raw,
    "str | None": _as_path,
}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def resolve_config(raw: dict, seed_override=None, chains_override=None) -> RunConfig:
    """Type-check a raw config dict and fill its experiment-dependent defaults;
    RunConfig fills the rest and checks the ranges.  Unknown keys error."""
    experiment = raw.get("experiment")
    _require(experiment in EXPERIMENT_IDS,
             f"experiment must be one of {EXPERIMENT_IDS}, got {experiment!r}")
    unknown = set(raw) - _COMMON_KEYS - _EXPERIMENT_KEYS[experiment]
    _require(not unknown,
             f"unknown config keys for {experiment}: {sorted(unknown)}")
    overrides = {"seed": seed_override, "num_chains": chains_override}
    kw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    kw = {key: _COERCE[_FIELD_TYPES[key]](value, key) for key, value in kw.items()}

    default_gamma = {"trunc-gauss": 0.1, "wishart-mean-1d": 0.01, "wishart-precision": 0.1}
    gamma = kw.setdefault("gamma", default_gamma[experiment])
    if "num_steps" not in kw and experiment == "trunc-gauss":
        _require(gamma > 0, "gamma must be a finite number > 0")
        kw["num_steps"] = int(math.ceil(10.0 / gamma))
    kw.setdefault("num_steps", 10000)
    kw.setdefault("snapshot_steps", [kw["num_steps"]])
    nu_default = {"trunc-gauss": 4.0, "wishart-mean-1d": 3.0,
                  "wishart-precision": kw.get("d", 1) + 4.0}
    kw.setdefault("nu", nu_default[experiment])
    return RunConfig(**kw)


def _build(cfg: RunConfig):
    """Assemble the experiment, R term, and initial point for a run config."""
    if cfg.experiment == "trunc-gauss":
        spec = TruncGaussSpec(mean=cfg.mean, lo=cfg.lo, hi=cfg.hi)
    elif cfg.experiment == "wishart-mean-1d":
        data = generate_gaussian_data(cfg.n, 1, RngStream(cfg.data_seed, 0))
        spec = WishartExperimentSpec(kind="mean-1d", d=1, nu=cfg.nu, data=data)
    else:
        data = generate_gaussian_data(cfg.n, cfg.d, RngStream(cfg.data_seed, 0))
        spec = WishartExperimentSpec(kind="precision", d=cfg.d, nu=cfg.nu, data=data)
    assembled = assemble_experiment(spec)

    lipschitz = None
    if cfg.sampler == "spla" and cfg.spla_r_weight:
        if assembled.space.kind == FLAT:
            lipschitz = coordinate_absolute_term(cfg.spla_r_weight, assembled.space.d)
        else:
            lipschitz = diagonal_absolute_term(cfg.spla_r_weight, assembled.space.d)

    if cfg.x0 is None:
        x0 = assembled.default_x0(cfg.gamma)
    elif assembled.space.kind == FLAT:
        x0 = np.full(assembled.space.d, cfg.x0)
    else:
        x0 = cfg.x0 * np.eye(assembled.space.d)
    return assembled, lipschitz, x0


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


def _sanitize(obj):
    """Make report structures JSON-serializable with plain Python scalars."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _write_trace_csv(path, space: Space, trace, include_duals: bool):
    m = space.ambient_dim
    header = ["step"] + [f"x{i}" for i in range(m)]
    columns = [flatten_points(space, trace.primal)]
    if include_duals:
        header += [f"y{i}" for i in range(m)]
        columns.append(flatten_points(space, trace.duals))
    header.append("feasible")
    values = np.concatenate(columns, axis=1).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for step, row, flag in zip(trace.steps, values, trace.feasible_flags.tolist()):
            writer.writerow([str(step), *map(repr, row), str(int(flag))])


def _write_histogram_csv(path, samples: np.ndarray):
    """60 bins spanning the 0.1% to 99.9% empirical quantile range."""
    lo, hi = np.quantile(samples, [0.001, 0.999])
    if hi <= lo:
        hi = lo + 1e-12
    edges = np.linspace(lo, hi, 61)
    counts, _ = np.histogram(samples, bins=edges)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for k in range(60):
            writer.writerow([_fmt(edges[k]), _fmt(edges[k + 1]), str(int(counts[k]))])


def _write_convergence_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "frobenius_to_mstar"])
        for step, dist in rows:
            writer.writerow([str(step), _fmt(dist)])


def _write_manifest(out_dir, command, cfg, warn_flag, wall_time, filenames):
    manifest = {
        "command": command,
        "artifact_version": _artifact_version(),
        "config": {k: v for k, v in asdict(cfg).items() if k != "out"},
        "step_size_warning": bool(warn_flag),
        "wall_time_s": wall_time,
        "outputs": {name: _digest(os.path.join(out_dir, name)) for name in filenames},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _artifact_version() -> str:
    try:
        from importlib.metadata import version

        return version("artifact")
    except Exception:
        return "0.1.0"


def _resolve_out_dir(flag_value, cfg_out) -> str:
    out = flag_value or os.environ.get(ENV_OUT) or cfg_out or "./out"
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_dir: str) -> int:
    assembled, lipschitz, x0 = _build(cfg)
    t0 = time.perf_counter()
    trace = run_chain(
        cfg.sampler, assembled.smooth, assembled.nonsmooth, cfg,
        x0, lipschitz_term=lipschitz, stream_id=0,
    )
    include_duals = cfg.record_duals and len(trace.duals) == len(trace.primal) and len(trace.duals) > 0
    _write_trace_csv(os.path.join(out_dir, "trace.csv"), assembled.space, trace, include_duals)
    warn = step_size_warning(assembled.smooth, cfg.gamma)
    _write_manifest(out_dir, "sample", cfg, warn, time.perf_counter() - t0, ["trace.csv"])
    return 0


def _c_estimate_samples(cfg: RunConfig, assembled, trace):
    """Target samples for the C constant: exact draws where the law is known,
    the chain's own post-burn-in iterates otherwise."""
    if assembled.quantile_oracle is not None:
        u = (np.arange(1, _ORACLE_GRID + 1) - 0.5) / _ORACLE_GRID
        pts = np.asarray(assembled.quantile_oracle.quantile(u), dtype=float)[:, None]
        return EmpiricalMeasure(pts)
    if assembled.ground_truth is not None:
        truth = assembled.ground_truth
        draws = sample_wishart(
            truth.nu_post, truth.v_post_inv, RngStream(_WISHART_SAMPLE_SEED, 0), size=400
        )
        return EmpiricalMeasure(draws)
    return EmpiricalMeasure(trace.primal)


def cmd_experiment(cfg: RunConfig, out_dir: str) -> int:
    assembled, lipschitz, x0 = _build(cfg)
    t0 = time.perf_counter()
    trace = run_chain(
        cfg.sampler, assembled.smooth, assembled.nonsmooth, cfg,
        x0, lipschitz_term=lipschitz, stream_id=0,
        mean_checkpoints=cfg.snapshot_steps,
    )

    report = {
        "experiment": cfg.experiment,
        "sampler": cfg.sampler,
        "gamma": cfg.gamma,
        "num_steps": cfg.num_steps,
        "burn_in": cfg.burn_in,
        "feasibility_fraction": feasibility_fraction(trace, assembled.nonsmooth),
        "ergodic_mean": ergodic_mean(trace),
    }

    # sigma bound: running max of the stochastic-gradient norm variance over
    # (at most 200 of) the visited iterates; zero for full-gradient runs.
    probe = trace.primal[:: max(1, len(trace.primal) // 200)]
    sigma_sq = max(
        (assembled.smooth.grad_norm_variance(x, cfg.minibatch) for x in probe), default=0.0
    )
    cest = estimate_C(
        _c_estimate_samples(cfg, assembled, trace),
        assembled.nonsmooth,
        assembled.smooth.L,
        assembled.space.ambient_dim,
        sigma_sq,
    )
    report["c_estimate"] = {
        "value": cest.value,
        "grad_sq_mean": cest.grad_sq_mean,
        "num_skipped": cest.num_skipped,
        "sigma_f_sq": sigma_sq,
        "L": assembled.smooth.L,
        "ambient_dim": assembled.space.ambient_dim,
    }

    filenames = ["report.json"]

    if assembled.ground_truth is not None:
        m_star = assembled.ground_truth.m_star
        report["m_star"] = m_star
        report["nu_post"] = assembled.ground_truth.nu_post
        m_flat = m_star[0] if assembled.space.kind == FLAT else m_star
        conv = [
            (step, float(np.linalg.norm(mean - m_flat)))
            for step, mean in trace.mean_checkpoints
        ]
        report["convergence"] = [
            {"step": step, "frobenius_to_mstar": dist} for step, dist in conv
        ]
        _write_convergence_csv(os.path.join(out_dir, "convergence.csv"), conv)
        filenames.append("convergence.csv")

    if cfg.num_chains >= 2:  # RunConfig allows chains only with a quantile oracle
        ensemble = run_ensemble(
            cfg.sampler, assembled.smooth, assembled.nonsmooth, cfg,
            cfg.num_chains, cfg.snapshot_steps, x0, lipschitz_term=lipschitz,
        )
        report["snapshots"] = [
            {
                "step": step,
                "w2_sq": wasserstein2_1d(
                    ensemble.snapshot(step)[:, 0], assembled.quantile_oracle
                ),
            }
            for step in cfg.snapshot_steps
        ]

    if assembled.space.kind == FLAT and assembled.space.d == 1:
        samples = trace.primal[:, 0]
        _write_histogram_csv(os.path.join(out_dir, "histogram.csv"), samples)
        filenames.append("histogram.csv")

    _write_json(os.path.join(out_dir, "report.json"), report)
    warn = step_size_warning(assembled.smooth, cfg.gamma)
    _write_manifest(out_dir, "experiment", cfg, warn, time.perf_counter() - t0, filenames)
    return 0


def cmd_verify(suite: str | None, trials: int | None) -> int:
    names = None if suite in (None, "all") else [suite]
    try:
        results = run_suites(names, trials=trials)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxlmc",
        description="Proximal Langevin samplers for composite log-concave targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("sample", "run one chain and write its trace"),
        ("experiment", "run an experiment protocol and write its report"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--chains", type=int, default=None, help="override num_chains")
        p.add_argument("--seed", type=int, default=None, help="override the sampler seed")

    v = sub.add_parser("verify", help="run invariant suites")
    v.add_argument("--suite", default="all",
                   help="suite name (moreau, spectral, lemma2, pdpg, reductions) or 'all'")
    v.add_argument("--trials", type=int, default=None, help="override per-suite trial count")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.trials)
        raw = load_config(args.config)
        cfg = resolve_config(raw, seed_override=args.seed, chains_override=args.chains)
        out_dir = _resolve_out_dir(args.out, cfg.out)
        if args.command == "sample":
            return cmd_sample(cfg, out_dir)
        return cmd_experiment(cfg, out_dir)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
