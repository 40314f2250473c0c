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
import hashlib
import itertools
import json
import math
import os
import pathlib
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .diagnostics import (
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
from .samplers import (
    SamplerConfig,
    _step_list,
    check_run,
    run_chain,
    run_ensemble,
    step_size_warning,
)
from .space import RngStream, _finite_number, ambient_dim, flatten_points
from .verify import run_suites

EXPERIMENT_IDS = ("trunc-gauss", "wishart-mean-1d", "wishart-precision")

ENV_OUT = "PROXLMC_OUT"

_WISHART_SAMPLE_SEED = 9173  # exact posterior draws for the matrix C estimate
_ORACLE_GRID = 2000
_BLOCK = 1 << 14  # csv fields joined and written at a time


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


@dataclass(kw_only=True)
class RunConfig(SamplerConfig):
    """A CLI run: the sampler config plus the experiment, ensemble and output
    fields.  Construction checks the run's own fields and raises ConfigError;
    the experiment and samplers.check_run make theirs in _build."""

    experiment: str
    sampler: str = "psgla"
    num_chains: int = 1  # >= 2 adds ensemble snapshots
    snapshot_steps: list
    out: str | None = None
    x0: float | None = None  # fills a vector or scales the identity
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
            self.snapshot_steps = _step_list(
                self.snapshot_steps, "snapshot step", self.burn_in + 1, self.num_steps
            )
        except ValueError as err:
            raise ConfigError(str(err)) from err
        _require(self.snapshot_steps, "snapshot_steps must be a non-empty list of step indices")
        _require(self.record_every <= self.num_steps - self.burn_in,
                 f"record_every = {self.record_every} exceeds num_steps - burn_in = "
                 f"{self.num_steps - self.burn_in}, so no step would be recorded")
        _require(self.myula_lambda is None or self.sampler == "myula",
                 "myula_lambda is only meaningful for sampler 'myula'")
        _require(self.spla_r_weight is None or self.sampler == "spla",
                 "spla_r_weight is only meaningful for sampler 'spla'")
        _require(self.num_chains >= 1, "num_chains must be >= 1")


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
    _require(_finite_number(raw), f"{key} must be a finite number, got {raw}")
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
# they are: resolve_config and _build's start-up check test them against their ids.
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
    except ValueError as err:  # a decode error, or an integer over Python's digit limit
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
        _require(10.0 / gamma < 2**63,  # SamplerConfig's bound on num_steps; inf fails too
                 f"gamma = {gamma} makes the default num_steps = ceil(10 / gamma) >= 2**63; "
                 "set num_steps")
        kw["num_steps"] = int(math.ceil(10.0 / gamma))
    kw.setdefault("num_steps", 10000)
    kw.setdefault("snapshot_steps", [kw["num_steps"]])
    nu_default = {"trunc-gauss": 4.0, "wishart-mean-1d": 3.0,
                  "wishart-precision": _as_number(kw.get("d", 1), "d") + 4.0}
    kw.setdefault("nu", nu_default[experiment])
    return RunConfig(**kw)


def _build(cfg: RunConfig):
    """Assemble the experiment and initial point for a run config.
    The experiment checks its own parameters and check_run, the start-up
    check of run_chain and run_ensemble, the sampler's; their errors, and a
    run the assembled experiment cannot serve, raise ConfigError."""
    try:
        if cfg.experiment == "trunc-gauss":
            spec = TruncGaussSpec(mean=cfg.mean, lo=cfg.lo, hi=cfg.hi)
        else:  # d is 1 for wishart-mean-1d, which takes no d key
            data = generate_gaussian_data(cfg.n, cfg.d, RngStream(cfg.data_seed, 0))
            spec = WishartExperimentSpec(kind=cfg.experiment.removeprefix("wishart-"),
                                         d=cfg.d, nu=cfg.nu, data=data)
        assembled = assemble_experiment(spec)
        shape = assembled.shape
        if cfg.x0 is None:
            x0 = assembled.default_x0(cfg.gamma)
        elif len(shape) == 1:
            x0 = np.full(shape, cfg.x0)
        else:
            x0 = cfg.x0 * np.eye(shape[0])
        x0 = check_run(cfg.sampler, assembled.smooth, assembled.nonsmooth, cfg, x0)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    # ensemble snapshots are scored against an exact quantile oracle
    _require(cfg.num_chains == 1 or assembled.quantile_oracle is not None,
             f"num_chains >= 2 needs an exact quantile oracle, which {cfg.experiment} "
             f"with d = {cfg.d} lacks")
    return assembled, x0


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return repr(float(v))


def _write_json(path, obj):
    # numpy arrays and scalars that are not float subclasses reach default
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            h.update(chunk)
    return h.hexdigest()


def _write_csv(path, header, rows):
    """Write the header and rows of str fields as csv.writer does: "," between
    fields, CRLF after each line; no int or float repr needs quoting.  Lines
    are joined and written one block of _BLOCK fields at a time."""
    rows, per_block = iter(rows), max(1, _BLOCK // len(header))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while lines := list(map(",".join, itertools.islice(rows, per_block))):
            fh.write("\r\n".join([*lines, ""]))


def _write_trace_csv(path, trace, feasible_flags):
    """trace.csv, one block of rows at a time: only one block's floats and
    strings are ever held, whatever the length of the trace."""
    m = ambient_dim(trace.primal.shape[1:])
    header = ["step"] + [f"x{i}" for i in range(m)]
    stacks = [trace.primal]
    if len(trace.duals):
        header += [f"y{i}" for i in range(m)]
        stacks.append(trace.duals)
    header.append("feasible")
    per_block = max(1, _BLOCK // len(header))

    def rows():
        for a in range(0, len(trace.primal), per_block):
            b = slice(a, a + per_block)
            values = np.concatenate([flatten_points(s[b]) for s in stacks], axis=1).T.tolist()
            flags = ("1" if flag else "0" for flag in feasible_flags[b].tolist())
            yield from zip(map(str, trace.steps[b]), *[map(repr, col) for col in values], flags)

    _write_csv(path, header, rows())


def _write_histogram_csv(path, samples: np.ndarray):
    """60 bins spanning the 0.1% to 99.9% empirical quantile range."""
    lo, hi = np.quantile(samples, [0.001, 0.999])
    if hi <= lo:
        hi = lo + 1e-12 * max(1.0, abs(lo))  # wide enough for 60 distinct bins
    edges = np.linspace(lo, hi, 61)
    counts, _ = np.histogram(samples, bins=edges)
    rows = ([_fmt(edges[k]), _fmt(edges[k + 1]), str(int(counts[k]))] for k in range(60))
    _write_csv(path, ["bin_left", "bin_right", "count"], rows)


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
    return flag_value or os.environ.get(ENV_OUT) or cfg_out or "./out"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: RunConfig, out_dir: str) -> int:
    assembled, x0 = _build(cfg)
    _require(cfg.num_chains == 1, "sample runs one chain; num_chains >= 2 needs experiment")
    os.makedirs(out_dir, exist_ok=True)  # only once the config is known to run
    t0 = time.perf_counter()
    trace = run_chain(cfg.sampler, assembled.smooth, assembled.nonsmooth, cfg, x0)
    flags = assembled.nonsmooth.domain_mask(trace.primal)
    _write_trace_csv(os.path.join(out_dir, "trace.csv"), trace, flags)
    warn = step_size_warning(assembled.smooth, cfg.gamma)
    _write_manifest(out_dir, "sample", cfg, warn, time.perf_counter() - t0, ["trace.csv"])
    return 0


def _c_estimate_samples(cfg: RunConfig, assembled, trace):
    """Target samples for the C constant: exact draws where the law is known,
    the chain's own post-burn-in iterates otherwise."""
    if assembled.quantile_oracle is not None:
        return assembled.quantile_oracle.midpoint_quantiles(_ORACLE_GRID)[:, None]
    if assembled.ground_truth is not None:
        truth = assembled.ground_truth
        return sample_wishart(
            truth.nu_post, truth.v_post_inv, RngStream(_WISHART_SAMPLE_SEED, 0), size=400
        )
    return trace.primal


def cmd_experiment(cfg: RunConfig, out_dir: str) -> int:
    assembled, x0 = _build(cfg)
    os.makedirs(out_dir, exist_ok=True)  # only once the config is known to run
    t0 = time.perf_counter()
    args = (cfg.sampler, assembled.smooth, assembled.nonsmooth, cfg)
    if cfg.num_chains >= 2:  # one kernel pass: the ensemble's chain 0 is the recorded chain
        ensemble = run_ensemble(*args, cfg.num_chains, cfg.snapshot_steps, x0,
                                mean_checkpoints=cfg.snapshot_steps)
        trace = ensemble.trace
    else:
        trace = run_chain(*args, x0, mean_checkpoints=cfg.snapshot_steps)

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
        ambient_dim(assembled.shape),
        sigma_sq,
    )
    report["c_estimate"] = {
        "value": cest.value,
        "grad_sq_mean": cest.grad_sq_mean,
        "num_skipped": cest.num_skipped,
        "sigma_f_sq": sigma_sq,
        "L": assembled.smooth.L,
        "ambient_dim": ambient_dim(assembled.shape),
    }

    filenames = ["report.json"]

    if assembled.ground_truth is not None:
        m_star = assembled.ground_truth.m_star
        report["m_star"] = m_star
        report["nu_post"] = assembled.ground_truth.nu_post
        m_point = m_star.reshape(assembled.shape)
        conv = [
            (step, float(np.linalg.norm(mean - m_point)))
            for step, mean in trace.mean_checkpoints
        ]
        report["convergence"] = [
            {"step": step, "frobenius_to_mstar": dist} for step, dist in conv
        ]
        _write_csv(os.path.join(out_dir, "convergence.csv"), ["step", "frobenius_to_mstar"],
                   ([str(step), _fmt(dist)] for step, dist in conv))
        filenames.append("convergence.csv")

    if cfg.num_chains >= 2:  # _build allows chains only with a quantile oracle
        oracle = assembled.quantile_oracle
        report["snapshots"] = [
            {"step": step, "w2_sq": wasserstein2_1d(ensemble.snapshot(step)[:, 0], oracle)}
            for step in cfg.snapshot_steps
        ]

    if assembled.shape == (1,):
        _write_histogram_csv(os.path.join(out_dir, "histogram.csv"), trace.primal[:, 0])
        filenames.append("histogram.csv")

    _write_json(os.path.join(out_dir, "report.json"), report)
    warn = step_size_warning(assembled.smooth, cfg.gamma)
    _write_manifest(out_dir, "experiment", cfg, warn, time.perf_counter() - t0, filenames)
    return 0


def cmd_verify(suite: str | None, trials: int | None) -> int:
    try:
        results = run_suites(suite, trials=trials)
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
        p.add_argument("--seed", type=int, default=None, help="override the sampler seed")
        if name == "experiment":
            p.add_argument("--chains", type=int, default=None, help="override num_chains")

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
        # sample has no --chains: it runs one chain
        cfg = resolve_config(load_config(args.config), args.seed, getattr(args, "chains", None))
        out_dir = _resolve_out_dir(args.out, cfg.out)
        path = pathlib.Path(out_dir).absolute()
        new = [d for d in (path, *path.parents) if not d.exists()]  # made by the run, deepest first
        try:
            return (cmd_sample if args.command == "sample" else cmd_experiment)(cfg, out_dir)
        except BaseException:  # a failed run removes the directories it made while they are empty
            for d in new:
                if d.is_dir() and not any(d.iterdir()):
                    d.rmdir()
            raise
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, ValueError, MemoryError) as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
