"""The four benchmark workloads.

Each workload turns the run seed into ``sub_seeds`` sampler seeds on one
fixed data set.  One call runs one sampler seed through the public API or
the ``proxlmc`` CLI entry point (``cli.main``) and scores what it produced
against the exact answer of the experiment.  The accuracy metrics pool the
first call of every sampler seed, so a run's accuracy does not depend on how
many calls fit in its time; later calls repeat a seed and must reproduce its
output digests.

The CLI does not write ensemble snapshots or matrix iterates to disk, so a
call keeps the return value of ``cli.run_ensemble`` / ``cli.run_chain`` for
scoring (``keep_result``); that adds one Python call frame and no timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from proxlmc import cli, diagnostics, experiments, samplers
from proxlmc.space import RngStream

# Sampler seed of sub-seed r in a run with seed s is s * SEED_STRIDE + r.
SEED_STRIDE = 64
# Exact reference draws use this stream id, above every chain index, so they
# share no stream with any chain.
REFERENCE_STREAM = 2**32
# Output files the manifest digests; manifest.json itself holds wall time.
UNDIGESTED = {"manifest.json"}


@dataclass
class CallResult:
    digests: dict = field(default_factory=dict)
    mean: np.ndarray | float = 0.0  # mean of the call's scored samples
    w2_sq: float = 0.0
    feasible_frac: float = 0.0
    bytes_written: int = 0
    problems: list = field(default_factory=list)  # failed checks


def _check(problems, ok, message):
    if not ok:
        problems.append(message)


def _file_digests(out_dir):
    digests, size = {}, 0
    for name in sorted(os.listdir(out_dir)):
        if name in UNDIGESTED:
            continue
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


@contextlib.contextmanager
def keep_result(module, name):
    """Rebind ``module.name`` for one call so its return values are kept."""
    original = getattr(module, name)
    kept = []

    def keeping(*args, **kwargs):
        out = original(*args, **kwargs)
        kept.append(out)
        return out

    setattr(module, name, keeping)
    try:
        yield kept
    finally:
        setattr(module, name, original)


def wishart_spec(n, d, nu, data_seed):
    """The precision experiment's spec, with data generated as the CLI does."""
    data = experiments.generate_gaussian_data(n, d, RngStream(data_seed, 0))
    return experiments.WishartExperimentSpec(kind="precision", d=d, nu=nu, data=data)


def wishart_reference(data, nu, seed, sub_seeds, per_call):
    """Exact posterior mean m* = nu' V' (from the conjugate formula, not the
    package), exact draws shaped (sub_seeds, per_call, d, d), and the mean
    and W2^2 tolerances of a matrix workload."""
    d = data.shape[1]
    v_post_inv = np.eye(d) + data.T @ data
    nu_post = data.shape[0] + nu
    m_star = nu_post * np.linalg.inv(v_post_inv)
    draws = experiments.sample_wishart(
        nu_post, v_post_inv, RngStream(seed, REFERENCE_STREAM), size=sub_seeds * per_call
    )
    mean_tol = 0.25 * float(np.linalg.norm(m_star))
    # one per-coordinate variance of the exact law
    w2_tol = float(np.mean(np.sum((draws - m_star) ** 2, axis=(1, 2)))) / (d * (d + 1) // 2)
    return m_star, draws.reshape(sub_seeds, per_call, d, d), mean_tol, w2_tol


class Workload:
    """setup() is what a fresh process does before it can sample; prepare()
    builds the exact references once per run; call() runs and scores one
    sub-seed; pool() gives the run's accuracy metrics."""

    name = ""
    calibration = ""  # the calibrate.KERNELS entry with this workload's operation mix
    sub_seeds = 1

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.problems = []  # failed checks of the exact references

    def sampler_seed(self, sub: int) -> int:
        return self.seed * SEED_STRIDE + sub

    def _size(self, full: int, least: int) -> int:
        return max(least, int(round(full * self.scale)))

    def _cli(self, argv, raw, out_dir, span):
        """Write the generated config and run the CLI entry point on it."""
        cfg_path = out_dir + ".json"
        with open(cfg_path, "w") as fh:
            json.dump(raw, fh)
        with span("cli.main"):
            return cli.main(argv + ["--config", cfg_path, "--out", out_dir])

    def pool(self, results: dict):
        """(mean_err, w2_sq) over the first call of every sub-seed."""
        mean = np.mean([np.asarray(r.mean, dtype=float) for r in results.values()], axis=0)
        mean_err = float(np.linalg.norm(np.atleast_1d(mean - self.exact_mean)))
        return mean_err, float(np.mean([r.w2_sq for r in results.values()]))


class MatrixPosterior(Workload):
    """`proxlmc experiment` on wishart-precision, d=10, one recorded chain."""

    name = "matrix-posterior"
    calibration = "spectral"
    sub_seeds = 4
    D, NU, N_DATA, DATA_SEED = 10, 14.0, 50, 101
    THIN = 4  # every THIN-th iterate is scored against an exact draw

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.num_steps = self._size(4000, 16 * self.THIN)
        self.chain_steps = self.num_steps

    def raw_config(self, sub):
        n = self.num_steps
        return {
            "experiment": "wishart-precision", "d": self.D, "nu": self.NU, "n": self.N_DATA,
            "data_seed": self.DATA_SEED, "seed": self.sampler_seed(sub),
            "num_steps": n, "record_every": 1,
            "snapshot_steps": [n // 16, n // 8, n // 4, n // 2, n],
        }

    def setup(self):
        cfg = cli.resolve_config(self.raw_config(0))
        return experiments.assemble_experiment(wishart_spec(cfg.n, cfg.d, cfg.nu, cfg.data_seed))

    def prepare(self):
        spec = wishart_spec(self.N_DATA, self.D, self.NU, self.DATA_SEED)
        self.exact_mean, self.exact, self.mean_tol, self.w2_tol = wishart_reference(
            spec.data, self.NU, self.seed, self.sub_seeds, self.num_steps // self.THIN
        )
        ours = experiments.posterior_ground_truth(spec).m_star
        _check(self.problems, np.allclose(ours, self.exact_mean, rtol=1e-10, atol=0),
               "posterior_ground_truth disagrees with the conjugate formula")

    def call(self, sub, out_dir, span):
        res = CallResult()
        with keep_result(cli, "run_chain") as kept:
            rc = self._cli(["experiment"], self.raw_config(sub), out_dir, span)
        with span("score"):
            if rc != 0:
                res.problems.append(f"proxlmc experiment exited with {rc}")
                return res
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
            res.mean = np.asarray(report["ergodic_mean"])
            err = float(np.linalg.norm(res.mean - self.exact_mean))
            points = np.asarray(kept[0].primal[self.THIN - 1 :: self.THIN])
            res.w2_sq = diagnostics.sliced_wasserstein2(points, self.exact[sub])
            res.feasible_frac = float(report["feasibility_fraction"])
            res.digests, res.bytes_written = _file_digests(out_dir)
            p = res.problems
            _check(p, res.feasible_frac == 1.0, f"feasible fraction {res.feasible_frac} != 1")
            _check(p, err <= self.mean_tol, f"mean error {err:.4g} > {self.mean_tol:.4g}")
            _check(p, res.w2_sq <= self.w2_tol, f"sliced W2^2 {res.w2_sq:.4g} > {self.w2_tol:.4g}")
            _check(p, np.allclose(report["m_star"], self.exact_mean, rtol=1e-10, atol=0),
                   "report m_star disagrees with the conjugate formula")
            last = report["convergence"][-1]["frobenius_to_mstar"]
            _check(p, abs(last - err) <= 1e-8 * max(1.0, err),
                   f"report convergence {last:.6g} disagrees with the ergodic mean {err:.6g}")
        return res


class MatrixEnsemble(Workload):
    """`samplers.run_ensemble` of 64 PSGLA chains at d=10, no recording."""

    name = "matrix-ensemble"
    calibration = "spectral"
    sub_seeds = 8
    D, NU, N_DATA, DATA_SEED = 10, 14.0, 50, 101
    GAMMA = 0.1

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.chains = self._size(64, 4)
        self.num_steps = self._size(100, 20)
        self.chain_steps = self.chains * self.num_steps

    def setup(self):
        return experiments.assemble_experiment(
            wishart_spec(self.N_DATA, self.D, self.NU, self.DATA_SEED)
        )

    def prepare(self):
        self.asm = self.setup()
        self.exact_mean, self.exact, self.mean_tol, self.w2_tol = wishart_reference(
            self.asm.smooth.data, self.NU, self.seed, self.sub_seeds, self.chains
        )

    def call(self, sub, out_dir, span):
        res = CallResult()
        cfg = samplers.SamplerConfig(
            gamma=self.GAMMA, num_steps=self.num_steps, seed=self.sampler_seed(sub)
        )
        ens = samplers.run_ensemble(
            "psgla", self.asm.smooth, self.asm.nonsmooth, cfg, self.chains,
            [self.num_steps], self.asm.default_x0(self.GAMMA),
        )
        with span("score"):
            snap = ens.snapshot(self.num_steps)
            res.digests = {"snapshot": hashlib.sha256(snap.tobytes()).hexdigest()}
            res.feasible_frac = float(np.mean(np.linalg.eigvalsh(snap)[:, 0] > 0))
            res.mean = snap.mean(axis=0)
            err = float(np.linalg.norm(res.mean - self.exact_mean))
            res.w2_sq = diagnostics.sliced_wasserstein2(snap, self.exact[sub])
            p = res.problems
            _check(p, res.feasible_frac == 1.0, f"feasible fraction {res.feasible_frac} != 1")
            _check(p, err <= self.mean_tol, f"mean error {err:.4g} > {self.mean_tol:.4g}")
            _check(p, res.w2_sq <= self.w2_tol, f"sliced W2^2 {res.w2_sq:.4g} > {self.w2_tol:.4g}")
        return res


class FlatEnsemble(Workload):
    """`proxlmc experiment` on trunc-gauss with --chains 4096."""

    name = "flat-ensemble"
    calibration = "vector"
    sub_seeds = 8
    MEAN, LO, HI = 0.5, -1.0, 1.0

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.chains = self._size(4096, 64)
        self.num_steps = self._size(1000, 80)
        # the recorded chain plus the ensemble
        self.chain_steps = self.num_steps + self.chains * self.num_steps

    def raw_config(self, sub):
        n = self.num_steps
        return {
            "experiment": "trunc-gauss", "mean": self.MEAN, "lo": self.LO, "hi": self.HI,
            "seed": self.sampler_seed(sub), "num_steps": n,
            "snapshot_steps": [n // 8, n // 4, n // 2, n],
        }

    def setup(self):
        cfg = cli.resolve_config(self.raw_config(0), chains_override=self.chains)
        return experiments.assemble_experiment(
            experiments.TruncGaussSpec(mean=cfg.mean, lo=cfg.lo, hi=cfg.hi)
        )

    def prepare(self):
        from scipy import stats

        law = stats.truncnorm(self.LO - self.MEAN, self.HI - self.MEAN, loc=self.MEAN)
        self.exact_mean = float(law.mean())
        u = (np.arange(1, self.chains + 1) - 0.5) / self.chains
        spec = experiments.TruncGaussSpec(mean=self.MEAN, lo=self.LO, hi=self.HI)
        self.grid = experiments.trunc_gauss_quantile(spec, u)
        _check(self.problems, np.max(np.abs(self.grid - law.ppf(u))) <= 1e-9,
               "trunc_gauss_quantile disagrees with scipy.stats.truncnorm")
        self.mean_tol = 0.5 * float(law.std())
        self.w2_tol = 0.5 * float(law.var())

    def call(self, sub, out_dir, span):
        res = CallResult()
        with keep_result(cli, "run_ensemble") as kept:
            rc = self._cli(
                ["experiment", "--chains", str(self.chains)], self.raw_config(sub), out_dir, span
            )
        with span("score"):
            if rc != 0:
                res.problems.append(f"proxlmc experiment exited with {rc}")
                return res
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
            x = kept[0].snapshot(self.num_steps)[:, 0]
            res.mean = float(np.mean(x))
            res.w2_sq = diagnostics.wasserstein2_1d(x, self.grid)
            in_box = int(np.sum((x >= self.LO) & (x <= self.HI)))
            recorded = self.num_steps * float(report["feasibility_fraction"])
            res.feasible_frac = (recorded + in_box) / (self.num_steps + x.size)
            res.digests, res.bytes_written = _file_digests(out_dir)
            err = abs(res.mean - self.exact_mean)
            p = res.problems
            _check(p, res.feasible_frac == 1.0, f"feasible fraction {res.feasible_frac} != 1")
            _check(p, err <= self.mean_tol, f"mean error {err:.4g} > {self.mean_tol:.4g}")
            _check(p, res.w2_sq <= self.w2_tol, f"W2^2 {res.w2_sq:.4g} > {self.w2_tol:.4g}")
            reported = report["snapshots"][-1]["w2_sq"]
            _check(p, abs(reported - res.w2_sq) <= 1e-12 * max(1.0, res.w2_sq),
                   f"report W2^2 {reported!r} disagrees with the exact quantiles {res.w2_sq!r}")
        return res


class FlatTrace(Workload):
    """`proxlmc sample` on wishart-precision d=1 with minibatch 5."""

    name = "flat-trace"
    calibration = "scalar"
    sub_seeds = 8
    N_DATA, DATA_SEED, GAMMA, MINIBATCH = 50, 1, 0.01, 5

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.num_steps = self._size(20000, 200)
        self.chain_steps = self.num_steps

    def raw_config(self, sub):
        return {
            "experiment": "wishart-precision", "d": 1, "n": self.N_DATA,
            "data_seed": self.DATA_SEED, "seed": self.sampler_seed(sub), "gamma": self.GAMMA,
            "num_steps": self.num_steps, "minibatch": self.MINIBATCH,
            "record_every": 1, "record_duals": True,
        }

    def setup(self):
        cfg = cli.resolve_config(self.raw_config(0))
        return experiments.assemble_experiment(wishart_spec(cfg.n, 1, cfg.nu, cfg.data_seed))

    def prepare(self):
        from scipy import stats

        nu = cli.resolve_config(self.raw_config(0)).nu
        spec = wishart_spec(self.N_DATA, 1, nu, self.DATA_SEED)
        shape = (nu + self.N_DATA) / 2.0
        rate = (1.0 + float(np.sum(spec.data**2))) / 2.0
        law = stats.gamma(shape, scale=1.0 / rate)
        self.exact_mean = float(law.mean())
        u = (np.arange(1, self.num_steps + 1) - 0.5) / self.num_steps
        self.grid = experiments.gamma_posterior_quantile(spec, u)
        _check(self.problems, np.max(np.abs(self.grid / law.ppf(u) - 1.0)) <= 1e-9,
               "gamma_posterior_quantile disagrees with scipy.stats.gamma")
        self.mean_tol = 0.25 * self.exact_mean
        self.w2_tol = float(law.var())

    def call(self, sub, out_dir, span):
        res = CallResult()
        rc = self._cli(["sample"], self.raw_config(sub), out_dir, span)
        with span("score"):
            if rc != 0:
                res.problems.append(f"proxlmc sample exited with {rc}")
                return res
            rows = np.loadtxt(os.path.join(out_dir, "trace.csv"), delimiter=",", skiprows=1)
            x = rows[:, 1]
            res.mean = float(np.mean(x))
            res.w2_sq = diagnostics.wasserstein2_1d(x, self.grid)
            res.feasible_frac = float(np.mean(rows[:, -1] == 1))
            res.digests, res.bytes_written = _file_digests(out_dir)
            err = abs(res.mean - self.exact_mean)
            p = res.problems
            _check(p, rows.shape == (self.num_steps, 4), f"trace.csv has shape {rows.shape}")
            _check(p, res.feasible_frac == 1.0, f"feasible fraction {res.feasible_frac} != 1")
            _check(p, err <= self.mean_tol, f"mean error {err:.4g} > {self.mean_tol:.4g}")
            _check(p, res.w2_sq <= self.w2_tol, f"W2^2 {res.w2_sq:.4g} > {self.w2_tol:.4g}")
        return res


WORKLOADS = {w.name: w for w in (MatrixPosterior, MatrixEnsemble, FlatEnsemble, FlatTrace)}
