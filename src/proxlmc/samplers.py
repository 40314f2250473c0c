"""Langevin step kernels and chain drivers.

All kernels discretize the overdamped Langevin dynamics for the composite
target exp(-F - G) with step size gamma and noise sqrt(2 gamma) W:

* ula        x' = x - gamma g + sqrt(2 gamma) W          (ignores G)
* psgla      x' = prox_{gamma G}(x - gamma g + sqrt(2 gamma) W)
* projected  psgla restricted to indicator G (projection onto the support)
* myula      ula on F + G^lam, the Moreau-smoothed potential
* spla       psgla with an extra Lipschitz term R handled by its own prox
             between the noise and the G-prox

g is the full or stochastic gradient of F at x.  Per step, draws happen in a
fixed order on the chain's stream: minibatch indices first, then the Gaussian,
then (for spla) the R component index.  Kernels that prox through G keep the
iterates inside dom(G); ula and myula do not.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .potentials import LipschitzProxTerm, dual_from_primal, moreau_gradient
from .space import FLAT, RngStream, Space

SAMPLER_IDS = ("ula", "psgla", "projected", "myula", "spla")


class ChainDivergence(RuntimeError):
    """A chain produced a non-finite iterate."""

    def __init__(self, step: int, sampler: str):
        self.step = step
        self.sampler = sampler
        super().__init__(f"{sampler} produced a non-finite iterate at step {step}")


@dataclass
class SamplerConfig:
    gamma: float
    num_steps: int
    burn_in: int = 0
    minibatch: object = "full"  # int >= 1 or "full"
    myula_lambda: float | None = None
    seed: int = 0
    record_every: int = 1
    record_duals: bool = False

    def __post_init__(self):
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError(f"gamma must be a finite number > 0, got {self.gamma}")
        if self.num_steps < 1:
            raise ValueError(f"num_steps must be >= 1, got {self.num_steps}")
        if self.burn_in < 0 or self.burn_in >= self.num_steps:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < num_steps, got {self.burn_in}"
            )
        mb = self.minibatch
        if mb != "full" and (isinstance(mb, bool) or not isinstance(mb, int) or mb < 1):
            raise ValueError(f"minibatch must be 'full' or an int >= 1, got {mb!r}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")


@dataclass
class ChainTrace:
    sampler: str
    config: SamplerConfig
    steps: list = field(default_factory=list)
    primal: list = field(default_factory=list)
    half_steps: list = field(default_factory=list)
    duals: list = field(default_factory=list)
    feasible_flags: list = field(default_factory=list)
    mean_checkpoints: list = field(default_factory=list)  # (step, mean of post-burn-in iterates)
    wall_time: float = 0.0
    nonsmooth: object = None  # the G that feasible_flags were checked against

    def __len__(self):
        return len(self.primal)


@dataclass
class EnsembleResult:
    sampler: str
    num_chains: int
    seed: int
    snapshot_steps: list
    snapshots: dict  # step -> array with leading chain axis

    def snapshot(self, step: int) -> np.ndarray:
        return self.snapshots[step]


def step_size_warning(smooth, gamma: float) -> bool:
    """True when L > 0 and gamma exceeds 1/L (bias bounds then do not apply)."""
    return smooth.L > 0 and gamma > 1.0 / smooth.L


# ---------------------------------------------------------------------------
# step kernels
# ---------------------------------------------------------------------------

def _forward(x, smooth, cfg, rng, space):
    """Shared forward piece: x - gamma g + sqrt(2 gamma) W.

    Draw order: minibatch indices (inside stochastic_gradient), then noise.
    """
    g = smooth.stochastic_gradient(x, rng, cfg.minibatch)
    w = space.gaussian(rng)
    return x - cfg.gamma * g + math.sqrt(2.0 * cfg.gamma) * w


def _space_of(x) -> Space:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return Space(FLAT, x.shape[0])
    if x.ndim == 2 and x.shape[0] == x.shape[1]:
        return Space("symmetric", x.shape[0])
    raise ValueError(f"cannot infer state space from point of shape {x.shape}")


def step_ula(x, smooth, cfg, rng, space=None):
    """Unadjusted Langevin step; the nonsmooth term is ignored entirely."""
    space = space or _space_of(x)
    return _forward(np.asarray(x, dtype=float), smooth, cfg, rng, space)


def step_psgla(x, smooth, nonsmooth, cfg, rng, space=None):
    """Proximal stochastic gradient Langevin step.

    Returns (x_half, x_new, y_new): the pre-prox point, the next iterate
    prox_{gamma G}(x_half), and the dual point (x_half - x_new) / gamma.
    """
    space = space or _space_of(x)
    x_half = _forward(np.asarray(x, dtype=float), smooth, cfg, rng, space)
    x_new = nonsmooth.prox(cfg.gamma, x_half)
    y_new = (x_half - x_new) / cfg.gamma
    return x_half, x_new, y_new


def step_projected_langevin(x, smooth, nonsmooth, cfg, rng, space=None):
    """step_psgla specialized to indicator G: prox is the projection."""
    if not nonsmooth.is_indicator:
        raise ValueError("projected Langevin requires an indicator nonsmooth term")
    return step_psgla(x, smooth, nonsmooth, cfg, rng, space)


def step_myula(x, smooth, nonsmooth, cfg, rng, space=None):
    """Moreau-Yosida smoothed ULA step.

    Langevin on F + G^lam, whose gradient adds (x - prox_{lam G}(x)) / lam.
    Iterates may leave dom(G).
    """
    if cfg.myula_lambda is None or not cfg.myula_lambda > 0:
        raise ValueError("myula requires myula_lambda > 0 in the sampler config")
    space = space or _space_of(x)
    x = np.asarray(x, dtype=float)
    g = smooth.stochastic_gradient(x, rng, cfg.minibatch)
    g = g + moreau_gradient(cfg.myula_lambda, x, nonsmooth)
    w = space.gaussian(rng)
    return x - cfg.gamma * g + math.sqrt(2.0 * cfg.gamma) * w


def step_spla(x, smooth, nonsmooth, cfg, rng, lipschitz_term=None, space=None):
    """Split proximal Langevin step with an extra Lipschitz term R.

    x_half = prox_{gamma r(., xi)}(x - gamma g + sqrt(2 gamma) W)
    x_new  = prox_{gamma G}(x_half)

    The R component index is drawn from the same stream, after the noise.
    With no R (or a single zero component) this consumes exactly the draws
    of step_psgla and reproduces it bitwise.
    """
    space = space or _space_of(x)
    pre = _forward(np.asarray(x, dtype=float), smooth, cfg, rng, space)
    if lipschitz_term is not None:
        x_half = lipschitz_term.prox_sample(cfg.gamma, pre, rng)
    else:
        x_half = pre
    x_new = nonsmooth.prox(cfg.gamma, x_half)
    y_new = (x_half - x_new) / cfg.gamma
    return x_half, x_new, y_new


def _advance(sampler, x, smooth, nonsmooth, cfg, rng, lipschitz_term, space):
    """Uniform kernel dispatch: returns (x_new, x_half, y_new)."""
    if sampler == "ula":
        return step_ula(x, smooth, cfg, rng, space), None, None
    if sampler == "psgla":
        x_half, x_new, y_new = step_psgla(x, smooth, nonsmooth, cfg, rng, space)
        return x_new, x_half, y_new
    if sampler == "projected":
        x_half, x_new, y_new = step_projected_langevin(x, smooth, nonsmooth, cfg, rng, space)
        return x_new, x_half, y_new
    if sampler == "myula":
        return step_myula(x, smooth, nonsmooth, cfg, rng, space), None, None
    if sampler == "spla":
        x_half, x_new, y_new = step_spla(x, smooth, nonsmooth, cfg, rng, lipschitz_term, space)
        return x_new, x_half, y_new
    raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_IDS}")


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def run_chain(
    sampler: str,
    smooth,
    nonsmooth,
    cfg: SamplerConfig,
    x0,
    lipschitz_term: LipschitzProxTerm | None = None,
    stream_id: int = 0,
    mean_checkpoints=(),
) -> ChainTrace:
    """Run one chain and record its trace.

    Iterates x^1 .. x^num_steps; step k is recorded when k > burn_in and
    (k - burn_in) is a multiple of record_every.  mean_checkpoints is an
    ascending list of step indices in (burn_in, num_steps] at which the
    running mean of the post-burn-in iterates is stored, so long runs can
    track ergodic averages without keeping every iterate.  Aborts with
    ChainDivergence on the first non-finite iterate.
    """
    if sampler not in SAMPLER_IDS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_IDS}")
    space = _space_of(x0)
    x = space.check_point(x0)
    if step_size_warning(smooth, cfg.gamma):
        warnings.warn(
            f"gamma = {cfg.gamma} exceeds 1/L = {1.0 / smooth.L}; "
            "step-size conditions for the bias bounds are violated",
            RuntimeWarning,
            stacklevel=2,
        )
    checkpoints = sorted(int(s) for s in mean_checkpoints)
    if checkpoints and not cfg.burn_in < checkpoints[0] <= checkpoints[-1] <= cfg.num_steps:
        raise ValueError(f"mean checkpoints must lie in (burn_in, num_steps], got {checkpoints}")
    rng = RngStream(cfg.seed, stream_id)
    trace = ChainTrace(sampler=sampler, config=cfg, nonsmooth=nonsmooth)
    running_sum = None
    tally = 0
    next_cp = 0
    t0 = time.perf_counter()
    for k in range(1, cfg.num_steps + 1):
        x, x_half, y = _advance(sampler, x, smooth, nonsmooth, cfg, rng, lipschitz_term, space)
        if not np.all(np.isfinite(x)):
            raise ChainDivergence(step=k, sampler=sampler)
        if k > cfg.burn_in:
            if running_sum is None:
                running_sum = np.zeros_like(x)
            running_sum += x
            tally += 1
            if (k - cfg.burn_in) % cfg.record_every == 0:
                trace.steps.append(k)
                trace.primal.append(x.copy())
                if x_half is not None:
                    trace.half_steps.append(x_half.copy())
                if cfg.record_duals and y is not None:
                    trace.duals.append(y.copy())
                trace.feasible_flags.append(bool(nonsmooth.in_domain(x)))
        while next_cp < len(checkpoints) and checkpoints[next_cp] == k:
            trace.mean_checkpoints.append((k, running_sum / tally))
            next_cp += 1
    trace.wall_time = time.perf_counter() - t0
    return trace


_FAST_SAMPLERS = ("ula", "psgla", "projected", "myula")


def run_ensemble(
    sampler: str,
    smooth,
    nonsmooth,
    cfg: SamplerConfig,
    num_chains: int,
    snapshot_steps,
    x0,
    lipschitz_term: LipschitzProxTerm | None = None,
) -> EnsembleResult:
    """Run num_chains independent chains, keeping only snapshot cross-sections.

    Chain c runs on stream (cfg.seed, c).  Memory is O(num_chains) per
    snapshot, not O(num_chains * num_steps).  Snapshot step 0 stores the
    shared initial point.  Flat-space, full-gradient configurations run a
    vectorized path that is bitwise identical to the per-chain loop.
    """
    if num_chains < 2:
        raise ValueError(f"an ensemble needs num_chains >= 2, got {num_chains}")
    if sampler not in SAMPLER_IDS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_IDS}")
    space = _space_of(x0)
    x0 = space.check_point(x0)
    steps = sorted(int(s) for s in snapshot_steps)
    if not steps:
        raise ValueError("snapshot_steps must be non-empty")
    if steps[0] < 0 or steps[-1] > cfg.num_steps:
        raise ValueError("snapshot steps must lie in [0, num_steps]")
    if len(set(steps)) != len(steps):
        raise ValueError(f"snapshot steps must be distinct, got {steps}")
    if step_size_warning(smooth, cfg.gamma):
        warnings.warn(
            f"gamma = {cfg.gamma} exceeds 1/L = {1.0 / smooth.L}",
            RuntimeWarning,
            stacklevel=2,
        )

    fast = (
        space.kind == FLAT
        and cfg.minibatch == "full"
        and sampler in _FAST_SAMPLERS
        and (sampler != "myula" or (cfg.myula_lambda or 0) > 0)
    )
    if fast:
        snaps = _ensemble_vectorized(sampler, smooth, nonsmooth, cfg, num_chains, steps, x0, space)
    else:
        snaps = _ensemble_loop(
            sampler, smooth, nonsmooth, cfg, num_chains, steps, x0, space, lipschitz_term
        )
    return EnsembleResult(
        sampler=sampler,
        num_chains=num_chains,
        seed=cfg.seed,
        snapshot_steps=steps,
        snapshots=snaps,
    )


def _ensemble_loop(sampler, smooth, nonsmooth, cfg, num_chains, steps, x0, space, lipschitz_term):
    wanted = set(steps)
    snaps = {s: np.empty((num_chains,) + x0.shape) for s in steps}
    for c in range(num_chains):
        rng = RngStream(cfg.seed, c)
        x = x0.copy()
        if 0 in wanted:
            snaps[0][c] = x
        for k in range(1, max(steps) + 1):
            x, _, _ = _advance(sampler, x, smooth, nonsmooth, cfg, rng, lipschitz_term, space)
            if not np.all(np.isfinite(x)):
                raise ChainDivergence(step=k, sampler=sampler)
            if k in wanted:
                snaps[k][c] = x
    return snaps


def _ensemble_vectorized(sampler, smooth, nonsmooth, cfg, num_chains, steps, x0, space):
    """Vectorized across chains; per-chain streams, noise pre-drawn in step
    chunks (chunked draws replay identically to one-at-a-time draws)."""
    d = space.d
    gens = [RngStream(cfg.seed, c) for c in range(num_chains)]
    xs = np.tile(x0, (num_chains, 1))
    wanted = set(steps)
    snaps = {}
    if 0 in wanted:
        snaps[0] = xs.copy()
    last = max(steps)
    gamma = cfg.gamma
    noise_scale = math.sqrt(2.0 * gamma)
    chunk = max(1, min(1024, int(5e6 / max(1, num_chains * d))))
    k = 0
    while k < last:
        m = min(chunk, last - k)
        block = np.empty((num_chains, m, d))
        for c, g in enumerate(gens):
            block[c] = g.standard_normal((m, d))
        for j in range(m):
            k += 1
            grads = smooth.full_gradient_batch(xs)
            pre = xs - gamma * grads + noise_scale * block[:, j, :]
            if sampler == "ula":
                xs = pre
            elif sampler in ("psgla", "projected"):
                xs = nonsmooth.prox_batch(gamma, pre)
            else:  # myula
                lam = cfg.myula_lambda
                smoothed = (xs - nonsmooth.prox_batch(lam, xs)) / lam
                xs = xs - gamma * (grads + smoothed) + noise_scale * block[:, j, :]
            if not np.all(np.isfinite(xs)):
                raise ChainDivergence(step=k, sampler=sampler)
            if k in wanted:
                snaps[k] = xs.copy()
    return snaps


def tune_for_epsilon(eps: float, L: float, lambda_f: float, C: float, w0_sq: float):
    """Step size and iteration count hitting W2^2 accuracy eps under strong
    convexity:

    gamma = min(1/L, lambda_f eps / (2 C)),
    k = ceil( max(L/lambda_f, 2C/(lambda_f^2 eps)) * log(2 W0^2 / eps) ).

    L = 0 removes the 1/L cap (constant-gradient smooth part).
    """
    if not eps > 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if not lambda_f > 0:
        raise ValueError(f"tuning requires strong convexity lambda_f > 0, got {lambda_f}")
    if not C > 0:
        raise ValueError(f"C must be > 0, got {C}")
    if L < 0 or w0_sq < 0:
        raise ValueError("L and w0_sq must be >= 0")
    cap = 1.0 / L if L > 0 else math.inf
    gamma = min(cap, lambda_f * eps / (2.0 * C))
    factor = max(L / lambda_f, 2.0 * C / (lambda_f**2 * eps))
    bound = factor * math.log(2.0 * w0_sq / eps) if w0_sq > 0 else 0.0
    k = max(0, math.ceil(bound))
    return gamma, k
