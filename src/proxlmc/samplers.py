"""The Langevin step kernel and its chain drivers.

Every sampler discretizes the overdamped Langevin dynamics for the composite
target exp(-F - G) with step size gamma and noise sqrt(2 gamma) W:

* ula        x' = x - gamma g + sqrt(2 gamma) W          (ignores G)
* psgla      x' = prox_{gamma G}(x - gamma g + sqrt(2 gamma) W)
* projected  psgla restricted to indicator G (projection onto the support)
* myula      ula on F + G^lam, the Moreau-smoothed potential: g gains
             the Moreau term (x - prox_{lam G}(x)) / lam
* spla       psgla with an extra Lipschitz term R handled by its own prox
             between the noise and the G-prox:
             x_half = prox_{gamma r(., xi)}(x - gamma g + sqrt(2 gamma) W),
             x' = prox_{gamma G}(x_half)

g is the full or stochastic gradient of F at x, and a prox step has the dual
point y' = (x_half - x') / gamma.  One private kernel writes these updates
once over a leading chain axis: run_ensemble drives it on many chains,
run_chain on a stack of one, and step_psgla is one of its steps.  Per step,
draws happen in a fixed order on each chain's stream: minibatch indices
first, then the Gaussian, then (for spla) the R component index.  Samplers
that prox through G keep the iterates inside dom(G); ula and myula do not.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .potentials import EntryAbsolute, LipschitzProxTerm
from .space import RngStream, check_point, gaussian

SAMPLER_IDS = ("ula", "psgla", "projected", "myula", "spla")


class ChainDivergence(RuntimeError):
    """A chain produced a non-finite iterate; chain is its ensemble index, if any."""

    def __init__(self, step: int, sampler: str, chain: int | None = None):
        self.step = step
        self.sampler = sampler
        self.chain = chain
        where = "" if chain is None else f" in chain {chain}"
        super().__init__(f"{sampler} produced a non-finite iterate at step {step}{where}")


@dataclass
class SamplerConfig:
    gamma: float
    num_steps: int
    burn_in: int = 0
    minibatch: int | str = "full"  # int >= 1 or "full"
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
    """The R recorded steps of one chain.

    primal, half_steps and duals are (R, *shape) arrays, row i belonging to
    steps[i]; half_steps has no rows for ula and myula, duals none unless
    record_duals asked for them.  feasible_flags is a length-R bool array.
    """

    sampler: str
    config: SamplerConfig
    steps: list
    primal: np.ndarray
    half_steps: np.ndarray
    duals: np.ndarray
    feasible_flags: np.ndarray
    mean_checkpoints: list  # (step, mean of post-burn-in iterates)
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


def _prepare(sampler, smooth, nonsmooth, cfg, x0, lipschitz_term):
    """Start-up checks of both drivers, before any step; returns the checked
    start x0, which must be a finite point of the shape the potentials, and
    for spla the components of the R term, act on."""
    if sampler not in SAMPLER_IDS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_IDS}")
    if sampler == "projected" and not nonsmooth.is_indicator:
        raise ValueError("projected Langevin requires an indicator nonsmooth term")
    if sampler == "myula" and not (cfg.myula_lambda or 0) > 0:
        raise ValueError("myula requires myula_lambda > 0 in the sampler config")
    x = check_point(x0)
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    spla_r = sampler == "spla" and lipschitz_term is not None
    components = lipschitz_term.components if spla_r else []
    for term in (smooth, nonsmooth, *components):
        if term.point_shape is not None and term.point_shape != x.shape:
            raise ValueError(
                f"{type(term).__name__} acts on points of shape {term.point_shape}, "
                f"but x0 has shape {x.shape}"
            )
        if isinstance(term, EntryAbsolute) and not term.fits(x.shape):
            raise ValueError(
                f"{type(term).__name__} index {term.index} does not fit x0 of shape {x.shape}"
            )
    if step_size_warning(smooth, cfg.gamma):
        warnings.warn(
            f"gamma = {cfg.gamma} exceeds 1/L = {1.0 / smooth.L}; "
            "step-size conditions for the bias bounds are violated",
            RuntimeWarning,
            stacklevel=3,
        )
    return x


# ---------------------------------------------------------------------------
# the step kernel
# ---------------------------------------------------------------------------

def _kernel(sampler, smooth, nonsmooth, cfg, xs, gens, lipschitz_term, num_steps):
    """Advance the stack xs (leading chain axis; chain c draws from gens[c])
    by num_steps steps, yielding (k, x_half, xs) after step k.

    x_half is the stack handed to the G-prox, or None for ula and myula.
    Each step makes one gradient batch and one prox_batch (one stacked
    eigendecomposition for matrices).  Only the draw schedule varies.  With a
    full gradient and no SPLA index draw, each chain's noise is pre-drawn in
    chunks of at most 1024 numbers; otherwise each chain draws per step in
    kernel order (minibatch indices, noise, SPLA index) into preallocated
    buffers and the R-prox runs per chain.  A non-finite iterate raises
    ChainDivergence, naming the lowest such chain of a stack of several.
    """
    n = len(gens)
    gamma, noise_scale = cfg.gamma, math.sqrt(2.0 * cfg.gamma)
    r_term = lipschitz_term if sampler == "spla" else None
    per_step = cfg.minibatch != "full" or (r_term is not None and len(r_term.components) > 1)
    if per_step:
        grads, noise = np.empty_like(xs), np.empty_like(xs)
    size = xs[0].size
    chunk = max(1, min(1024 // size, int(5e6 / (n * size))))
    x_half = None
    for k in range(1, num_steps + 1):
        if per_step:
            for c, g in enumerate(gens):
                grads[c] = smooth.stochastic_gradient(xs[c], g, cfg.minibatch)
                noise[c] = gaussian(g, xs.shape[1:])
        else:
            if (k - 1) % chunk == 0:
                m = min(chunk, num_steps - k + 1)
                block = np.empty((n, m) + xs.shape[1:])
                for c, g in enumerate(gens):
                    block[c] = gaussian(g, xs.shape[1:], size=m)
            grads, noise = smooth.full_gradient(xs), block[:, (k - 1) % chunk]
        if sampler == "myula":
            lam = cfg.myula_lambda
            grads = grads + (xs - nonsmooth.prox_batch(lam, xs)) / lam
        xs = xs - gamma * grads + noise_scale * noise
        if r_term is not None:
            for c, g in enumerate(gens):
                xs[c] = r_term.prox_sample(gamma, xs[c], g)
        if sampler not in ("ula", "myula"):
            x_half, xs = xs, nonsmooth.prox_batch(gamma, xs)
        if not np.isfinite(xs).all():
            bad = ~np.isfinite(xs.reshape(n, -1)).all(axis=1)
            chain = int(np.argmax(bad)) if n > 1 else None
            raise ChainDivergence(step=k, sampler=sampler, chain=chain)
        yield k, x_half, xs


def step_psgla(x, smooth, nonsmooth, cfg, rng):
    """One proximal stochastic gradient Langevin step: the kernel on a stack
    of one chain.

    Returns (x_half, x_new, y_new): the pre-prox point, the next iterate
    prox_{gamma G}(x_half), and the dual point (x_half - x_new) / gamma.
    x gets the same start-up checks as run_chain and run_ensemble.
    """
    x = _prepare("psgla", smooth, nonsmooth, cfg, x, None)
    steps = _kernel("psgla", smooth, nonsmooth, cfg, x[None], [rng], None, 1)
    _, x_half, xs = next(steps)
    return x_half[0], xs[0], (x_half[0] - xs[0]) / cfg.gamma


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
    """Run one chain, the kernel on a stack of one, and record its trace.

    Iterates x^1 .. x^num_steps; step k is recorded when k > burn_in and
    (k - burn_in) is a multiple of record_every, into arrays preallocated
    for the R = (num_steps - burn_in) // record_every recorded steps.  The
    feasibility flags come from one domain check of G over the recorded
    stack after the chain.  mean_checkpoints is a list of distinct step
    indices in (burn_in, num_steps] at which the running mean of the
    post-burn-in iterates is stored, so long runs can track ergodic averages
    without keeping every iterate.  Aborts with ChainDivergence on the first
    non-finite iterate.
    """
    x = _prepare(sampler, smooth, nonsmooth, cfg, x0, lipschitz_term)
    checkpoints = sorted(int(s) for s in mean_checkpoints)
    if checkpoints and not cfg.burn_in < checkpoints[0] <= checkpoints[-1] <= cfg.num_steps:
        raise ValueError(f"mean checkpoints must lie in (burn_in, num_steps], got {checkpoints}")
    if len(set(checkpoints)) != len(checkpoints):
        raise ValueError(f"mean checkpoints must be distinct, got {checkpoints}")
    gens = [RngStream(cfg.seed, stream_id)]
    burn_in, every = cfg.burn_in, cfg.record_every
    num_recorded = (cfg.num_steps - burn_in) // every
    primal = np.empty((num_recorded, *x.shape))
    half = np.empty((0 if sampler in ("ula", "myula") else num_recorded, *x.shape))
    means = []
    running_sum = np.zeros_like(x)
    tally = 0
    next_cp = 0
    t0 = time.perf_counter()
    steps = _kernel(sampler, smooth, nonsmooth, cfg, x[None], gens, lipschitz_term, cfg.num_steps)
    for k, x_half, xs in steps:
        if k <= burn_in:
            continue
        running_sum += xs[0]
        tally += 1
        i, off = divmod(k - burn_in, every)
        if off == 0:
            primal[i - 1] = xs[0]
            if len(half):
                half[i - 1] = x_half[0]
        while next_cp < len(checkpoints) and checkpoints[next_cp] == k:
            means.append((k, running_sum / tally))
            next_cp += 1
    duals = (half - primal) / cfg.gamma if cfg.record_duals and len(half) else half[:0]
    trace = ChainTrace(
        sampler=sampler,
        config=cfg,
        steps=list(range(burn_in + every, cfg.num_steps + 1, every)),
        primal=primal,
        half_steps=half,
        duals=duals,
        feasible_flags=nonsmooth.domain_mask(primal),
        mean_checkpoints=means,
        nonsmooth=nonsmooth,
    )
    trace.wall_time = time.perf_counter() - t0
    return trace


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

    Chain c runs on stream (cfg.seed, c) and equals run_chain(..., stream_id=c)
    bit for bit: both drive the same kernel.  Memory is O(num_chains) per
    snapshot, not O(num_chains * num_steps).  Snapshot step 0 stores the
    shared initial point.  A divergence reports the earliest step at which
    any chain went non-finite and the lowest such chain.
    """
    if num_chains < 2:
        raise ValueError(f"an ensemble needs num_chains >= 2, got {num_chains}")
    x0 = _prepare(sampler, smooth, nonsmooth, cfg, x0, lipschitz_term)
    steps = sorted(int(s) for s in snapshot_steps)
    if not steps:
        raise ValueError("snapshot_steps must be non-empty")
    if steps[0] < 0 or steps[-1] > cfg.num_steps:
        raise ValueError("snapshot steps must lie in [0, num_steps]")
    if len(set(steps)) != len(steps):
        raise ValueError(f"snapshot steps must be distinct, got {steps}")
    gens = [RngStream(cfg.seed, c) for c in range(num_chains)]
    xs = np.repeat(x0[None], num_chains, axis=0)
    wanted = set(steps)
    snaps = {0: xs} if 0 in wanted else {}
    for k, _, xs in _kernel(sampler, smooth, nonsmooth, cfg, xs, gens, lipschitz_term, steps[-1]):
        if k in wanted:
            snaps[k] = xs
    return EnsembleResult(
        sampler=sampler,
        num_chains=num_chains,
        seed=cfg.seed,
        snapshot_steps=steps,
        snapshots=snaps,
    )


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
    if not L >= 0:  # NaN fails too
        raise ValueError(f"L must be >= 0, got {L}")
    if not w0_sq >= 0:
        raise ValueError(f"w0_sq must be >= 0, got {w0_sq}")
    for name, v in (("eps", eps), ("L", L), ("lambda_f", lambda_f), ("C", C), ("w0_sq", w0_sq)):
        if math.isinf(v):  # only +inf is left
            raise ValueError(f"{name} must be finite, got {v}")
    cap = 1.0 / L if L > 0 else math.inf
    gamma = min(cap, lambda_f * eps / (2.0 * C))
    factor = max(L / lambda_f, 2.0 * C / (lambda_f**2 * eps))
    bound = factor * math.log(2.0 * w0_sq / eps) if w0_sq > 0 else 0.0
    k = max(0, math.ceil(bound))
    return gamma, k
