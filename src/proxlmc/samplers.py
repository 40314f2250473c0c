"""The Langevin step kernel and its chain drivers.

Every sampler discretizes the overdamped Langevin dynamics for the composite
target exp(-F - G) with step size gamma and noise sqrt(2 gamma) W:

* ula        x' = x - gamma g + sqrt(2 gamma) W          (ignores G)
* psgla      x' = prox_{gamma G}(x - gamma g + sqrt(2 gamma) W)
* projected  psgla restricted to indicator G (projection onto the support)
* myula      ula on F + G^lam, the Moreau-smoothed potential: g gains
             the Moreau term (x - prox_{lam G}(x)) / lam
* spla       psgla with the Lipschitz term R(x) = (w/d) sum_j |x[j, ..., j]|
             (w = spla_r_weight) handled by the prox of one drawn entry j
             between the noise and the G-prox:
             x_half = prox_{gamma w |x[j, ..., j]|}(x - gamma g + sqrt(2 gamma) W),
             x' = prox_{gamma G}(x_half)

g is the full or stochastic gradient of F at x, and a prox step has the dual
point y' = (x_half - x') / gamma.  One private kernel writes these updates
once over a leading chain axis: run_ensemble drives it on many chains,
run_chain on a stack of one, and step_psgla is one of its steps.  Each
chain pre-draws a chunk of steps at a time, per step in a fixed order:
minibatch indices, the Gaussian, (for spla with d > 1) the R entry j; each
step's x meets the chunk's x-free mean of the drawn data in a minibatch
gradient.  Samplers that prox through G keep the iterates inside dom(G).
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .potentials import AbsoluteValue, FiniteSum, _weight
from .space import RngStream, _finite_number, _integer, _position, _seek, check_point, gaussian

SAMPLER_IDS = ("ula", "psgla", "projected", "myula", "spla")
_TILE_BYTES = 1 << 18  # pre-drawn noise per tile of chains, which fits in the L2 cache


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
    spla_r_weight: float | None = None  # w of spla's R term; 0 or None: no R term

    def __post_init__(self):
        for name in ("num_steps", "burn_in", "record_every", "seed"):
            _integer(getattr(self, name), name)
        if not (_finite_number(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be a finite number > 0, got {self.gamma!r}")
        if not (self.myula_lambda is None or _finite_number(self.myula_lambda)):
            raise ValueError(f"myula_lambda must be a finite number, got {self.myula_lambda!r}")
        if not 1 <= self.num_steps < 2**63:  # numpy's index limit
            raise ValueError(f"num_steps must be >= 1 and < 2**63, got {self.num_steps}")
        if self.burn_in < 0 or self.burn_in >= self.num_steps:
            raise ValueError(
                f"burn_in must satisfy 0 <= burn_in < num_steps, got {self.burn_in}"
            )
        mb = self.minibatch
        if mb != "full" and (isinstance(mb, str) or _integer(mb, "minibatch") < 1):
            raise ValueError(f"minibatch must be 'full' or an int >= 1, got {mb!r}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not isinstance(self.record_duals, (bool, np.bool_)):
            raise ValueError(f"record_duals must be a bool, got {self.record_duals!r}")
        if self.spla_r_weight is not None:
            _weight(self.spla_r_weight, "spla_r_weight")


@dataclass
class ChainTrace:
    """The R recorded steps of one chain: steps is their range, primal and
    duals are (R, *shape) arrays, row i belonging to steps[i]; duals has rows
    only when record_duals asked for them of a sampler that proxes through G."""

    steps: range
    primal: np.ndarray
    duals: np.ndarray
    mean_checkpoints: list  # (step, mean of post-burn-in iterates)


@dataclass
class EnsembleResult:
    snapshots: dict  # step -> array with leading chain axis
    trace: ChainTrace | None = None  # chain 0's, when run_ensemble got mean_checkpoints

    def snapshot(self, step: int) -> np.ndarray:
        return self.snapshots[step]


def step_size_warning(smooth, gamma: float) -> bool:
    """True when L > 0 and gamma exceeds 1/L (bias bounds then do not apply)."""
    return smooth.L > 0 and gamma > 1.0 / smooth.L


def _step_list(steps, what, lo, num_steps) -> list:
    """steps as a sorted list of distinct ints in [lo, num_steps], or a ValueError naming what."""
    if not np.iterable(steps):
        raise ValueError(f"{what}s must be a list of step indices, got {steps!r}")
    out = sorted(_integer(s, what) for s in steps)
    if out and not lo <= out[0] <= out[-1] <= num_steps:
        raise ValueError(f"{what}s must lie in [{lo}, num_steps = {num_steps}], got {out}")
    if len(set(out)) != len(out):
        raise ValueError(f"{what}s must be distinct, got {out}")
    return out


def check_run(sampler, smooth, nonsmooth, cfg, x0):
    """The start-up check of run_chain and run_ensemble, before any step:
    ValueError unless the sampler is known, projected Langevin has an
    indicator G and myula a myula_lambda > 0, and x0 is a finite point of the
    shape the potentials act on.  Returns the checked start x0."""
    if sampler not in SAMPLER_IDS:
        raise ValueError(f"unknown sampler {sampler!r}; expected one of {SAMPLER_IDS}")
    if sampler == "projected" and not nonsmooth.is_indicator:
        raise ValueError(f"sampler 'projected' needs an indicator G, not {type(nonsmooth).__name__}")
    if sampler == "myula" and not (cfg.myula_lambda or 0) > 0:
        raise ValueError("myula requires myula_lambda > 0 in the sampler config")
    x = check_point(x0)
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    for term in (smooth, nonsmooth):
        if term.point_shape is not None and term.point_shape != x.shape:
            raise ValueError(
                f"{type(term).__name__} acts on points of shape {term.point_shape}, "
                f"but x0 has shape {x.shape}"
            )
    return x


def _prepare(sampler, smooth, nonsmooth, cfg, x0):
    """check_run, then the step-size warning, once per run."""
    x = check_run(sampler, smooth, nonsmooth, cfg, x0)
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

def _raise_if_diverged(xs, k, sampler):
    """ChainDivergence at step k when the stack xs has a non-finite entry,
    naming the lowest such chain of a stack of several."""
    bad = ~np.isfinite(xs.reshape(len(xs), -1)).all(axis=1)
    if bad.any():
        chain = int(np.argmax(bad)) if len(xs) > 1 else None
        raise ChainDivergence(step=k, sampler=sampler, chain=chain)


def _cpu_count() -> int:  # the CPUs this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fill(block, tiles, gens, noise_scale, draw):
    """Fill block[:, c] with chain c's next points times noise_scale: worker w of
    W = len(tiles), 0 being the caller, fills tiles w, w + W, ... of chains on gens[w],
    draw(gens[w], c, rows) filling chain c's rows of its tile."""
    n, per_tile, workers = block.shape[1], tiles.shape[1], len(tiles)
    errors = [None] * workers  # (first tile, exception) of each failed worker

    def work(w):
        try:
            for c0 in range(w * per_tile, n, workers * per_tile):
                rows = tiles[w, : n - c0, : len(block)]
                for c, chain_rows in enumerate(rows, c0):
                    draw(gens[w], c, chain_rows)
                np.multiply(rows.swapaxes(0, 1), noise_scale, out=block[:, c0 : c0 + per_tile])
        except BaseException as err:  # the lowest chain's is raised after every join
            errors[w] = (c0, err)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if any(errors):
        raise min(e for e in errors if e)[1]


def _kernel(sampler, smooth, nonsmooth, cfg, xs, rng, num_steps, done=0):
    """Advance the stack xs (leading chain axis) from step done to step
    num_steps, yielding (k, x_half, xs) after step k.

    x_half is the stack handed to the G-prox, or None for ula and myula.  A
    step is one gradient batch, one update, for spla with spla_r_weight w > 0
    one AbsoluteValue(w).prox of the stacked entries x[c, e_c, ..., e_c],
    chain c's drawn R entry e_c (0 when d = 1, undrawn), and one prox_batch
    (one stacked eigendecomposition for matrices).  Each chain pre-draws
    chunks of at most 1024 // size steps, never past num_steps, into
    step-major blocks allocated before step 1 (step j reads block[j]).
    Every chunk is drawn one way, by _fill: a cache-sized tile of chains at
    a time, each chain's draws in kernel order (per step: minibatch indices,
    the noise, the R entry; noise alone in one call), by W workers with the
    same bits for any W.  W is min(CPUs, tiles) when chains draw noise alone
    and 1 otherwise, as per-step calls hold the GIL.
    A FiniteSum's x-free minibatch mean is taken once per chunk and each step
    combines it with the stack.  A non-finite iterate, or a failed G-prox of a
    non-finite x_half, raises ChainDivergence.  A stack of one draws on rng
    where it stands; chain c of several draws on its worker's generator (rng
    for worker 0) set to c's position (space._seek), and saves it to draw
    again in this call or, as chain 0, to leave rng there.
    """
    n = len(xs)
    gamma, noise_scale = cfg.gamma, math.sqrt(2.0 * cfg.gamma)
    shape, size = xs.shape[1:], xs[0].size
    b = int(cfg.minibatch) if cfg.minibatch != "full" and isinstance(smooth, FiniteSum) else 0
    r = AbsoluteValue(cfg.spla_r_weight) if sampler == "spla" and cfg.spla_r_weight else None
    picked = r is not None and shape[0] > 1  # an R entry drawn per step
    # numbers per chain-step: the noise, b indices and the data rows they gather, an R entry
    drawn = size + (b * (1 + smooth.data.shape[1]) if b else 0) + picked
    chunk = max(1, min(1024 // size, 5_000_000 // (n * drawn), num_steps - done))
    block = np.empty((chunk, n) + shape)
    idx = np.empty((chunk, n, b), dtype=np.int64) if b else None
    picks = np.empty((chunk, n), dtype=np.intp) if picked else None
    per_tile = min(n, max(1, _TILE_BYTES // (8 * chunk * size)))
    # one worker when a chain draws more than noise: its tiny generator calls hold the
    # GIL, and perfbench's tracer, which rebinds RngStream.integers, is not thread-safe
    workers = 1 if b or picked else min(_cpu_count(), -(-n // per_tile))
    tiles = np.empty((workers, per_tile, chunk) + shape)  # refilled chunk by chunk
    gens = [rng] + [RngStream(cfg.seed) for _ in range(workers - 1)]
    saved = [None] * n  # each chain's position, while it has later draws to make

    def draw(g, c, rows):  # chain c's draws of the chunk in kernel order, g at c's position
        if n > 1:
            _seek(g, saved[c] or c)
        if not (b or picked):  # noise alone: the whole chunk in one call
            gaussian(g, shape, out=rows)
        else:
            for i, noise in enumerate(rows):
                if b:
                    idx[i, c] = g.integers(smooth.n, size=b)
                gaussian(g, shape, out=noise)
                if picked:
                    picks[i, c] = g.integers(shape[0])
        if n > 1 and (c == 0 or k + steps <= num_steps):
            saved[c] = _position(g)

    # x * 0 is 0 for finite x and NaN otherwise, so this dot is NaN exactly
    # when xs has a non-finite entry; unlike a sum, it cannot overflow
    zeros = np.zeros(xs.size)
    chains, x_half = np.arange(n), None
    for k in range(done + 1, num_steps + 1):
        j = (k - done - 1) % chunk
        if j == 0:
            steps = min(chunk, num_steps - k + 1)
            _fill(block[:steps], tiles, gens, noise_scale, draw)
            mean = smooth._minibatch_mean(idx[:steps], b) if b else None
            if n > 1 and k + steps > num_steps:  # the last chunk: leave rng on chain 0
                _seek(rng, saved[0])
        grads = smooth._minibatch_combine(xs, mean[j]) if b else smooth.full_gradient(xs)
        if sampler == "myula":
            lam = cfg.myula_lambda
            grads = grads + (xs - nonsmooth.prox_batch(lam, xs)) / lam
        xs = xs - gamma * grads + block[j]
        if r is not None:  # one gather, prox and scatter of each chain's R entry
            at = (chains, *[picks[j] if picked else 0] * len(shape))
            xs[at] = r.prox(gamma, xs[at])
        if sampler not in ("ula", "myula"):  # a G-prox
            try:
                x_half, xs = xs, nonsmooth.prox_batch(gamma, xs)
            except ValueError:  # an eigensolve fails on a non-finite entry
                _raise_if_diverged(xs, k, sampler)
                raise
        if not math.isfinite(np.vdot(xs, zeros)):
            _raise_if_diverged(xs, k, sampler)
        yield k, x_half, xs


def step_psgla(x, smooth, nonsmooth, cfg, rng):
    """One proximal stochastic gradient Langevin step: the kernel on a stack
    of one chain.

    Returns (x_half, x_new, y_new): the pre-prox point, the next iterate
    prox_{gamma G}(x_half), and the dual point (x_half - x_new) / gamma.
    x gets the same start-up checks as run_chain and run_ensemble.
    """
    x = _prepare("psgla", smooth, nonsmooth, cfg, x)
    steps = _kernel("psgla", smooth, nonsmooth, cfg, x[None], rng, 1)
    _, x_half, xs = next(steps)
    return x_half[0], xs[0], (x_half[0] - xs[0]) / cfg.gamma


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _record(steps, sampler, cfg, x0, mean_checkpoints) -> ChainTrace:
    """run_chain's recording of chain 0 of the stacks that steps yields from x0."""
    checkpoints = _step_list(mean_checkpoints, "mean checkpoint", cfg.burn_in + 1, cfg.num_steps)
    burn_in, every = cfg.burn_in, cfg.record_every
    num_recorded = (cfg.num_steps - burn_in) // every
    primal = np.empty((num_recorded, *x0.shape))
    record_duals = cfg.record_duals and sampler not in ("ula", "myula")
    half = np.empty((num_recorded if record_duals else 0, *x0.shape))
    means = []
    # the running sum of post-burn-in iterates is kept up to the last checkpoint only
    last_cp = checkpoints[-1] if checkpoints else 0
    running_sum = np.zeros_like(x0)
    next_cp = 0
    for k, x_half, xs in steps:
        if k <= burn_in:
            continue
        if k <= last_cp:
            running_sum += xs[0]
            if k == checkpoints[next_cp]:
                means.append((k, running_sum / (k - burn_in)))
                next_cp += 1
        i, off = divmod(k - burn_in, every)
        if off == 0:
            primal[i - 1] = xs[0]
            if record_duals:
                half[i - 1] = x_half[0]
    if record_duals:  # y = (x_half - x) / gamma, formed in place
        half -= primal
        half /= cfg.gamma
    return ChainTrace(
        steps=range(burn_in + every, cfg.num_steps + 1, every),
        primal=primal,
        duals=half,
        mean_checkpoints=means,
    )


def run_chain(sampler: str, smooth, nonsmooth, cfg: SamplerConfig, x0, stream_id: int = 0,
              mean_checkpoints=()) -> ChainTrace:
    """Run one chain, the kernel on a stack of one, and record its trace.

    Iterates x^1 .. x^num_steps; step k is recorded when k > burn_in and
    (k - burn_in) is a multiple of record_every, into arrays preallocated
    for the R = (num_steps - burn_in) // record_every recorded steps; the
    pre-prox points x_half are kept only for the duals that record_duals
    asks for.  mean_checkpoints is a list of distinct step indices in
    (burn_in, num_steps] at which the running mean of the post-burn-in
    iterates is stored, so long runs can track ergodic averages without
    keeping every iterate.  Aborts with ChainDivergence on the first
    non-finite iterate.
    """
    x = _prepare(sampler, smooth, nonsmooth, cfg, x0)
    rng = RngStream(cfg.seed, stream_id)
    steps = _kernel(sampler, smooth, nonsmooth, cfg, x[None], rng, cfg.num_steps)
    return _record(steps, sampler, cfg, x, mean_checkpoints)


def run_ensemble(sampler: str, smooth, nonsmooth, cfg: SamplerConfig, num_chains: int,
                 snapshot_steps, x0, mean_checkpoints=None) -> EnsembleResult:
    """Run num_chains independent chains, keeping only snapshot cross-sections.

    Chain c runs on stream (cfg.seed, c) and equals run_chain(..., stream_id=c)
    bit for bit: both drive the same kernel.  Memory is the snapshots, a chunk
    of noise, O(num_chains * chunk), a generator per worker and, past one
    chunk, a position per chain.  Snapshot step 0 stores x0.  Given
    mean_checkpoints, trace is run_chain's trace of chain 0: the ensemble stops
    at its last snapshot and chain 0 goes on alone.  A divergence reports the
    earliest non-finite step and the lowest chain there.
    """
    if _integer(num_chains, "num_chains") < 2:
        raise ValueError(f"an ensemble needs num_chains >= 2, got {num_chains}")
    x0 = _prepare(sampler, smooth, nonsmooth, cfg, x0)
    steps = _step_list(snapshot_steps, "snapshot step", 0, cfg.num_steps)
    if not steps:
        raise ValueError("snapshot_steps must be non-empty")
    rng = RngStream(cfg.seed)  # worker 0's generator, then chain 0's alone
    xs = np.repeat(x0[None], num_chains, axis=0)
    snaps = dict.fromkeys(steps, xs)  # step 0 keeps x0, the kernel fills the others

    def advance(xs):  # to the last snapshot; then chain 0 alone, if it is recorded
        for k, x_half, xs in _kernel(sampler, smooth, nonsmooth, cfg, xs, rng, steps[-1]):
            if k in snaps:
                snaps[k] = xs
            yield k, x_half, xs
        if mean_checkpoints is not None:
            yield from _kernel(sampler, smooth, nonsmooth, cfg, xs[:1], rng, cfg.num_steps,
                               done=steps[-1])

    run = advance(xs)
    trace = None if mean_checkpoints is None else _record(run, sampler, cfg, x0, mean_checkpoints)
    for _ in run:  # without a trace, the steps to the last snapshot
        pass
    return EnsembleResult(snapshots=snaps, trace=trace)


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
