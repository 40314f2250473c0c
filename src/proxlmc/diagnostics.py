"""Convergence diagnostics and primal-dual inequality checkers.

Squared 2-Wasserstein distances in one dimension are exact via order
statistics: between equal-size empirical measures it is the mean squared
difference of sorted samples; against an analytic law it matches the i-th
order statistic to the quantile at (i - 1/2) / N.  Higher dimensions get a
sliced estimate over random unit directions.

The two inequality checkers certify, numerically, the per-step contraction
that the samplers' bias bounds rest on: ``lemma2_residual`` for a single
prox step at arbitrary anchor pairs, and ``pdpg_gap_check`` along the
deterministic proximal-gradient recursion (the zero-noise limit).
Residuals are returned as (right side) - (left side), so nonnegative up to
roundoff means the inequality holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .potentials import _weight
from .space import RngStream, _integer, check_point, gaussian, inner

_SLICED_DEFAULT_SEED = 20461


@dataclass
class QuantileOracle:
    """Analytic quantile function of a 1-d law; quantile(u) for u in (0,1)."""

    quantile: Callable[[np.ndarray], np.ndarray]
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def midpoint_quantiles(self, n: int) -> np.ndarray:
        """The quantiles at levels (i - 1/2) / n, i = 1..n, as a read-only
        float array; quantile runs once per n >= 1 over this oracle's life."""
        if _integer(n, "quantile grid size n") < 1:
            raise ValueError(f"a quantile grid needs n >= 1 points, got {n}")
        grid = self._grids.get(n)
        if grid is None:
            u = (np.arange(1, n + 1) - 0.5) / n
            grid = np.array(self.quantile(u), dtype=float)
            grid.flags.writeable = False
            self._grids[n] = grid
        return grid


def _samples(a) -> np.ndarray:
    """Equal-weight samples as a float array, the leading axis indexing at
    least one point."""
    pts = np.asarray(a, dtype=float)
    if pts.ndim == 0 or pts.shape[0] < 1:
        raise ValueError("an empirical measure needs at least one point")
    return pts


def _scalar_samples(a) -> np.ndarray:
    pts = _samples(a)
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    if pts.ndim != 1:
        raise ValueError(
            f"exact W2 needs scalar samples, got points of shape {pts.shape}"
        )
    return pts


def wasserstein2_1d(a, b) -> float:
    """Squared 2-Wasserstein distance on the line.

    a is an empirical sample; b is either an equal-size empirical sample
    (exact optimal coupling = sorted matching) or a QuantileOracle
    (midpoint-rule matching of order statistics to quantiles).
    """
    xs = np.sort(_scalar_samples(a))
    n = xs.shape[0]
    if isinstance(b, QuantileOracle):
        return float(np.mean((xs - b.midpoint_quantiles(n)) ** 2))
    ys = np.sort(_scalar_samples(b))
    if ys.shape[0] != n:
        raise ValueError(
            f"empirical-vs-empirical W2 needs equal sizes, got {n} and {ys.shape[0]}"
        )
    return float(np.mean((xs - ys) ** 2))


def sliced_wasserstein2(a, b, num_projections: int = 128, rng: RngStream | None = None) -> float:
    """Sliced squared W2: average exact 1-d W2 over random unit directions.

    Directions are standard Gaussians of the sample space, normalized.  The
    default stream is fixed so reports are reproducible; pass an RngStream to
    control it.
    """
    pa, pb = _samples(a), _samples(b)
    if pa.shape[1:] != pb.shape[1:]:
        raise ValueError("samples live in different spaces")
    shape = check_point(pa[0]).shape
    if pa.shape[0] != pb.shape[0]:
        raise ValueError("sliced W2 needs equal sample sizes")
    if _integer(num_projections, "num_projections") < 1:
        raise ValueError("num_projections must be >= 1")
    rng = rng or RngStream(_SLICED_DEFAULT_SEED, 0)
    total = 0.0
    axes = tuple(range(1, pa.ndim))
    for _ in range(num_projections):
        u = gaussian(rng, shape)
        u = u / np.sqrt(np.vdot(u, u))
        proj_a = np.tensordot(pa, u, axes=(axes, tuple(range(u.ndim))))
        proj_b = np.tensordot(pb, u, axes=(axes, tuple(range(u.ndim))))
        total += wasserstein2_1d(proj_a, proj_b)
    return total / num_projections


def ergodic_mean(trace_or_points):
    """Arithmetic mean of the recorded iterates, which for a ChainTrace
    follow its burn-in.  Accepts a ChainTrace or a plain sequence of points."""
    return _samples(getattr(trace_or_points, "primal", trace_or_points)).mean(axis=0)


@dataclass
class CEstimate:
    """Plug-in estimate of the bias constant C = E||grad G||^2 + 2(L d + sigma^2)."""

    value: float
    grad_sq_mean: float
    num_skipped: int


def estimate_C(samples, nonsmooth, L: float, ambient_dim: int, sigma_f_sq: float) -> CEstimate:
    """Estimate C from target samples.

    Averages ||subgradient_min||^2 over the samples where G is differentiable
    (boundary or out-of-domain points are skipped and counted) and adds
    2 (L * ambient_dim + sigma_f_sq).  Errors if every sample is skipped.
    The subgradients come from one call on the whole sample stack; only when
    that call raises is each sample tried on its own.  L and sigma_f_sq must
    be finite numbers >= 0, ambient_dim an integer >= 0.
    """
    _weight(L, "L")
    _weight(sigma_f_sq, "sigma_f_sq")
    if _integer(ambient_dim, "ambient_dim") < 0:
        raise ValueError(f"ambient_dim must be >= 0, got {ambient_dim}")
    pts = _samples(samples)
    try:
        grads = nonsmooth.subgradient_min(pts)
    except ValueError:
        grads = [_subgradient_or_none(nonsmooth, x) for x in pts]
    total = 0.0
    kept = 0
    skipped = 0
    for g in grads:
        if g is None:
            skipped += 1
            continue
        total += float(np.vdot(g, g))
        kept += 1
    if kept == 0:
        raise ValueError("G is non-differentiable at every sample; cannot estimate C")
    grad_sq = total / kept
    return CEstimate(
        value=grad_sq + 2.0 * (L * ambient_dim + sigma_f_sq),
        grad_sq_mean=grad_sq,
        num_skipped=skipped,
    )


def _subgradient_or_none(nonsmooth, x):
    try:
        return nonsmooth.subgradient_min(x)
    except ValueError:
        return None


def lemma2_residual(gamma: float, x, x_star, y_star, nonsmooth) -> float:
    """Residual of the one-step primal-dual contraction inequality.

    With x' = prox_{gamma G}(x) and y' = (x - x') / gamma, the inequality

      ||x'-x*||^2 <= ||x-x*||^2
                     - 2 gamma (G*(y') - G*(y*) - <y', x*> + <y*, x>)
                     - gamma^2 ||y'-y*||^2
                     + gamma^2 ||y*||^2

    holds for any anchor pair, with G*'s strong-convexity modulus lambda_G*
    taken as 0; the classical use takes y* in dG(x*).  Returns rhs - lhs
    (nonnegative up to roundoff when it holds).  Requires a potential with
    an implemented, finite conjugate at y' and y*.
    """
    x = np.asarray(x, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    x_new = nonsmooth.prox(gamma, x)
    y_new = (x - x_new) / gamma
    g_new = nonsmooth.conjugate(y_new)
    g_star = nonsmooth.conjugate(y_star)
    if not np.isfinite(g_new) or not np.isfinite(g_star):
        raise ValueError("conjugate is infinite at a dual point; residual undefined")
    rhs = (
        inner(x - x_star, x - x_star)
        - 2.0 * gamma * (g_new - g_star - inner(y_new, x_star) + inner(y_star, x))
        - gamma * gamma * inner(y_new - y_star, y_new - y_star)
        + gamma**2 * inner(y_star, y_star)
    )
    lhs = inner(x_new - x_star, x_new - x_star)
    return float(rhs - lhs)


@dataclass
class PdpgReport:
    residuals: list = field(default_factory=list)
    gaps: list = field(default_factory=list)

    @property
    def min_residual(self) -> float:
        return min(self.residuals)

    @property
    def min_gap(self) -> float:
        return min(self.gaps)


def _proximal_gradient_fixed_point(smooth, nonsmooth, x0, tol=1e-13, max_iters=200000):
    step = 1.0 / smooth.L if smooth.L > 0 else 1.0
    x = np.asarray(x0, dtype=float)
    for _ in range(max_iters):
        x_next = nonsmooth.prox(step, x - step * smooth.full_gradient(x))
        if np.max(np.abs(x_next - x)) <= tol * max(1.0, float(np.max(np.abs(x_next)))):
            return x_next
        x = x_next
    raise RuntimeError("proximal gradient did not reach a fixed point within the iteration cap")


def pdpg_gap_check(
    smooth,
    nonsmooth,
    gamma: float,
    x0,
    num_iters: int,
) -> PdpgReport:
    """Check the descent inequality of deterministic proximal gradient.

    Runs x^{k+1} = prox_{gamma G}(x^k - gamma grad F(x^k)) and evaluates, per
    iteration, the residual of

      ||x^{k+1}-x*||^2 <= (1 - gamma lambda_F) ||x^k-x*||^2
                          - gamma^2 ||y^{k+1}-y*||^2
                          - 2 gamma (Lag(x^{k+1/2}, y*) - Lag(x*, y^{k+1}))
                          + gamma^2 ||y*||^2

    with Lag(x, y) = F(x) - G*(y) + <x, y>, the half step
    x^{k+1/2} = x^k - gamma grad F(x^k), y^{k+1} the dual of the prox at
    the half step, and lambda_G* = 0, as in lemma2_residual.  Also records
    the Lagrangian gap terms, which are nonnegative in their own right.  The
    fixed point x* comes from running proximal gradient to convergence;
    y* = -grad F(x*).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if _integer(num_iters, "num_iters") < 1:
        raise ValueError(f"num_iters must be >= 1, got {num_iters}")
    if smooth.L > 0 and gamma > 1.0 / smooth.L:
        raise ValueError(f"gamma = {gamma} exceeds 1/L = {1.0 / smooth.L}")
    x_star = _proximal_gradient_fixed_point(smooth, nonsmooth, x0)
    y_star = -smooth.full_gradient(x_star)
    gstar_at_ystar = nonsmooth.conjugate(y_star)
    if not np.isfinite(gstar_at_ystar):
        raise ValueError("conjugate infinite at y_star; check the fixed point")
    lam_f = smooth.lambda_f
    report = PdpgReport()
    x = np.asarray(x0, dtype=float)
    for _ in range(num_iters):
        x_half = x - gamma * smooth.full_gradient(x)
        x_next = nonsmooth.prox(gamma, x_half)
        y_next = (x_half - x_next) / gamma
        lag_half = smooth.evaluate(x_half) - gstar_at_ystar + inner(x_half, y_star)
        lag_star = smooth.evaluate(x_star) - nonsmooth.conjugate(y_next) + inner(x_star, y_next)
        gap = lag_half - lag_star
        resid = (
            (1.0 - gamma * lam_f) * inner(x - x_star, x - x_star)
            - gamma * gamma * inner(y_next - y_star, y_next - y_star)
            - 2.0 * gamma * gap
            + gamma**2 * inner(y_star, y_star)
            - inner(x_next - x_star, x_next - x_star)
        )
        report.residuals.append(float(resid))
        report.gaps.append(float(gap))
        x = x_next
    return report


def feasibility_fraction(trace_or_points, nonsmooth) -> float:
    """Fraction of the points, or of a ChainTrace's recorded iterates, inside
    dom(G): one domain check over the whole stack."""
    pts = _samples(getattr(trace_or_points, "primal", trace_or_points))
    return float(np.mean(nonsmooth.domain_mask(pts)))


def bootstrap_w2_se(
    samples, oracle: QuantileOracle, num_bootstrap: int = 200, seed: int = 0
) -> float:
    """Monte Carlo standard error of the W2-vs-oracle estimator, by
    resampling the chains (samples) with replacement."""
    if _integer(num_bootstrap, "num_bootstrap") < 2:
        raise ValueError(f"num_bootstrap must be >= 2, got {num_bootstrap}")
    xs = _scalar_samples(samples)
    n = xs.shape[0]
    rng = RngStream(seed, 0)
    vals = np.empty(num_bootstrap)
    for b in range(num_bootstrap):
        idx = rng.integers(n, size=n)
        vals[b] = wasserstein2_1d(xs[idx], oracle)
    return float(np.std(vals, ddof=1))
