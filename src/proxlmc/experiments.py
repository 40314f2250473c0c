"""Benchmark experiments with analytically checkable targets.

Three setups, all log-concave composites exp(-F - G):

* trunc-gauss: unit Gaussian restricted to a box.  F = (x - m)^2 / 2,
  G the box indicator.  The quantile function is exact, so end-of-chain
  ensembles can be scored in squared Wasserstein distance.

* wishart-mean-1d: learn the mean of Gaussian scalar data under a
  Gamma-shaped positivity prior.  G = -((nu-2)/2) log x + x/2 on (0, inf),
  F = sum_i (x - D_i)^2 / 2.  No closed-form posterior; assessed by
  long-run self-consistency and histograms.

* wishart-precision: learn a precision matrix under a Wishart prior with
  identity scale.  Conjugate: the posterior is Wishart with nu' = n + nu
  and V'^{-1} = I + sum_i D_i D_i^T, so the posterior mean
  m* = nu' (V'^{-1})^{-1} is exact.  For d = 1 the posterior is a Gamma
  law with an exact quantile; for d > 1 convergence is tracked as the
  Frobenius distance of ergodic means to m*.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .potentials import (
    BoxIndicator,
    NonsmoothPotential,
    PrecisionLikelihood,
    QuadraticSum,
    SmoothPotential,
    build_gamma_potential,
)
from .diagnostics import QuantileOracle
from .space import RngStream, _finite_number, _integer

_MIN_BOX_MASS = 1e-6  # of a trunc-gauss box; below it the erf-based quantile errs


@dataclass
class TruncGaussSpec:
    mean: float = 0.0
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not all(map(_finite_number, (self.mean, self.lo, self.hi))):
            raise ValueError(f"need finite mean, lo, hi, got {(self.mean, self.lo, self.hi)!r}")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        a, b = self._offsets()
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"trunc-gauss box [{self.lo}, {self.hi}] lies too far from mean "
                             f"{self.mean}: lo - mean or hi - mean overflows a float")
        mass = _std_normal_cdf(b) - _std_normal_cdf(a)
        if not mass >= _MIN_BOX_MASS:
            raise ValueError(f"trunc-gauss box [{self.lo}, {self.hi}] holds Gaussian mass "
                             f"{mass:.3g} < {_MIN_BOX_MASS:g} around mean {self.mean}")

    def _offsets(self):
        """The box relative to the mean, (lo - mean, hi - mean), as floats."""
        return float(self.lo) - float(self.mean), float(self.hi) - float(self.mean)


@dataclass
class WishartExperimentSpec:
    """Wishart-prior experiment over data rows D_i in R^d.

    kind "mean-1d" uses the prior-only barrier with a quadratic data term
    (d must be 1); kind "precision" uses the conjugate posterior barrier
    with the linear likelihood.
    """

    kind: str
    d: int
    nu: float
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in ("mean-1d", "precision"):
            raise ValueError(f"unknown wishart experiment kind {self.kind!r}")
        if _integer(self.d, "d") < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.kind == "mean-1d" and self.d != 1:
            raise ValueError("mean-1d experiment is defined for d = 1 only")
        if not (_finite_number(self.nu) and self.nu > self.d - 1):
            raise ValueError(f"need nu > d - 1 for a proper prior, got nu={self.nu!r}, d={self.d}")
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.data.shape[1] != self.d:
            raise ValueError(f"data dimension {self.data.shape[1]} != d = {self.d}")

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass
class GroundTruth:
    """Conjugate posterior: Wishart(nu_post, V_post) with mean m_star."""

    nu_post: float
    v_post_inv: np.ndarray
    m_star: np.ndarray


def generate_gaussian_data(n: int, d: int, rng: RngStream) -> np.ndarray:
    """n standard Gaussian rows in R^d, an (n, d) array."""
    if n < 1 or d < 0:
        raise ValueError(f"need n >= 1 data points of d >= 0 entries, got n = {n}, d = {d}")
    return rng.standard_normal((n, d))


def posterior_ground_truth(spec: WishartExperimentSpec) -> GroundTruth:
    """Conjugate update for the precision experiment:

    nu' = n + nu,  V'^{-1} = I + sum_i D_i D_i^T,  m* = nu' (V'^{-1})^{-1}.
    """
    if spec.kind != "precision":
        raise ValueError("conjugate ground truth exists for the precision experiment only")
    d = spec.d
    scatter = spec.data.T @ spec.data
    v_post_inv = np.eye(d) + (scatter + scatter.T) / 2.0
    nu_post = spec.n + spec.nu
    m_star = nu_post * np.linalg.inv(v_post_inv)
    m_star = (m_star + m_star.T) / 2.0
    return GroundTruth(nu_post=float(nu_post), v_post_inv=v_post_inv, m_star=m_star)


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):  # NaN fails too
        raise ValueError("quantile levels must lie strictly in (0, 1)")
    return u


_HALVINGS = 1100  # log2(2 * 1.8e308 / 1e-15) < 1075


def _bisect(cdf, p, lo: float, hi: float, atol: float = 0.0, rtol: float = 0.0):
    """The t in [lo, hi] with cdf(t) = p, elementwise, for an increasing
    vectorized cdf: halvings of every bracket at once until
    max(hi - lo) <= max(atol, rtol * max(1, max(hi))).  1100 halvings take
    any finite bracket to 1e-15, and a bracket that still has not converged is
    a ValueError.  A float for a scalar p, else an array of p's shape."""
    target = np.atleast_1d(p)
    if target.size == 0:
        return np.empty(np.shape(p))
    lo, hi = np.full_like(target, lo), np.full_like(target, hi)
    for _ in range(_HALVINGS):
        mid = (lo + hi) / 2.0
        below = cdf(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.max(hi - lo) <= max(atol, rtol * max(1.0, float(hi.max()))):
            break
    else:
        raise ValueError(f"bisection did not reach tolerance max({atol:g}, {rtol:g} * max(1, hi)) "
                         f"in {_HALVINGS} halvings: widest bracket {float(np.max(hi - lo)):.3g}")
    q = (lo + hi) / 2.0
    return float(q[0]) if np.ndim(p) == 0 else q


def gamma_quantile(shape: float, rate: float, u) -> np.ndarray:
    """Quantile of Gamma(shape, rate) by bisection on the regularized
    incomplete gamma CDF.  Vectorized in u; CDF round-trip error <= 1e-8."""
    if not (0 < shape < np.inf and 0 < rate < np.inf):  # NaN fails too
        raise ValueError(f"gamma quantile needs finite shape > 0 and rate > 0, "
                         f"got shape={shape}, rate={rate}")
    u = _check_u(u)
    from scipy import special  # loaded here: it is most of a fresh process's set-up

    hi = (shape + 10.0 * np.sqrt(shape) + 10.0) / rate
    while special.gammainc(shape, rate * hi) < u.max(initial=0.0):
        hi *= 2.0
    return _bisect(lambda t: special.gammainc(shape, rate * t), u, 0.0, hi, rtol=1e-15)


def gamma_posterior_quantile(spec: WishartExperimentSpec, u):
    """Quantile of the d = 1 conjugate posterior,
    Gamma(shape = (nu + n)/2, rate = (1 + sum_i D_i^2) / 2)."""
    if spec.kind != "precision" or spec.d != 1:
        raise ValueError("the Gamma posterior quantile applies to the d = 1 precision experiment")
    shape = (spec.nu + spec.n) / 2.0
    rate = (1.0 + float(np.sum(spec.data**2))) / 2.0
    return gamma_quantile(shape, rate, u)


# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) on |x| <= 1, erfc(a) = exp(-a^2) P(a) / Q(a)
# on 1 < a < 8 and exp(-a^2) R(a) / S(a) beyond; U, Q and S have an implicit leading 1
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double; exp(-a^2) underflows past it


def _horner(z, coefs, monic=False):
    """Cephes' polevl, Horner's rule from coefs[0], or with monic its p1evl,
    which has an implicit leading coefficient 1; in place on one new array."""
    out = z + coefs[0] if monic else np.full_like(z, coefs[0])
    for c in coefs[1:]:
        out *= z
        out += c
    return out


def _erf_core(x):
    z = x * x
    out = _horner(z, _ERF_T)
    out *= x
    out /= _horner(z, _ERF_U, monic=True)
    return out


def _erfc_tail(a):
    """erfc(a) for a > 1, Cephes' way; 0 where -a^2 < -MAXLOG."""
    a = np.minimum(a, 27.0)  # 27^2 > MAXLOG already, and a^2 stays finite
    z = -(a * a)
    y = np.fromiter(map(math.exp, z.tolist()), float, a.size)
    near = a < 8.0
    for sel, p, q in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):
        if sel.any():
            s = a[sel]
            y[sel] = y[sel] * _horner(s, p) / _horner(s, q, monic=True)
    y[z < -_MAXLOG] = 0.0
    return y


def _erf(x):
    """The error function, bit for bit what scipy.special.erf returns.

    A numpy port of Moshier's Cephes ndtr.c (Methods and Programs for
    Mathematical Functions, 1989), operation for operation: x T(x^2) / U(x^2)
    on |x| <= 1, so erf(-0.0) is -0.0, and +-(1 - erfc(|x|)) beyond; NaN
    stays NaN.  exp(-a^2) goes through math.exp, the C library's exp that
    the compiled Cephes calls: numpy's vectorized exp may differ from it in
    the last bit (on an AVX-512 x86-64 CPU with numpy 2.4 it does on about
    5% of these arguments), and that bit would move every quantile.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    tail = a > 1.0  # NaN is not
    out = np.empty_like(x)
    core = ~tail
    out[core] = _erf_core(x[core])
    r = 1.0 - _erfc_tail(a[tail])
    out[tail] = np.where(x[tail] < 0.0, -r, r)
    return out


def _std_normal_cdf(t):
    return 0.5 * (1.0 + _erf(np.asarray(t, dtype=float) / np.sqrt(2.0)))


def trunc_gauss_quantile(spec: TruncGaussSpec, u):
    """Quantile of the unit Gaussian centered at spec.mean truncated to
    [lo, hi]:  m + Phi^{-1}( Phi(a-m) + u (Phi(b-m) - Phi(a-m)) ),
    with Phi^{-1} evaluated by bisection to 1e-12."""
    u = _check_u(u)
    a, b = spec._offsets()
    pa, pb = _std_normal_cdf(a), _std_normal_cdf(b)
    return spec.mean + _bisect(_std_normal_cdf, pa + u * (pb - pa), a, b, atol=1e-12)


@dataclass
class AssembledExperiment:
    """Everything a driver needs: potentials and whatever exact reference the
    setup admits (quantile oracle and/or posterior mean)."""

    smooth: SmoothPotential
    nonsmooth: NonsmoothPotential
    quantile_oracle: Optional[QuantileOracle] = None
    ground_truth: Optional[GroundTruth] = None

    @property
    def shape(self) -> tuple:
        """Shape of the state: (1,), or (d, d) for a matrix experiment."""
        return self.smooth.point_shape

    def default_x0(self, gamma: float) -> np.ndarray:
        """Default start: prox_{gamma G}(1) for flat states, identity for
        matrices.  Feasible by construction for the prox samplers."""
        if len(self.shape) == 1:
            return self.nonsmooth.prox(gamma, np.ones(self.shape))
        return np.eye(self.shape[0])


def assemble_experiment(spec) -> AssembledExperiment:
    """Wire a spec into (F, G, references)."""
    if isinstance(spec, TruncGaussSpec):
        smooth = QuadraticSum(np.array([[spec.mean]]))
        nonsmooth = BoxIndicator(np.array([spec.lo]), np.array([spec.hi]))
        oracle = QuantileOracle(lambda u: trunc_gauss_quantile(spec, u))
        return AssembledExperiment(smooth=smooth, nonsmooth=nonsmooth, quantile_oracle=oracle)
    if not isinstance(spec, WishartExperimentSpec):
        raise ValueError(f"cannot assemble an experiment from {type(spec).__name__}")
    # mean-1d's barrier is the prior's alone, so its n counts as 0
    nonsmooth = build_gamma_potential(spec.nu, spec.n if spec.kind == "precision" else 0, spec.d)
    if spec.n + spec.nu <= spec.d + 3:
        warnings.warn(
            f"n + nu = {spec.n + spec.nu} <= d + 3 = {spec.d + 3}: outside the "
            "moment regime backing the bias bounds; sampling remains valid",
            RuntimeWarning,
            stacklevel=2,
        )
    if spec.kind == "mean-1d":
        return AssembledExperiment(smooth=QuadraticSum(spec.data), nonsmooth=nonsmooth)
    # precision
    truth = posterior_ground_truth(spec)
    smooth = PrecisionLikelihood(spec.data, spec.d)
    oracle = None
    if spec.d == 1:
        oracle = QuantileOracle(lambda u: gamma_posterior_quantile(spec, u))
    return AssembledExperiment(
        smooth=smooth,
        nonsmooth=nonsmooth,
        quantile_oracle=oracle,
        ground_truth=truth,
    )


def sample_wishart(nu: float, v_inv: np.ndarray, rng: RngStream, size: int) -> np.ndarray:
    """Exact Wishart(nu, V = v_inv^{-1}) draws via the Bartlett factorization.

    Used to score matrix experiments against exact posterior samples."""
    d = v_inv.shape[0]
    if not nu > d - 1:
        raise ValueError("Wishart sampling needs nu > d - 1")
    v = np.linalg.inv(v_inv)
    chol = np.linalg.cholesky((v + v.T) / 2.0)
    out = np.empty((size, d, d))
    for k in range(size):
        a = np.zeros((d, d))
        for i in range(d):
            a[i, i] = np.sqrt(2.0 * rng.standard_gamma((nu - i) / 2.0))
            a[i, :i] = rng.standard_normal(i)  # the i draws of a[i, 0], ..., a[i, i-1]
        la = chol @ a
        w = la @ la.T
        out[k] = (w + w.T) / 2.0
    return out
