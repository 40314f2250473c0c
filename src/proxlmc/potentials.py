"""Potential catalog: smooth terms F, nonsmooth terms G, and their proxes.

The target density is exp(-F(x) - G(x)) up to normalization.  F is smooth
(gradient, optionally stochastic); G is proper convex lower semicontinuous
with a tractable proximal map

    prox_{gamma G}(x) = argmin_z  G(z) + ||z - x||^2 / (2 gamma).

The Moreau identity couples the prox with a dual point,

    y' = (x - prox_{gamma G}(x)) / gamma = prox_{G*/gamma}(x / gamma),

which is what the primal-dual diagnostics consume.  Conjugates G* are
implemented only where a cheap exact formula exists; log-barrier conjugates
are flagged unavailable.
"""

from __future__ import annotations

import numpy as np

from .space import inner, norm, spectral_apply, sym_eigendecomposition

_PSD_TOL = 1e-10
_CONJ_TOL = 1e-8


class ConjugateUnavailable(NotImplementedError):
    """Raised by potentials without a cheap exact conjugate."""


def _check_gamma(gamma):
    if not gamma > 0:
        raise ValueError(f"prox step size must be > 0, got {gamma}")


# ---------------------------------------------------------------------------
# prox catalog (free functions)
# ---------------------------------------------------------------------------

def prox_box(gamma, x, lo, hi):
    """Projection onto the box [lo, hi] (the prox of its indicator)."""
    _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), x.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), x.shape)
    if np.any(lo > hi):
        raise ValueError("box has lo > hi in some coordinate")
    return np.clip(x, lo, hi)


def prox_psd(gamma, m):
    """Projection onto the positive semidefinite cone (eigenvalue clipping)."""
    _check_gamma(gamma)
    # Not np.maximum: clipping keeps a -0.0 eigenvalue as -0.0, like max(t, 0.0).
    return spectral_apply(lambda w: np.where(w < 0, 0.0, w), m)


def prox_logbarrier_scalar(gamma, s, alpha, beta):
    """Prox of g(t) = -alpha log t + beta t on (0, inf), elementwise in s.

    Closed form: with u = s - gamma*beta, the positive root of
    t^2 - u t - gamma*alpha = 0.  For alpha = 0 the domain closes to
    [0, inf) and the prox is max(u, 0).
    """
    _check_gamma(gamma)
    if alpha < 0:
        raise ValueError(f"log-barrier weight alpha must be >= 0, got {alpha}")
    s = np.asarray(s, dtype=float)
    u = s - gamma * beta
    if alpha == 0:
        return np.maximum(u, 0.0)
    root = np.sqrt(u * u + 4.0 * gamma * alpha)
    # Stable in both tails: avoid cancellation when u is very negative.
    return np.where(u > 0, (u + root) / 2.0, 2.0 * gamma * alpha / (root - u))


def prox_logdet(gamma, m, alpha, beta):
    """Prox of G(x) = -alpha log det x + beta tr x on the PD cone.

    Spectral: apply the scalar log-barrier prox to each eigenvalue.
    """
    _check_gamma(gamma)
    if alpha < 0:
        raise ValueError(f"log-barrier weight alpha must be >= 0, got {alpha}")
    return spectral_apply(lambda w: prox_logbarrier_scalar(gamma, w, alpha, beta), m)


def dual_from_primal(gamma, x, g):
    """Dual point of the forward-backward pair: (x - prox_{gamma G}(x)) / gamma.

    By the Moreau identity this equals prox_{G*/gamma}(x / gamma).
    """
    _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    return (x - g.prox(gamma, x)) / gamma


def moreau_gradient(lam, x, g):
    """Gradient of the Moreau envelope G^lam: (x - prox_{lam G}(x)) / lam.

    (1/lam)-Lipschitz, and bounded by the minimal subgradient norm of G
    wherever that exists.
    """
    return dual_from_primal(lam, x, g)


# ---------------------------------------------------------------------------
# nonsmooth potentials
# ---------------------------------------------------------------------------

class NonsmoothPotential:
    """Interface for the nonsmooth term G.

    lambda_gstar is a strong-convexity modulus of the conjugate G* (0 is
    always sound).  is_indicator marks set indicators, for which the
    projected-Langevin alias is defined.
    """

    lambda_gstar: float = 0.0
    is_indicator: bool = False
    has_conjugate: bool = False

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def prox(self, gamma, x):
        raise NotImplementedError

    def prox_batch(self, gamma, xs):
        """Prox applied along the leading axis.  Subclasses vectorize."""
        return np.stack([self.prox(gamma, x) for x in xs])

    def in_domain(self, x) -> bool:
        raise NotImplementedError

    def subgradient_min(self, x):
        """Minimal-norm subgradient; errors where undefined."""
        raise NotImplementedError

    def conjugate(self, y) -> float:
        raise ConjugateUnavailable(f"{type(self).__name__} has no cheap conjugate")


class ZeroPotential(NonsmoothPotential):
    """G identically zero.  prox is the identity; G* is the indicator of 0."""

    is_indicator = True
    has_conjugate = True

    def evaluate(self, x):
        return 0.0

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return np.asarray(x, dtype=float).copy()

    def prox_batch(self, gamma, xs):
        _check_gamma(gamma)
        return np.asarray(xs, dtype=float).copy()

    def in_domain(self, x):
        return True

    def subgradient_min(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def conjugate(self, y):
        return 0.0 if norm(np.asarray(y, dtype=float)) <= 1e-12 else np.inf


class BoxIndicator(NonsmoothPotential):
    """Indicator of the box [lo, hi]; prox is the clamp."""

    is_indicator = True
    has_conjugate = True

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise ValueError("box has lo > hi in some coordinate")
        self.lo = lo
        self.hi = hi

    def evaluate(self, x):
        return 0.0 if self.in_domain(x) else np.inf

    def prox(self, gamma, x):
        return prox_box(gamma, x, self.lo, self.hi)

    def prox_batch(self, gamma, xs):
        _check_gamma(gamma)
        return np.clip(np.asarray(xs, dtype=float), self.lo, self.hi)

    def in_domain(self, x):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def subgradient_min(self, x):
        x = np.asarray(x, dtype=float)
        if not (np.all(x > self.lo) and np.all(x < self.hi)):
            raise ValueError("subgradient of a box indicator is defined only strictly inside")
        return np.zeros_like(x)

    def conjugate(self, y):
        """Support function of the box: sum_i max(lo_i y_i, hi_i y_i)."""
        y = np.asarray(y, dtype=float)
        return float(np.sum(np.maximum(self.lo * y, self.hi * y)))


class PsdIndicator(NonsmoothPotential):
    """Indicator of the positive semidefinite cone."""

    is_indicator = True
    has_conjugate = True

    def __init__(self, d: int):
        self.d = d

    def _min_eig(self, x):
        return float(sym_eigendecomposition(x).eigenvalues[0])

    def evaluate(self, x):
        return 0.0 if self.in_domain(x) else np.inf

    def prox(self, gamma, x):
        return prox_psd(gamma, x)

    def in_domain(self, x):
        x = np.asarray(x, dtype=float)
        tol = _PSD_TOL * max(1.0, float(np.linalg.norm(x)))
        return self._min_eig(x) >= -tol

    def subgradient_min(self, x):
        if self._min_eig(x) <= 0:
            raise ValueError("subgradient of the PSD indicator is defined only on PD interior")
        return np.zeros_like(np.asarray(x, dtype=float))

    def conjugate(self, y):
        """Indicator of the negative semidefinite cone."""
        y = np.asarray(y, dtype=float)
        tol = _CONJ_TOL * max(1.0, float(np.linalg.norm(y)))
        top = float(sym_eigendecomposition(y).eigenvalues[-1])
        return 0.0 if top <= tol else np.inf


class LogBarrier(NonsmoothPotential):
    """Separable log-barrier on the positive orthant:

    G(x) = sum_i (-alpha log x_i + beta x_i),  dom G = (0, inf)^d
    (closure [0, inf)^d when alpha = 0).
    """

    def __init__(self, alpha: float, beta: float):
        if alpha < 0:
            raise ValueError(f"log-barrier weight alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.alpha > 0:
            if np.any(x <= 0):
                return np.inf
            return float(-self.alpha * np.sum(np.log(x)) + self.beta * np.sum(x))
        if np.any(x < 0):
            return np.inf
        return float(self.beta * np.sum(x))

    def prox(self, gamma, x):
        return prox_logbarrier_scalar(gamma, x, self.alpha, self.beta)

    prox_batch = prox  # elementwise closed form, already vectorized

    def in_domain(self, x):
        x = np.asarray(x, dtype=float)
        if self.alpha > 0:
            return bool(np.all(x > 0))
        return bool(np.all(x >= 0))

    def subgradient_min(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("log-barrier gradient is defined only for x > 0")
        return -self.alpha / x + self.beta


class SpectralLogBarrier(NonsmoothPotential):
    """Matrix log-barrier on the PD cone:

    G(x) = -alpha log det x + beta tr x,  dom G = positive definite matrices.
    """

    def __init__(self, alpha: float, beta: float, d: int):
        if alpha < 0:
            raise ValueError(f"log-barrier weight alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.d = d

    def _eigs(self, x):
        return sym_eigendecomposition(x).eigenvalues

    def evaluate(self, x):
        w = self._eigs(x)
        if self.alpha > 0:
            if w[0] <= 0:
                return np.inf
            return float(-self.alpha * np.sum(np.log(w)) + self.beta * np.sum(w))
        if w[0] < -_PSD_TOL * max(1.0, float(np.abs(w).max(initial=1.0))):
            return np.inf
        return float(self.beta * np.sum(np.maximum(w, 0.0)))

    def prox(self, gamma, x):
        return prox_logdet(gamma, x, self.alpha, self.beta)

    def in_domain(self, x):
        w = self._eigs(x)
        if self.alpha > 0:
            return bool(w[0] > 0)
        tol = _PSD_TOL * max(1.0, float(np.abs(w).max(initial=1.0)))
        return bool(w[0] >= -tol)

    def subgradient_min(self, x):
        """Gradient -alpha x^{-1} + beta I on the PD interior."""
        eig = sym_eigendecomposition(x)
        if eig.eigenvalues[0] <= 0:
            raise ValueError("matrix log-barrier gradient is defined only on PD matrices")
        return eig.apply(lambda w: -self.alpha / w + self.beta)


class AbsoluteValue(NonsmoothPotential):
    """Weighted l1 term w * sum_i |x_i|; prox is the soft threshold."""

    has_conjugate = True

    def __init__(self, weight: float = 1.0):
        if weight < 0:
            raise ValueError("weight must be >= 0")
        self.weight = float(weight)

    def evaluate(self, x):
        return float(self.weight * np.sum(np.abs(np.asarray(x, dtype=float))))

    def prox(self, gamma, x):
        _check_gamma(gamma)
        x = np.asarray(x, dtype=float)
        t = gamma * self.weight
        return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)

    prox_batch = prox

    def in_domain(self, x):
        return True

    def subgradient_min(self, x):
        return self.weight * np.sign(np.asarray(x, dtype=float))

    def conjugate(self, y):
        """Indicator of the l-infinity ball of radius w."""
        y = np.asarray(y, dtype=float)
        return 0.0 if np.max(np.abs(y), initial=0.0) <= self.weight + 1e-12 else np.inf


class CoordinateAbsolute(NonsmoothPotential):
    """w * |x_j| for a single flat coordinate j; prox soft-thresholds it."""

    def __init__(self, weight: float, index: int):
        self.weight = float(weight)
        self.index = int(index)

    def evaluate(self, x):
        return float(self.weight * abs(np.asarray(x, dtype=float)[self.index]))

    def prox(self, gamma, x):
        _check_gamma(gamma)
        out = np.asarray(x, dtype=float).copy()
        s = out[self.index]
        out[self.index] = np.sign(s) * max(abs(s) - gamma * self.weight, 0.0)
        return out

    def in_domain(self, x):
        return True

    def subgradient_min(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[self.index] = self.weight * np.sign(x[self.index])
        return out


class DiagonalAbsolute(NonsmoothPotential):
    """w * |x[j,j]| for a symmetric-matrix point; prox soft-thresholds that entry."""

    def __init__(self, weight: float, index: int):
        self.weight = float(weight)
        self.index = int(index)

    def evaluate(self, x):
        return float(self.weight * abs(np.asarray(x, dtype=float)[self.index, self.index]))

    def prox(self, gamma, x):
        _check_gamma(gamma)
        out = np.asarray(x, dtype=float).copy()
        j = self.index
        s = out[j, j]
        out[j, j] = np.sign(s) * max(abs(s) - gamma * self.weight, 0.0)
        return out

    def in_domain(self, x):
        return True

    def subgradient_min(self, x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        j = self.index
        out[j, j] = self.weight * np.sign(x[j, j])
        return out


class LipschitzProxTerm:
    """Extra Lipschitz term R(x) = mean_i r_i(x) handled by its own prox.

    Components are nonsmooth potentials with full-domain proxes; M bounds the
    second moment of the minimal subgradients, E ||d0 r(x, xi)||^2 <= M^2.
    A step samples one component uniformly (no draw when there is only one,
    so a deterministic R consumes no randomness).
    """

    def __init__(self, components, M: float):
        if not components:
            raise ValueError("LipschitzProxTerm needs at least one component")
        if M < 0:
            raise ValueError("subgradient bound M must be >= 0")
        self.components = list(components)
        self.M = float(M)

    def prox_sample(self, gamma, x, rng):
        if len(self.components) == 1:
            return self.components[0].prox(gamma, x)
        idx = int(rng.integers(len(self.components)))
        return self.components[idx].prox(gamma, x)

    def evaluate(self, x):
        return float(np.mean([c.evaluate(x) for c in self.components]))

    def subgradient_second_moment(self, x):
        return float(np.mean([norm(c.subgradient_min(x)) ** 2 for c in self.components]))


def diagonal_absolute_term(weight: float, d: int) -> LipschitzProxTerm:
    """R(x) = (w/d) sum_j |x_jj| as a stochastic prox term on d x d matrices."""
    comps = [DiagonalAbsolute(weight, j) for j in range(d)]
    return LipschitzProxTerm(comps, M=weight)


def coordinate_absolute_term(weight: float, d: int) -> LipschitzProxTerm:
    """Flat-space analogue of :func:`diagonal_absolute_term`."""
    comps = [CoordinateAbsolute(weight, j) for j in range(d)]
    return LipschitzProxTerm(comps, M=weight)


# ---------------------------------------------------------------------------
# smooth potentials
# ---------------------------------------------------------------------------

class SmoothPotential:
    """Interface for the smooth term F.

    L is a gradient Lipschitz constant (0 means the gradient is constant and
    the step-size guard is vacuous); lambda_f a strong-convexity modulus
    (0 for merely convex).  Stochastic gradients are unbiased single-index
    estimators, averaged over a minibatch drawn uniformly with replacement.
    """

    L: float = 0.0
    lambda_f: float = 0.0

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def full_gradient(self, x):
        raise NotImplementedError

    def full_gradient_batch(self, xs):
        return np.stack([self.full_gradient(x) for x in xs])

    def stochastic_gradient(self, x, rng, minibatch=1):
        if minibatch == "full":
            return self.full_gradient(x)
        raise NotImplementedError

    def grad_norm_variance(self, x, minibatch=1):
        """Variance of the stochastic-gradient norm at x (0 if deterministic)."""
        return 0.0


class ZeroSmooth(SmoothPotential):
    """F identically zero; the target is exp(-G) alone."""

    L = 0.0
    lambda_f = 0.0

    def evaluate(self, x):
        return 0.0

    def full_gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def full_gradient_batch(self, xs):
        return np.zeros_like(np.asarray(xs, dtype=float))

    def stochastic_gradient(self, x, rng, minibatch=1):
        return self.full_gradient(x)


class Quadratic(SmoothPotential):
    """General quadratic F(x) = (x - c)^T H (x - c) / 2 with H symmetric PSD.

    L and lambda_f are the extreme eigenvalues of H.  Used mostly by the
    primal-dual inequality checkers, which want varied curvature.
    """

    def __init__(self, h, c):
        h = np.asarray(h, dtype=float)
        c = np.asarray(c, dtype=float)
        if h.ndim != 2 or h.shape[0] != h.shape[1] or not np.allclose(h, h.T):
            raise ValueError("H must be a symmetric matrix")
        w = np.linalg.eigvalsh(h)
        if w[0] < -1e-12 * max(1.0, abs(w[-1])):
            raise ValueError("H must be positive semidefinite")
        self.h = (h + h.T) / 2.0
        self.c = c
        self.L = float(max(w[-1], 0.0))
        self.lambda_f = float(max(w[0], 0.0))

    def evaluate(self, x):
        r = np.asarray(x, dtype=float) - self.c
        return float(r @ self.h @ r / 2.0)

    def full_gradient(self, x):
        return self.h @ (np.asarray(x, dtype=float) - self.c)

    def full_gradient_batch(self, xs):
        return (np.asarray(xs, dtype=float) - self.c) @ self.h

    def stochastic_gradient(self, x, rng, minibatch=1):
        return self.full_gradient(x)


class QuadraticSum(SmoothPotential):
    """F(x) = sum_i ||x - D_i||^2 / 2 over data points D_i.

    Smoothness and strong convexity are both n (the Hessian is n * I).
    The single-index estimator is n * (x - D_I), I uniform; its norm
    variance is x-dependent, so report-time bounds use
    :meth:`grad_norm_variance` evaluated along the visited iterates.
    """

    def __init__(self, data):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[0] < 1:
            raise ValueError("quadratic sum needs at least one data point")
        self.data = data
        self.n = data.shape[0]
        self.L = float(self.n)
        self.lambda_f = float(self.n)
        self._data_sum = data.sum(axis=0)
        self._data_sqnorm = float(np.sum(data * data))

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return float(
            0.5 * (self.n * np.sum(x * x) - 2.0 * np.dot(x, self._data_sum) + self._data_sqnorm)
        )

    def full_gradient(self, x):
        return self.n * np.asarray(x, dtype=float) - self._data_sum

    def full_gradient_batch(self, xs):
        return self.n * np.asarray(xs, dtype=float) - self._data_sum

    def stochastic_gradient(self, x, rng, minibatch=1):
        if minibatch == "full":
            return self.full_gradient(x)
        b = int(minibatch)
        if b < 1:
            raise ValueError("minibatch size must be >= 1 or 'full'")
        idx = rng.integers(self.n, size=b)
        return self.n * (np.asarray(x, dtype=float) - self.data[idx].mean(axis=0))

    def grad_norm_variance(self, x, minibatch=1):
        if minibatch == "full":
            return 0.0
        x = np.asarray(x, dtype=float)
        norms = self.n * np.linalg.norm(x - self.data, axis=1)
        v = float(np.mean(norms**2) - np.mean(norms) ** 2)
        return v / int(minibatch)


class PrecisionLikelihood(SmoothPotential):
    """Gaussian likelihood in the precision matrix: F(x) = sum_i tr(D_i D_i^T x) / 2.

    Linear in x, so L = lambda_f = 0 and the full gradient is the constant
    matrix (sum_i D_i D_i^T) / 2.  For d = 1 the state is a flat 1-vector.
    """

    L = 0.0
    lambda_f = 0.0

    def __init__(self, data, d: int):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[0] < 1:
            raise ValueError("precision likelihood needs at least one data point")
        if data.shape[1] != d:
            raise ValueError(f"data has dimension {data.shape[1]}, expected {d}")
        self.data = data
        self.d = d
        self.n = data.shape[0]
        scatter = data.T @ data
        self.scatter = (scatter + scatter.T) / 2.0
        if d == 1:
            self._grad = np.array([self.scatter[0, 0] / 2.0])
        else:
            self._grad = self.scatter / 2.0

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if self.d == 1:
            return float(self.scatter[0, 0] * x[0] / 2.0)
        return float(np.vdot(self.scatter, x) / 2.0)

    def full_gradient(self, x):
        return self._grad.copy()

    def full_gradient_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.broadcast_to(self._grad, xs.shape).copy()

    def stochastic_gradient(self, x, rng, minibatch=1):
        if minibatch == "full":
            return self.full_gradient(x)
        b = int(minibatch)
        if b < 1:
            raise ValueError("minibatch size must be >= 1 or 'full'")
        idx = rng.integers(self.n, size=b)
        rows = self.data[idx]
        if self.d == 1:
            return np.array([self.n * np.mean(rows[:, 0] ** 2) / 2.0])
        est = (rows.T @ rows) / b * self.n / 2.0
        return (est + est.T) / 2.0

    def grad_norm_variance(self, x, minibatch=1):
        if minibatch == "full":
            return 0.0
        # ||D D^T||_F = ||D||^2, so the norm of a single-index estimate is
        # n ||D_I||^2 / 2 regardless of x.
        norms = self.n * np.sum(self.data**2, axis=1) / 2.0
        v = float(np.mean(norms**2) - np.mean(norms) ** 2)
        return v / int(minibatch)


# ---------------------------------------------------------------------------
# builders for the conjugate-Wishart experiments
# ---------------------------------------------------------------------------

def build_gamma_potential(nu: float, n: int, d: int):
    """Log-barrier potential of the (posterior) Wishart density:

    G(x) = -alpha log det x + tr(x) / 2 + indicator(PD),
    alpha = ((nu + n) - d - 1) / 2.

    n = 0 gives the prior-only barrier used by the 1-d mean-learning setup.
    Returns the flat separable variant for d = 1, the spectral one otherwise.
    """
    alpha = ((nu + n) - d - 1) / 2.0
    if alpha < 0:
        raise ValueError(
            f"alpha = ((nu + n) - d - 1)/2 = {alpha} < 0; "
            "outside the normalizable Wishart regime (nu > d - 1)"
        )
    if d == 1:
        return LogBarrier(alpha=alpha, beta=0.5)
    return SpectralLogBarrier(alpha=alpha, beta=0.5, d=d)


def build_quadratic_sum(data) -> QuadraticSum:
    """F(x) = sum_i ||x - D_i||^2 / 2 with L = lambda_f = n."""
    return QuadraticSum(data)


def build_precision_likelihood(data, d: int) -> PrecisionLikelihood:
    """Linear precision-matrix likelihood F(x) = sum_i tr(D_i D_i^T x) / 2."""
    return PrecisionLikelihood(data, d)
