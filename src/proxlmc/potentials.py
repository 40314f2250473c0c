"""Potential catalog: smooth terms F, nonsmooth terms G, and their proxes.

The target density is exp(-F(x) - G(x)) up to normalization.  F is smooth
(gradient, optionally stochastic); G is proper convex lower semicontinuous
with a tractable proximal map

    prox_{gamma G}(x) = argmin_z  G(z) + ||z - x||^2 / (2 gamma).

The Moreau identity couples the prox with a dual point,

    y' = (x - prox_{gamma G}(x)) / gamma = prox_{G*/gamma}(x / gamma),

which is what the primal-dual diagnostics consume.  Conjugates G* are
implemented where a cheap exact formula exists; only log barriers with
alpha > 0 lack one.  Matrix potentials are spectral lifts of scalar ones
(:class:`Spectral`): a separable scalar term applied to the eigenvalues.
"""

from __future__ import annotations

import numpy as np

from .space import _finite_number, _integer, frobenius, norm, spectral_apply, sym_eigendecomposition

_PSD_TOL = 1e-10
# Shift of the Cholesky domain certificate, relative to ||x||_F (Spectral.domain_mask)
_CHOL_MARGIN = 1e-6
# Frobenius norms the certificate accepts: nothing in the norm or the factorization
# under- or overflows, so the relative backward-error bounds behind it hold
_CHOL_NORMS = (1e-150, 1e150)
_CONJ_TOL = 1e-8
_DOMAIN_BLOCK = 512  # matrices per shifted Cholesky (and, if it fails, eigendecomposition)


class ConjugateUnavailable(NotImplementedError):
    """Raised by potentials without a cheap exact conjugate."""


def _check_gamma(gamma):
    if not 0 < gamma < np.inf:  # NaN fails too
        raise ValueError(f"prox step size must be a finite number > 0, got {gamma}")


def _weight(w, name="weight") -> float:
    """w as a float, checked to be a finite number >= 0 (a bool or string is not one)."""
    if not (_finite_number(w) and w >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {w!r}")
    return float(w)


def _finite(x, method):
    """x as a float array, checked to have only finite entries."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{method} needs a finite matrix, got one with a non-finite entry")
    return x


def _each(cond):
    """Reduce an elementwise condition on a stack to one flag per point."""
    return np.all(cond, axis=tuple(range(1, cond.ndim)))


# ---------------------------------------------------------------------------
# dual points
# ---------------------------------------------------------------------------

def dual_from_primal(gamma, x, g):
    """Dual point of the forward-backward pair: (x - prox_{gamma G}(x)) / gamma.

    By the Moreau identity this equals prox_{G*/gamma}(x / gamma).  With
    gamma = lam it is also the gradient of the Moreau envelope G^lam, which
    is (1/lam)-Lipschitz and bounded by the minimal subgradient norm of G
    wherever that exists.
    """
    _check_gamma(gamma)
    x = np.asarray(x, dtype=float)
    return (x - g.prox(gamma, x)) / gamma


# ---------------------------------------------------------------------------
# nonsmooth potentials
# ---------------------------------------------------------------------------

class NonsmoothPotential:
    """Interface for the nonsmooth term G.

    is_indicator marks set indicators, for which the projected-Langevin
    alias is defined.  point_shape is the shape of the points G is defined
    on, or None when any shape will do.  A subclass states its domain once,
    in domain_mask over a stack of points; the default domain is the whole
    space.
    """

    is_indicator: bool = False
    point_shape: tuple | None = None

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def prox(self, gamma, x):
        raise NotImplementedError

    def domain_mask(self, xs) -> np.ndarray:
        """One flag per point of the stack xs (leading axis): is it in dom(G)?"""
        return np.ones(len(xs), dtype=bool)

    def in_domain(self, x) -> bool:
        return bool(self.domain_mask(np.asarray(x, dtype=float)[None])[0])

    def subgradient_min(self, x):
        """Minimal-norm subgradient at a point or each point of a stack;
        errors where undefined."""
        raise NotImplementedError

    def conjugate(self, y) -> float:
        raise ConjugateUnavailable(f"{type(self).__name__} has no cheap conjugate")


class BoxIndicator(NonsmoothPotential):
    """Indicator of the box [lo, hi]; prox is the clamp.  BoxIndicator(-np.inf,
    np.inf) is G = 0: its prox returns x bit for bit, and G* is 0 at y = 0 only."""

    is_indicator = True

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("box bounds must not be NaN")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi in some coordinate")
        self.lo = lo
        self.hi = hi
        self.point_shape = np.broadcast_shapes(lo.shape, hi.shape) or None  # scalar bounds fit any

    def evaluate(self, x):
        return 0.0 if self.in_domain(x) else np.inf

    def prox(self, gamma, x):
        _check_gamma(gamma)
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    prox_batch = prox  # the clamp is elementwise

    def domain_mask(self, xs):
        xs = np.asarray(xs, dtype=float)
        return _each((xs >= self.lo) & (xs <= self.hi))

    def subgradient_min(self, x):
        x = np.asarray(x, dtype=float)
        if not (np.all(x > self.lo) and np.all(x < self.hi)):
            raise ValueError("subgradient of a box indicator is defined only strictly inside")
        return np.zeros_like(x)

    def conjugate(self, y):
        """Support function of the box: sum_i max(lo_i y_i, hi_i y_i), 0 * inf = 0."""
        y = np.asarray(y, dtype=float)
        with np.errstate(invalid="ignore"):  # 0 * inf is NaN
            terms = np.maximum(self.lo * y, self.hi * y)
        return float(np.sum(np.where((y == 0) & np.isnan(terms), 0.0, terms)))


class LogBarrier(NonsmoothPotential):
    """Separable log-barrier on the positive orthant:

    G(x) = sum_i (-alpha log x_i + beta x_i),  dom G = (0, inf)^d
    (closure [0, inf)^d when alpha = 0).
    """

    def __init__(self, alpha: float, beta: float):
        self.alpha = _weight(alpha, "log-barrier weight alpha")
        if not _finite_number(beta):
            raise ValueError(f"log-barrier beta must be a finite number, got {beta!r}")
        self.beta = float(beta)
        self.is_indicator = self.alpha == 0 and self.beta == 0  # of the orthant

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if not self.in_domain(x):
            return np.inf
        if self.alpha > 0:
            return float(-self.alpha * np.sum(np.log(x)) + self.beta * np.sum(x))
        return float(self.beta * np.sum(x))

    def prox(self, gamma, x):
        """Closed form, elementwise: with u = x - gamma*beta, the positive root
        of t^2 - u t - gamma*alpha = 0; for alpha = 0 it is max(u, 0)."""
        _check_gamma(gamma)
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:  # arithmetic on a 0-d array returns a numpy scalar
            return self.prox(gamma, x.reshape(1)).reshape(())
        u = x - gamma * self.beta
        if self.alpha == 0:
            # Not np.maximum: clipping keeps a -0.0 input as -0.0, like max(t, 0.0).
            return np.where(u < 0, 0.0, u)
        # a dot product does not warn on overflow; when it is finite, so is
        # every u * u + 4 gamma alpha (NaN fails too)
        if not np.vdot(u, u) + 4.0 * gamma * self.alpha < np.inf:
            return self._prox_wide(gamma, u)
        root = np.sqrt(u * u + 4.0 * gamma * self.alpha)
        if np.minimum.reduce(u, None, initial=np.inf) > 0:  # every u > 0 (NaN fails)
            return (u + root) / 2.0
        # s is u + root where u > 0 and root - u elsewhere, bit for bit, and
        # s >= root > 0, so neither branch warns; the second avoids
        # cancellation when u is very negative.  NaN takes it.
        s = root + np.abs(u)
        return np.where(u > 0, s / 2.0, 2.0 * gamma * self.alpha / s)

    prox_batch = prox  # elementwise closed form, already vectorized

    def _prox_wide(self, gamma, u):
        """prox at u = x - gamma*beta when some u * u overflows or u is not
        finite: s / 2 = (root + |u|) / 2 of the closed form, bit for bit,
        where its root is finite, else at half scale, which cannot overflow."""
        ga = gamma * self.alpha
        with np.errstate(over="ignore"):
            root = np.sqrt(u * u + 4.0 * gamma * self.alpha)
        half_s = np.where(np.isfinite(root), (root + np.abs(u)) / 2.0,
                          np.hypot(u / 2.0, np.sqrt(ga)) + np.abs(u) / 2.0)
        return np.where(u > 0, half_s, ga / half_s)  # ga / (s/2) is 2 ga / s

    def domain_mask(self, xs):
        xs = np.asarray(xs, dtype=float)
        return _each(xs > 0 if self.alpha > 0 else xs >= 0)

    def subgradient_min(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0):
            raise ValueError("log-barrier gradient is defined only for x > 0")
        return -self.alpha / x + self.beta

    def conjugate(self, y):
        """For alpha = 0, the indicator of y <= beta in every coordinate."""
        if self.alpha > 0:
            return super().conjugate(y)
        y = np.asarray(y, dtype=float)
        tol = _CONJ_TOL * max(1.0, norm(y))
        return 0.0 if np.all(y <= self.beta + tol) else np.inf


def _cholesky_certifies(block) -> bool:
    """True when one stacked Cholesky of x - delta I, delta = _CHOL_MARGIN ||x||_F,
    succeeds for every matrix x of a (k, d, d) block; False when it fails or
    the block is not a stack of square, exactly symmetric matrices with
    finite norms in _CHOL_NORMS.

    True proves what an eigendecomposition would report.  Cholesky is
    backward stable (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002, Thm 10.3): success means lambda_min(x) > delta -
    O(d^2 eps ||x||).  eigh is backward stable too, so by Weyl's inequality
    (Demmel, "Applied Numerical Linear Algebra", 1997, sec. 5.2) its
    computed minimum eigenvalue is then > 0, with a margin of more than 1e4
    over the rounding for d <= 1000: x is inside the open and the closed
    domain alike.
    """
    if block.ndim != 3 or block.shape[-1] != block.shape[-2]:
        return False  # sym_eigendecomposition reports the bad shape
    if not (block == block.mT).all():  # Cholesky reads one triangle only
        return False
    with np.errstate(over="ignore"):  # an overflowing norm is out of range below
        norms = frobenius(block)
    if not np.all((norms >= _CHOL_NORMS[0]) & (norms <= _CHOL_NORMS[1])):  # NaN, inf too
        return False
    shifted = block.copy()
    d = block.shape[-1]
    shifted.reshape(len(block), -1)[:, :: d + 1] -= _CHOL_MARGIN * norms[:, None]  # diagonals
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


class Spectral(NonsmoothPotential):
    """Spectral lift of a scalar log barrier f to symmetric d x d matrices,
    G(x) = sum_i f(lambda_i(x)).  With x = Q Lambda Q^T (Lewis, "Convex
    analysis on the Hermitian matrices", 1996),

        prox_{gamma G}(x) = Q prox_{gamma f}(Lambda) Q^T,
        grad G(x) = Q f'(Lambda) Q^T,    G*(y) = sum_i f*(lambda_i(y)),

    so each method makes one eigendecomposition.  The domain check works
    on blocks of _DOMAIN_BLOCK matrices and needs none for a block that
    a shifted Cholesky certificate (:func:`_cholesky_certifies`) proves
    positive definite, which is every block of a feasible chain's trace; a
    block it cannot certify takes one stacked eigendecomposition, and so
    does, without trying the certificate, a block whose preceding matrix
    is outside the domain.  A matrix with a non-finite entry is outside it
    too.  A closed domain (alpha = 0) admits a minimum eigenvalue down to
    -1e-10 max(1, max |lambda|).  The PSD-cone indicator is the lift of
    LogBarrier(0, 0).
    """

    def __init__(self, scalar: LogBarrier, d: int):
        if _integer(d, "d") < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.scalar = scalar
        self.is_indicator = scalar.is_indicator
        self.point_shape = (d, d)

    def _feasible(self, w):
        """Domain flag of each spectrum of ascending eigenvalues w."""
        if self.scalar.alpha > 0:
            return w[..., 0] > 0
        return w[..., 0] >= -_PSD_TOL * np.fmax(1.0, np.abs(w).max(axis=-1))

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if not np.isfinite(x).all():
            return np.inf  # outside the domain, as domain_mask says
        w = sym_eigendecomposition(x).eigenvalues
        return self.scalar.evaluate(np.maximum(w, 0.0)) if self._feasible(w) else np.inf

    def prox(self, gamma, x):
        return spectral_apply(lambda w: self.scalar.prox(gamma, w), x)

    prox_batch = prox  # one stacked eigendecomposition

    def domain_mask(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.empty(len(xs), dtype=bool)
        for i in range(0, len(xs), _DOMAIN_BLOCK):
            block = xs[i : i + _DOMAIN_BLOCK]
            # a chain outside the domain just before a block is not likely to
            # stay inside all through it, and a failed certificate is a wasted
            # factorization, so such a block goes straight to the eigensolve
            if (i == 0 or out[i - 1]) and _cholesky_certifies(block):
                out[i : i + _DOMAIN_BLOCK] = True
            else:
                # a non-finite matrix is outside: eigh may fail on it or rank its
                # NaN eigenvalue above the lowest, so it reaches eigh as zeros
                finite = _each(np.isfinite(block))
                if not finite.all():
                    block = block.copy()
                    block[~finite] = 0.0
                w = sym_eigendecomposition(block).eigenvalues
                out[i : i + _DOMAIN_BLOCK] = finite & self._feasible(w)
        return out

    def subgradient_min(self, x):
        """Q f'(Lambda) Q^T; a ValueError unless x is positive definite."""
        return spectral_apply(self.scalar.subgradient_min, _finite(x, "subgradient_min"))

    def conjugate(self, y):
        return self.scalar.conjugate(sym_eigendecomposition(_finite(y, "conjugate")).eigenvalues)


class AbsoluteValue(NonsmoothPotential):
    """Weighted l1 term w * sum_i |x_i| over every entry; the prox
    soft-thresholds each entry, so it keeps a matrix symmetric."""

    def __init__(self, weight: float = 1.0):
        self.weight = _weight(weight)

    def evaluate(self, x):
        return float(self.weight * np.sum(np.abs(np.asarray(x, dtype=float))))

    def prox(self, gamma, x):
        _check_gamma(gamma)
        x = np.asarray(x, dtype=float)
        return np.sign(x) * np.maximum(np.abs(x) - gamma * self.weight, 0.0)

    prox_batch = prox

    def subgradient_min(self, x):
        return self.weight * np.sign(np.asarray(x, dtype=float))

    def conjugate(self, y):
        """Indicator of the l-infinity ball of radius w."""
        inside = np.max(np.abs(np.asarray(y, dtype=float)), initial=0.0) <= self.weight + 1e-12
        return 0.0 if inside else np.inf


# ---------------------------------------------------------------------------
# smooth potentials
# ---------------------------------------------------------------------------

class SmoothPotential:
    """Interface for the smooth term F.

    L is a gradient Lipschitz constant (0 means the gradient is constant and
    the step-size guard is vacuous); lambda_f a strong-convexity modulus
    (0 for merely convex).  An F without data has no index to draw, so its
    stochastic gradient is its exact gradient, whatever the minibatch; a
    :class:`FiniteSum` owns the minibatch rule.  point_shape is the shape of
    the points F is defined on, or None when any shape will do.
    """

    L: float = 0.0
    lambda_f: float = 0.0
    point_shape: tuple | None = None

    def evaluate(self, x) -> float:
        raise NotImplementedError

    def full_gradient(self, x):
        """Gradient at x, or at each point of a stack along the leading axis."""
        raise NotImplementedError

    def stochastic_gradient(self, x, rng, minibatch=1):
        return self.full_gradient(x)

    def grad_norm_variance(self, x, minibatch=1):
        """Variance of the stochastic-gradient norm at x (0 if deterministic)."""
        return 0.0


class ZeroSmooth(SmoothPotential):
    """F identically zero; the target is exp(-G) alone."""

    def evaluate(self, x):
        return 0.0

    def full_gradient(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


class Quadratic(SmoothPotential):
    """General quadratic F(x) = (x - c)^T H (x - c) / 2 with H symmetric PSD.

    L and lambda_f are the extreme eigenvalues of H.  Used mostly by the
    primal-dual inequality checkers, which want varied curvature.
    """

    def __init__(self, h, c):
        h = np.asarray(h, dtype=float)
        c = np.asarray(c, dtype=float)
        if not (np.isfinite(h).all() and np.isfinite(c).all()):
            raise ValueError("Quadratic H and c must be finite")
        if h.ndim != 2 or h.shape[0] != h.shape[1] or not np.allclose(h, h.T):
            raise ValueError("H must be a symmetric matrix")
        w = np.linalg.eigvalsh(h)
        if w[0] < -1e-12 * max(1.0, abs(w[-1])):
            raise ValueError("H must be positive semidefinite")
        if c.shape != (h.shape[0],):
            raise ValueError(f"c has shape {c.shape}, but H is {h.shape[0]} x {h.shape[0]}")
        self.h = (h + h.T) / 2.0
        self.c = c
        self.point_shape = (h.shape[0],)
        self.L = float(max(w[-1], 0.0))
        self.lambda_f = float(max(w[0], 0.0))

    def evaluate(self, x):
        r = np.asarray(x, dtype=float) - self.c
        return float(r @ self.h @ r / 2.0)

    def full_gradient(self, x):
        # einsum, not a BLAS matmul: a row's sum runs the same whatever the
        # batch size, so an ensemble chain equals the chain run alone.
        return np.einsum("ij,...j->...i", self.h, np.asarray(x, dtype=float) - self.c)


class FiniteSum(SmoothPotential):
    """F(x) = sum_i f_i(x) over n >= 1 finite data rows D_i, with one minibatch
    rule: "full" gives the exact gradient, and b >= 1 the unbiased estimate
    n * mean_k grad f_{I_k}(x) over the b indices of one rng.integers(n, size=b),
    drawn uniformly with replacement.  A subclass splits it into the x-free
    _minibatch_mean(idx, b) of an index block (..., b) and _minibatch_combine(x,
    mean) with x (by default the mean), and states the norms n ||grad f_i(x)||,
    _datum_grad_norms(x), and the finite sums of its data, _sums().
    """

    def __init__(self, data):
        data = np.atleast_2d(np.asarray(data, dtype=float))
        if data.shape[0] < 1:
            raise ValueError(f"{type(self).__name__} needs at least one data point")
        if not np.isfinite(data).all():
            raise ValueError(f"{type(self).__name__} data must be finite")
        self.data = data
        self.n = data.shape[0]
        with np.errstate(over="ignore"):  # finite data can still overflow a sum of it
            sums = self._sums()
        if not all(np.isfinite(v).all() for v in sums.values()):
            raise ValueError(f"{type(self).__name__} data overflow: a sum of it is not finite")
        vars(self).update(sums)

    def stochastic_gradient(self, x, rng, minibatch=1):
        if minibatch == "full":
            return self.full_gradient(x)
        b = int(minibatch)
        if b < 1:
            raise ValueError("minibatch size must be >= 1 or 'full'")
        return self._minibatch_combine(x, self._minibatch_mean(rng.integers(self.n, size=b), b))

    def _minibatch_combine(self, x, mean):
        return mean

    def grad_norm_variance(self, x, minibatch=1):
        """Var_i ||n grad f_i(x)|| / b, i uniform; 0 for the full gradient.
        The two-pass mean((norms - mean(norms))^2), which is never negative;
        a ValueError where it is not finite."""
        if minibatch == "full":
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            norms = self._datum_grad_norms(np.asarray(x, dtype=float))
            var = float(np.mean((norms - np.mean(norms)) ** 2)) / int(minibatch)
        if not np.isfinite(var):
            raise ValueError(f"{type(self).__name__} gradient norm variance is not finite at x")
        return var


class QuadraticSum(FiniteSum):
    """F(x) = sum_i ||x - D_i||^2 / 2 over data points D_i.

    Smoothness and strong convexity are both n (the Hessian is n * I).
    The single-index estimator is n * (x - D_I); its norm variance is
    x-dependent, so report-time bounds use :meth:`grad_norm_variance`
    evaluated along the visited iterates.
    """

    def __init__(self, data):
        super().__init__(data)
        self.point_shape = (self.data.shape[1],)
        self.L = self.lambda_f = float(self.n)

    def _sums(self):
        return {"_data_sum": self.data.sum(axis=0),
                "_data_sqnorm": float(np.sum(self.data * self.data))}

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        return float(
            0.5 * (self.n * np.sum(x * x) - 2.0 * np.dot(x, self._data_sum) + self._data_sqnorm)
        )

    def full_gradient(self, x):
        return self.n * np.asarray(x, dtype=float) - self._data_sum

    def _minibatch_mean(self, idx, b):
        # sum / b is bitwise np.mean, without its per-call overhead
        return self.data[idx].sum(axis=-2) / b

    def _minibatch_combine(self, x, mean):
        return self.n * (x - mean)

    def _datum_grad_norms(self, x):
        diff = x - self.data
        norms = np.linalg.norm(diff, axis=1)
        if not np.isfinite(norms).all():  # a square overflowed: scale the entries first
            scale = np.max(np.abs(diff))
            norms = scale * np.linalg.norm(diff / scale, axis=1)
        return self.n * norms


class PrecisionLikelihood(FiniteSum):
    """Gaussian likelihood in the precision matrix: F(x) = sum_i tr(D_i D_i^T x) / 2.

    Linear in x, so L = lambda_f = 0 and the full gradient is the constant
    matrix (sum_i D_i D_i^T) / 2.  For d = 1 the state is a flat 1-vector.
    """

    def __init__(self, data, d: int):
        super().__init__(data)
        if self.data.shape[1] != d:
            raise ValueError(f"data has dimension {self.data.shape[1]}, expected {d}")
        self.d = d
        self.point_shape = (1,) if d == 1 else (d, d)
        self._grad = (self.scatter / 2.0).reshape(self.point_shape)

    def _sums(self):
        scatter = self.data.T @ self.data
        # ||D_i||^2, the d = 1 minibatch gradient's summands and the datum gradient norms
        return {"scatter": (scatter + scatter.T) / 2.0, "_sq": np.sum(self.data**2, axis=1)}

    def evaluate(self, x):
        return float(np.vdot(self.scatter, x) / 2.0)

    def full_gradient(self, x):
        out = np.empty(np.shape(x))
        out[...] = self._grad
        return out

    def _minibatch_mean(self, idx, b):  # the estimate itself: F is linear in x
        if self.d == 1:
            # add.reduce / b: bitwise .sum() / b and np.mean of the 1-d gather
            return (self.n * (np.add.reduce(self._sq[idx], axis=-1) / b) / 2.0)[..., None]
        rows = self.data[idx]
        est = rows.mT @ rows / b * self.n / 2.0
        return (est + est.mT) / 2.0

    def _datum_grad_norms(self, x):
        # ||D D^T||_F = ||D||^2, so the norm of a single-index estimate is
        # n ||D_I||^2 / 2 regardless of x.
        return self.n * self._sq / 2.0


# ---------------------------------------------------------------------------
# builders for the conjugate-Wishart experiments
# ---------------------------------------------------------------------------

def build_gamma_potential(nu: float, n: int, d: int):
    """Log-barrier potential of the (posterior) Wishart density:

    G(x) = -alpha log det x + tr(x) / 2 + indicator(PD),
    alpha = ((nu + n) - d - 1) / 2.

    n = 0 gives the prior-only barrier used by the 1-d mean-learning setup.
    Returns the flat separable barrier for d = 1, its spectral lift otherwise.
    """
    alpha = ((nu + n) - d - 1) / 2.0
    if alpha < 0:
        raise ValueError(
            f"the Wishart log barrier needs nu >= d + 1 - n = {d + 1 - n}, got nu = {nu}: "
            f"its weight alpha = ((nu + n) - d - 1)/2 would be {alpha} < 0"
        )
    barrier = LogBarrier(alpha=alpha, beta=0.5)
    return barrier if d == 1 else Spectral(barrier, d)

