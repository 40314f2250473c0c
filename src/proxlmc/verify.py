"""Runtime invariant suites behind the ``verify`` CLI subcommand.

Each suite draws randomized instances, checks one contract, and reports the
worst margin seen.  They are deliberately independent of the test suite so a
deployed artifact can re-certify itself (and so corrupted numerics fail loud,
naming the violated invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import lemma2_residual, pdpg_gap_check
from .potentials import (
    AbsoluteValue,
    BoxIndicator,
    LogBarrier,
    PsdIndicator,
    Quadratic,
    Spectral,
    dual_from_primal,
)
from .samplers import SamplerConfig, run_chain
from .space import RngStream, _integer, gaussian, norm, sym_eigendecomposition


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    trials: int
    seed: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail} (trials={self.trials}, seed={self.seed})"


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-9, fprime=None) -> float:
    """Golden-section minimizer of a unimodal f on [lo, hi].

    Value comparisons alone cannot localize a minimum below roughly
    sqrt(machine eps) times the local scale, so when the derivative is
    supplied the bracketed estimate is polished by a few safeguarded Newton
    steps on fprime = 0.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t = (a + b) / 2.0
    if fprime is not None:
        for _ in range(5):
            slope = fprime(t)
            # secant-free Newton with numeric second derivative
            h = max(1e-7, 1e-7 * abs(t))
            curv = (fprime(t + h) - fprime(t - h)) / (2.0 * h)
            if curv <= 0:
                break
            step = slope / curv
            t_new = min(max(t - step, lo), hi)
            if t_new == t:
                break
            t = t_new
    return t


def _moreau_catalog():
    lo = np.array([-1.0, -0.5, 0.0, -2.0])
    hi = np.array([1.0, 0.5, 2.0, -1.0])
    return [
        ("zero", BoxIndicator(-np.inf, np.inf), (4,)),
        ("box", BoxIndicator(lo, hi), (4,)),
        ("l1", AbsoluteValue(0.7), (4,)),
        ("log-barrier", LogBarrier(1.3, 0.5), (3,)),
        ("psd", PsdIndicator(4), (4, 4)),
        ("spectral-log-barrier", Spectral(LogBarrier(0.8, 0.5), 4), (4, 4)),
    ]


def suite_moreau(trials: int = 1000, seed: int = 7) -> SuiteResult:
    """Moreau identity: x = prox_{gamma G}(x) + gamma prox_{G*/gamma}(x/gamma)
    to 1e-10 relative, for every catalog prox."""
    rng = RngStream(seed, 0)
    worst = 0.0
    culprit = ""
    for name, g, shape in _moreau_catalog():
        for gamma in (0.01, 0.1, 1.0, 10.0):
            for _ in range(trials):
                x = 3.0 * gaussian(rng, shape)
                p = g.prox(gamma, x)
                y = dual_from_primal(gamma, x, g)
                resid = norm(x - (p + gamma * y)) / max(1.0, norm(x))
                if resid > worst:
                    worst = resid
                    culprit = f"{name} gamma={gamma}"
    passed = worst <= 1e-10
    return SuiteResult(
        name="moreau-identity",
        passed=passed,
        detail=f"worst relative residual {worst:.3e}" + (f" at {culprit}" if not passed else ""),
        trials=trials,
        seed=seed,
    )


def suite_spectral_prox(trials: int = 200, seed: int = 11) -> SuiteResult:
    """The spectral log barrier's prox against a per-eigenvalue golden-section
    minimizer, 1e-8."""
    rng = RngStream(seed, 0)
    dims = (2, 5, 10)
    worst = 0.0
    for t in range(trials):
        d = dims[t % len(dims)]
        b = rng.standard_normal((d, d))
        m = (b + b.T) * (0.5 * float(np.exp(rng.standard_normal())))
        gamma = float(10.0 ** (-2.0 + 3.0 * rng.uniform()))  # log-uniform in [1e-2, 10]
        alpha = float(0.1 + 2.9 * rng.uniform())
        beta = float(rng.uniform())
        closed = Spectral(LogBarrier(alpha, beta), d).prox(gamma, m)
        w, q = sym_eigendecomposition(m)
        vals = []
        for s in w:
            span = abs(s) + gamma * beta + 2.0 * math.sqrt(gamma * alpha) + 1.0

            def phi(t, s=s):
                return -alpha * math.log(t) + beta * t + (t - s) ** 2 / (2.0 * gamma)

            def dphi(t, s=s):
                return -alpha / t + beta + (t - s) / gamma

            vals.append(
                golden_section_min(phi, 1e-12, span, tol=1e-9 * max(1.0, span), fprime=dphi)
            )
        oracle = (q * np.array(vals)) @ q.T
        oracle = (oracle + oracle.T) / 2.0
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    passed = worst <= 1e-8
    return SuiteResult(
        name="spectral-prox-vs-golden-section",
        passed=passed,
        detail=f"worst entry deviation {worst:.3e}",
        trials=trials,
        seed=seed,
    )


def _random_box_instance(rng):
    d = 1 + int(rng.integers(5))
    a = 2.0 * rng.standard_normal(d)
    width = 0.01 + np.abs(rng.standard_normal(d))
    lo, hi = a, a + width
    g = BoxIndicator(lo, hi)
    x = 4.0 * rng.standard_normal(d)
    x_star = np.clip(3.0 * rng.standard_normal(d), lo, hi)
    y_star = np.zeros(d)
    at_hi = x_star == hi
    at_lo = x_star == lo
    y_star[at_hi] = np.abs(rng.standard_normal(int(at_hi.sum())))
    y_star[at_lo] = -np.abs(rng.standard_normal(int(at_lo.sum())))
    gamma = float(10.0 ** (-3.0 + 4.0 * rng.uniform()))
    return gamma, x, x_star, y_star, g


def suite_lemma2(trials: int = 10000, seed: int = 13) -> SuiteResult:
    """One-step primal-dual inequality residual >= -1e-10 on randomized
    box-indicator instances (lambda_G* = 0)."""
    rng = RngStream(seed, 0)
    worst = math.inf
    for _ in range(trials):
        gamma, x, x_star, y_star, g = _random_box_instance(rng)
        worst = min(worst, lemma2_residual(gamma, x, x_star, y_star, g))
    passed = worst >= -1e-10
    return SuiteResult(
        name="prox-step-contraction",
        passed=passed,
        detail=f"min residual {worst:.3e}",
        trials=trials,
        seed=seed,
    )


def suite_pdpg(trials: int = 100, seed: int = 17) -> SuiteResult:
    """Proximal-gradient descent inequality and Lagrangian gap >= -1e-8 on
    random strongly convex quadratic plus box problems."""
    rng = RngStream(seed, 0)
    dims = (1, 2, 5)
    worst = math.inf
    for t in range(trials):
        d = dims[t % len(dims)]
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = 0.2 + 2.8 * rng.uniform(size=d)
        h = (q * eigs) @ q.T
        c = 2.0 * rng.standard_normal(d)
        smooth = Quadratic(h, c)
        a = 1.5 * rng.standard_normal(d)
        g = BoxIndicator(a, a + 0.1 + np.abs(rng.standard_normal(d)))
        gamma = float((0.3 + 0.7 * rng.uniform()) / smooth.L)
        x0 = 2.0 * rng.standard_normal(d)
        report = pdpg_gap_check(smooth, g, gamma, x0, num_iters=100)
        worst = min(worst, report.min_residual, report.min_gap)
    passed = worst >= -1e-8
    return SuiteResult(
        name="pdpg-descent-inequality",
        passed=passed,
        detail=f"min residual/gap {worst:.3e}",
        trials=trials,
        seed=seed,
    )


def suite_reductions(trials: int = 1000, seed: int = 23) -> SuiteResult:
    """Bit-identical reduction chains over shared noise streams:
    psgla(G=0) == ula, projected == psgla on a box, spla(R absent) == psgla."""
    steps = trials
    cfg = SamplerConfig(gamma=0.1, num_steps=steps, seed=seed)
    smooth = Quadratic(np.eye(3) * 0.8, np.zeros(3))
    box = BoxIndicator(-np.ones(3), np.ones(3))
    free = BoxIndicator(-np.inf, np.inf)  # G = 0
    x0 = np.array([0.5, -0.2, 0.3])

    def primal(sampler, g, stream_id):
        return np.array(run_chain(sampler, smooth, g, cfg, x0, stream_id=stream_id).primal)

    reductions = [
        ("psgla(G=0) != ula", ("ula", free, 0), ("psgla", free, 0)),
        ("projected != psgla on indicator", ("psgla", box, 1), ("projected", box, 1)),
        ("spla(R=0) != psgla", ("psgla", box, 2), ("spla", box, 2)),
    ]
    bad = [msg for msg, a, b in reductions if not np.array_equal(primal(*a), primal(*b))]

    passed = not bad
    return SuiteResult(
        name="reduction-bit-identity",
        passed=passed,
        detail="all reductions bitwise equal" if passed else "; ".join(bad),
        trials=steps,
        seed=seed,
    )


SUITES = {
    "moreau": suite_moreau,
    "spectral": suite_spectral_prox,
    "lemma2": suite_lemma2,
    "pdpg": suite_pdpg,
    "reductions": suite_reductions,
}


def run_suites(names=None, trials: int | None = None):
    """Run the named suites (one name, a list or, by default, all); returns a list
    of SuiteResult.  Every name and the trial count are checked before any suite runs."""
    names = [names] if isinstance(names, str) else names
    if names is None or names == ["all"]:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown verify suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    kwargs = {}
    if trials is not None:
        kwargs["trials"] = _integer(trials, "trials")
        if kwargs["trials"] < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
    return [SUITES[name](**kwargs) for name in names]
