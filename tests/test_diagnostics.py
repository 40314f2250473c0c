import itertools
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxlmc import (
    AbsoluteValue,
    BoxIndicator,
    LogBarrier,
    Quadratic,
    QuantileOracle,
    RngStream,
    bootstrap_w2_se,
    ergodic_mean,
    estimate_C,
    feasibility_fraction,
    lemma2_residual,
    pdpg_gap_check,
    run_chain,
    SamplerConfig,
    Spectral,
    TruncGaussSpec,
    assemble_experiment,
    gaussian,
    sliced_wasserstein2,
    wasserstein2_1d,
)
from proxlmc.diagnostics import _proximal_gradient_fixed_point


# ---------------------------------------------------------------------------
# one-dimensional Wasserstein
# ---------------------------------------------------------------------------

def test_w2_hand_values():
    assert wasserstein2_1d(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 0.0
    assert wasserstein2_1d(np.array([0.0, 1.0]), np.array([1.0, 2.0])) == pytest.approx(1.0)
    assert wasserstein2_1d(np.array([[0.0], [1.0]]), np.array([0.0, 1.0])) == 0.0


def test_w2_requires_equal_sizes_and_scalars():
    with pytest.raises(ValueError):
        wasserstein2_1d(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        wasserstein2_1d(np.zeros((3, 2)), np.zeros((3, 2)))


def test_w2_equals_brute_force_assignment():
    """Sorted matching solves the 1-d optimal transport exactly."""
    rng = RngStream(1, 0)
    for _ in range(30):
        n = 2 + int(rng.integers(5))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        best = min(
            float(np.mean((a - b[list(p)]) ** 2))
            for p in itertools.permutations(range(n))
        )
        assert wasserstein2_1d(a, b) == pytest.approx(best, abs=1e-12)


def test_w2_against_quantile_oracle():
    oracle = QuantileOracle(quantile=lambda u: np.asarray(u))
    n = 50
    grid = (np.arange(1, n + 1) - 0.5) / n
    assert wasserstein2_1d(grid, oracle) == 0.0
    shifted = grid + 0.25
    assert wasserstein2_1d(shifted, oracle) == pytest.approx(0.0625)


def _counting_oracle(calls):
    """A truncated-Gaussian oracle that appends each n it is evaluated at."""
    def quantile(u):
        calls.append(len(u))
        return _TRUNC_GAUSS.quantile(u)
    return QuantileOracle(quantile=quantile)


def test_oracle_runs_once_per_grid_size():
    calls = []
    oracle = _counting_oracle(calls)
    rng = RngStream(3, 1)
    for n in (40, 40, 25, 40):
        wasserstein2_1d(rng.standard_normal(n), oracle)
    assert calls == [40, 25]
    bootstrap_w2_se(rng.standard_normal(30), oracle, num_bootstrap=50, seed=2)
    assert calls == [40, 25, 30]


def test_midpoint_quantiles_are_read_only_and_w2_keeps_its_bits():
    oracle = _counting_oracle([])
    grid = oracle.midpoint_quantiles(64)
    assert oracle.midpoint_quantiles(64) is grid
    with pytest.raises(ValueError):
        grid[0] = 0.0
    rng = RngStream(4, 1)
    for n in (1, 7, 64, 1000):
        xs = rng.standard_normal(n)
        u = (np.arange(1, n + 1) - 0.5) / n
        unmemoized = float(np.mean((np.sort(xs) - _TRUNC_GAUSS.quantile(u)) ** 2))
        assert np.array_equal(np.float64(wasserstein2_1d(xs, oracle)).view(np.uint64),
                              np.float64(unmemoized).view(np.uint64))


def test_w2_triangle_inequality():
    rng = RngStream(2, 0)
    for _ in range(50):
        a, b, c = rng.standard_normal((3, 20))
        dab = np.sqrt(wasserstein2_1d(a, b))
        dbc = np.sqrt(wasserstein2_1d(b, c))
        dac = np.sqrt(wasserstein2_1d(a, c))
        assert dac <= dab + dbc + 1e-12


_TRUNC_GAUSS = assemble_experiment(TruncGaussSpec()).quantile_oracle


@pytest.mark.parametrize("call, message", [
    (lambda: wasserstein2_1d(np.zeros(0), _TRUNC_GAUSS), "at least one point"),
    (lambda: wasserstein2_1d(np.zeros(3), np.zeros(0)), "at least one point"),
    (lambda: sliced_wasserstein2(np.zeros((0, 2)), np.zeros((0, 2))), "at least one point"),
    (lambda: estimate_C(np.zeros((0, 1)), AbsoluteValue(1.0), L=1.0, ambient_dim=1,
                        sigma_f_sq=0.0), "at least one point"),
    (lambda: bootstrap_w2_se(np.zeros(4), _TRUNC_GAUSS, num_bootstrap=1), "num_bootstrap"),
], ids=["w2-oracle", "w2-empirical", "sliced-w2", "estimate-c", "bootstrap"])
def test_diagnostics_reject_empty_samples_and_one_resample(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# sliced Wasserstein
# ---------------------------------------------------------------------------

def test_sliced_w2_zero_on_identical_sets():
    pts = RngStream(3, 0).standard_normal((40, 3))
    assert sliced_wasserstein2(pts, pts.copy()) == 0.0


def test_sliced_w2_translation_scale():
    # point mass shifted by c: averaged squared projection is ||c||^2 / d
    pts = RngStream(4, 0).standard_normal((60, 3))
    c = np.array([0.6, -0.2, 0.3])
    val = sliced_wasserstein2(pts, pts + c, num_projections=4096)
    assert val == pytest.approx(np.dot(c, c) / 3.0, rel=0.1)


def test_sliced_w2_is_seeded_and_reproducible():
    a = RngStream(5, 0).standard_normal((30, 2))
    b = RngStream(5, 1).standard_normal((30, 2))
    v1 = sliced_wasserstein2(a, b)
    v2 = sliced_wasserstein2(a, b)
    assert v1 == v2
    v3 = sliced_wasserstein2(a, b, rng=RngStream(99, 0))
    assert v3 != v1
    assert sliced_wasserstein2(a, b, rng=RngStream(99, 0)) == v3


def test_sliced_w2_matrix_samples():
    base = gaussian(RngStream(6, 0), (2, 2), out=np.empty((25, 2, 2)))
    assert sliced_wasserstein2(base, base.copy()) == 0.0
    shifted = base + np.eye(2)
    assert sliced_wasserstein2(base, shifted) > 0.0


def test_sliced_w2_validation():
    a = np.zeros((10, 2))
    with pytest.raises(ValueError):
        sliced_wasserstein2(a, np.zeros((9, 2)))
    with pytest.raises(ValueError):
        sliced_wasserstein2(a, np.zeros((10, 3)))
    with pytest.raises(ValueError):
        sliced_wasserstein2(a, a, num_projections=0)


# ---------------------------------------------------------------------------
# ergodic means and feasibility
# ---------------------------------------------------------------------------

def test_ergodic_mean_drops_burn_in(box_quadratic):
    """A trace records only the steps after burn_in, so its mean drops them."""
    pts = [np.array([float(k)]) for k in range(1, 11)]
    assert ergodic_mean(pts) == pytest.approx(5.5)
    smooth, box = box_quadratic
    full = run_chain("psgla", smooth, box, SamplerConfig(0.1, 25, seed=7), np.zeros(2))
    burnt = run_chain("psgla", smooth, box, SamplerConfig(0.1, 25, burn_in=10, seed=7), np.zeros(2))
    assert np.array_equal(ergodic_mean(burnt), full.primal[10:].mean(axis=0))


def test_ergodic_mean_accepts_traces(box_quadratic):
    smooth, box = box_quadratic
    trace = run_chain("psgla", smooth, box, SamplerConfig(0.1, 25, seed=7), np.zeros(2))
    assert np.allclose(ergodic_mean(trace), np.mean(trace.primal, axis=0))


def test_feasibility_fraction_counts_in_domain_points():
    box = BoxIndicator(np.array([0.0]), np.array([1.0]))
    pts = [np.array([0.5]), np.array([2.0]), np.array([0.2]), np.array([-1.0])]
    assert feasibility_fraction(pts, box) == 0.5
    with pytest.raises(ValueError):
        feasibility_fraction([], box)


class _CountingBox(BoxIndicator):
    """BoxIndicator that counts its (stacked) domain checks."""

    def __init__(self, lo, hi):
        super().__init__(lo, hi)
        self.calls = 0

    def domain_mask(self, xs):
        self.calls += 1
        return super().domain_mask(xs)


@pytest.mark.parametrize("sampler, extra", [("psgla", {}), ("myula", {"myula_lambda": 0.05})])
def test_feasibility_fraction_is_one_domain_check_over_the_trace(sampler, extra):
    asm = assemble_experiment(TruncGaussSpec())
    box = _CountingBox(asm.nonsmooth.lo, asm.nonsmooth.hi)
    cfg = SamplerConfig(gamma=0.1, num_steps=2000, seed=3, **extra)
    trace = run_chain(sampler, asm.smooth, box, cfg, asm.default_x0(cfg.gamma))
    assert box.calls == 0  # the chain itself checks no domain
    frac = feasibility_fraction(trace, box)
    assert box.calls == 1  # one check over the whole recorded stack
    assert frac == np.mean(asm.nonsmooth.domain_mask(trace.primal))
    assert frac == feasibility_fraction(list(trace.primal), box)
    # PSGLA stays in the box; MYULA leaves it on some steps.
    assert frac == 1.0 if sampler == "psgla" else 0.0 < frac < 1.0
    narrower = BoxIndicator(np.array([-0.5]), np.array([0.5]))
    inside = feasibility_fraction(trace, narrower)
    assert inside == feasibility_fraction(list(trace.primal), narrower)
    assert inside < frac


# ---------------------------------------------------------------------------
# bias constant estimate
# ---------------------------------------------------------------------------

def test_estimate_c_on_box_samples():
    box = BoxIndicator(np.array([0.0]), np.array([1.0]))
    pts = np.array([[0.2], [0.5], [1.0], [0.7]])  # one boundary point skipped
    est = estimate_C(pts, box, L=1.0, ambient_dim=1, sigma_f_sq=0.5)
    assert est.num_skipped == 1
    assert est.grad_sq_mean == 0.0
    assert est.value == pytest.approx(2.0 * (1.0 + 0.5))


def test_estimate_c_uses_subgradient_norms():
    g = AbsoluteValue(0.5)
    pts = np.array([[1.0], [-2.0], [3.0]])
    est = estimate_C(pts, g, L=0.0, ambient_dim=1, sigma_f_sq=0.0)
    assert est.grad_sq_mean == pytest.approx(0.25)
    assert est.value == pytest.approx(0.25)


def _estimate_c_per_sample(pts, g, L, ambient_dim, sigma_f_sq):
    """The per-sample skip-and-count loop: (value, grad_sq_mean, num_skipped),
    or None when every sample is skipped."""
    total, kept, skipped = 0.0, 0, 0
    for x in pts:
        try:
            grad = g.subgradient_min(x)
        except ValueError:
            skipped += 1
            continue
        total += float(np.vdot(grad, grad))
        kept += 1
    if kept == 0:
        return None
    grad_sq = total / kept
    return grad_sq + 2.0 * (L * ambient_dim + sigma_f_sq), grad_sq, skipped


def _estimate_c_fields(pts, g, L, ambient_dim, sigma_f_sq):
    try:
        est = estimate_C(pts, g, L=L, ambient_dim=ambient_dim, sigma_f_sq=sigma_f_sq)
    except ValueError:
        return None
    return est.value, est.grad_sq_mean, est.num_skipped


class _CountingBarrier(Spectral):
    def __init__(self, *args):
        super().__init__(*args)
        self.calls = 0

    def subgradient_min(self, x):
        self.calls += 1
        return super().subgradient_min(x)


@given(st.sampled_from([1, 2, 5, 10]), st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=3))
def test_stacked_estimate_c_equals_the_per_sample_loop_bitwise(d, seed, num_bad):
    """All-PD stacks take the one stacked call; num_bad non-PD samples send
    the estimate to the per-sample loop.  Either way it equals the loop."""
    rng = RngStream(seed, 0)
    b = rng.standard_normal((40, d, d))
    pts = b @ b.mT + 0.05 * np.eye(d)
    bad = {int(i) for i in rng.integers(40, size=num_bad)}
    for i in bad:
        pts[i] -= (1.0 + np.linalg.eigvalsh(pts[i])[-1]) * np.eye(d)  # negative definite
    g = _CountingBarrier(LogBarrier(0.8, 0.5), d)
    dim = d * (d + 1) // 2
    est = estimate_C(pts, g, L=0.5, ambient_dim=dim, sigma_f_sq=0.3)
    calls = g.calls
    assert (est.value, est.grad_sq_mean, est.num_skipped) == _estimate_c_per_sample(
        pts, g, 0.5, dim, 0.3
    )
    assert est.num_skipped == len(bad)
    assert calls == (1 if not bad else 1 + len(pts))  # the stacked call, then per sample


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_stacked_estimate_c_equals_the_per_sample_loop_on_flat_potentials(seed):
    rng = RngStream(seed, 0)
    pts = 0.6 * rng.standard_normal((30, 3))
    inside = np.abs(rng.standard_normal((30, 3))) + 0.1
    for g, stack in ((LogBarrier(1.3, 0.5), inside), (LogBarrier(1.3, 0.5), 3.0 + pts),
                     (LogBarrier(1.3, 0.5), pts), (BoxIndicator(-np.ones(3), np.ones(3)), pts),
                     (AbsoluteValue(0.7), pts)):
        fields = _estimate_c_fields(stack, g, 1.0, 3, 0.0)
        assert fields == _estimate_c_per_sample(stack, g, 1.0, 3, 0.0)


def _dynamic_arch_openblas_on_x86_64():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (blas.get("name") == "scipy-openblas" and platform.machine() in ("x86_64", "AMD64")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _dynamic_arch_openblas_on_x86_64(),
                    reason="OPENBLAS_CORETYPE picks the kernels of a DYNAMIC_ARCH x86-64 OpenBLAS")
def test_stacked_estimate_c_equals_the_loop_on_the_prescott_blas_core():
    """Prescott's ddot sums a row view differently by its 16-byte alignment,
    so estimate_C's stacked path must not take vdot on views.  The two
    stacked-versus-loop properties rerun in a child process whose OpenBLAS
    is set to the Prescott kernels; this process keeps its own."""
    names = ["test_stacked_estimate_c_equals_the_per_sample_loop_bitwise",
             "test_stacked_estimate_c_equals_the_per_sample_loop_on_flat_potentials"]
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *[f"{__file__}::{name}" for name in names]],
        capture_output=True, text=True, timeout=300, cwd=root,
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "2 passed" in proc.stdout


def test_estimate_c_errors_when_everything_is_skipped():
    box = BoxIndicator(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        estimate_C(np.array([[0.0], [1.0]]), box, L=1.0, ambient_dim=1, sigma_f_sq=0.0)


# ---------------------------------------------------------------------------
# one-step contraction inequality
# ---------------------------------------------------------------------------

def test_lemma2_hand_example_is_tight():
    """G = indicator of [0,1], gamma=1, x=2, anchors (0.5, 0): both sides equal."""
    g = BoxIndicator(np.array([0.0]), np.array([1.0]))
    r = lemma2_residual(1.0, np.array([2.0]), np.array([0.5]), np.array([0.0]), g)
    assert r == 0.0


def test_lemma2_residual_nonnegative_on_random_boxes():
    rng = RngStream(8, 0)
    worst = np.inf
    for _ in range(500):
        d = 1 + int(rng.integers(4))
        lo = 2.0 * rng.standard_normal(d)
        hi = lo + 0.1 + np.abs(rng.standard_normal(d))
        g = BoxIndicator(lo, hi)
        x = 4.0 * rng.standard_normal(d)
        x_star = np.clip(2.0 * rng.standard_normal(d), lo, hi)
        y_star = np.zeros(d)
        y_star[x_star == hi] = np.abs(rng.standard_normal(int((x_star == hi).sum())))
        y_star[x_star == lo] = -np.abs(rng.standard_normal(int((x_star == lo).sum())))
        gamma = float(10.0 ** (-2 + 3 * rng.uniform()))
        worst = min(worst, lemma2_residual(gamma, x, x_star, y_star, g))
    assert worst >= -1e-10


def test_lemma2_rejects_infinite_conjugates():
    g = AbsoluteValue(1.0)
    with pytest.raises(ValueError):
        lemma2_residual(1.0, np.array([3.0]), np.array([0.0]), np.array([2.0]), g)


# ---------------------------------------------------------------------------
# primal-dual gap checker
# ---------------------------------------------------------------------------

def test_pdpg_gap_check_on_a_small_problem():
    h = np.array([[2.0, 0.4], [0.4, 1.0]])
    smooth = Quadratic(h, np.array([1.5, -0.5]))
    box = BoxIndicator(np.array([-0.2, -0.2]), np.array([0.2, 0.2]))
    report = pdpg_gap_check(smooth, box, gamma=0.3, x0=np.zeros(2), num_iters=60)
    assert len(report.residuals) == 60
    assert len(report.gaps) == 60
    assert report.min_residual >= -1e-8
    assert report.min_gap >= -1e-8
    # the anchor is the proximal-gradient fixed point
    x_star = _proximal_gradient_fixed_point(smooth, box, np.zeros(2))
    step = 1.0 / smooth.L
    fixed = box.prox(step, x_star - step * smooth.full_gradient(x_star))
    assert np.allclose(fixed, x_star, atol=1e-9)


def test_pdpg_gap_check_rejects_large_steps():
    smooth = Quadratic(np.array([[4.0]]), np.zeros(1))
    box = BoxIndicator(np.array([-1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        pdpg_gap_check(smooth, box, gamma=0.3, x0=np.zeros(1), num_iters=10)


# ---------------------------------------------------------------------------
# bootstrap standard error
# ---------------------------------------------------------------------------

def test_bootstrap_w2_se_is_deterministic_and_positive():
    oracle = QuantileOracle(quantile=lambda u: np.asarray(u))
    samples = RngStream(9, 0).uniform(200)
    se1 = bootstrap_w2_se(samples, oracle, num_bootstrap=100, seed=5)
    se2 = bootstrap_w2_se(samples, oracle, num_bootstrap=100, seed=5)
    assert se1 == se2
    assert se1 > 0.0
    assert bootstrap_w2_se(samples, oracle, num_bootstrap=100, seed=6) != se1
    # resampling noise of W2 should be well below the statistic's scale here
    assert se1 < wasserstein2_1d(samples, oracle) + 0.05


@pytest.mark.parametrize("count", [2.5, "4", True], ids=["float", "str", "bool"])
def test_diagnostic_counts_must_be_integers(count):
    """A bool would run one projection, and a float or str would fail in
    range or np.empty with a TypeError."""
    a = RngStream(3, 0).standard_normal((20, 2))
    oracle = QuantileOracle(quantile=lambda u: np.asarray(u))
    with pytest.raises(ValueError, match="num_projections must be an integer"):
        sliced_wasserstein2(a, a + 1.0, num_projections=count)
    with pytest.raises(ValueError, match="num_bootstrap must be an integer"):
        bootstrap_w2_se(a[:, 0], oracle, num_bootstrap=count)


@pytest.mark.parametrize("n, match", [
    (0, "n >= 1"), (-1, "n >= 1"), (2.5, "n must be an integer"), (True, "n must be an integer"),
    ("4", "n must be an integer"),
], ids=["zero", "negative", "float", "bool", "str"])
def test_midpoint_quantiles_need_a_positive_integer_count(n, match):
    """n = 0 and n = -1 used to raise numpy's zero-size reduction error from
    the bisection, and n = 2.5 blamed the quantile levels."""
    oracle = assemble_experiment(TruncGaussSpec()).quantile_oracle
    with pytest.raises(ValueError, match=match):
        oracle.midpoint_quantiles(n)
    assert oracle.midpoint_quantiles(np.int64(3)).shape == (3,)


def test_diagnostic_counts_accept_numpy_integers():
    a = RngStream(3, 0).standard_normal((20, 2))
    oracle = QuantileOracle(quantile=lambda u: np.asarray(u))
    assert sliced_wasserstein2(a, a + 1.0, num_projections=np.int64(4)) == sliced_wasserstein2(
        a, a + 1.0, num_projections=4)
    assert bootstrap_w2_se(a[:, 0], oracle, num_bootstrap=np.int64(4)) == bootstrap_w2_se(
        a[:, 0], oracle, num_bootstrap=4)
