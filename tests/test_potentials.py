import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from proxlmc import potentials
from proxlmc import (
    AbsoluteValue,
    BoxIndicator,
    ConjugateUnavailable,
    LogBarrier,
    PrecisionLikelihood,
    Quadratic,
    QuadraticSum,
    RngStream,
    SamplerConfig,
    Spectral,
    WishartExperimentSpec,
    ZeroSmooth,
    assemble_experiment,
    build_gamma_potential,
    dual_from_primal,
    feasibility_fraction,
    norm,
    run_chain,
    spectral_apply,
    sym_eigendecomposition,
)

GAMMAS = (0.01, 0.1, 1.0, 10.0)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
pos_gammas = st.floats(min_value=1e-3, max_value=20.0)


def random_sym(rng, d, scale=1.0):
    b = rng.standard_normal((d, d))
    return (b + b.T) * (scale / 2.0)


# ---------------------------------------------------------------------------
# closed-form proxes
# ---------------------------------------------------------------------------

def test_prox_box_values():
    lo = np.array([-1.0, 0.0, -np.inf])
    hi = np.array([1.0, np.inf, 0.0])
    x = np.array([3.0, -2.0, 5.0])
    assert np.array_equal(BoxIndicator(lo, hi).prox(0.5, x), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        BoxIndicator(np.array([1.0]), np.array([0.0])).prox(0.5, x)


@pytest.mark.parametrize("build", [
    lambda: BoxIndicator(np.array([1.0]), np.array([0.0])),
    lambda: BoxIndicator(np.array([np.nan]), np.array([1.0])),
    lambda: BoxIndicator(np.array([0.0, 0.0]), np.array([1.0, np.nan])),
    lambda: LogBarrier(-1.0, 0.0),
    lambda: LogBarrier(np.nan, 0.0),
    lambda: LogBarrier(np.inf, 0.0),
    lambda: LogBarrier(1.0, np.nan),
    lambda: LogBarrier(1.0, -np.inf),
    lambda: Spectral(LogBarrier(np.nan, 0.5), 2),
    lambda: AbsoluteValue(-1.0),
    lambda: AbsoluteValue(np.nan),
    lambda: AbsoluteValue(np.inf),
], ids=["box-lo-above-hi", "box-nan-lo", "box-nan-hi", "barrier-negative-alpha",
        "barrier-nan-alpha", "barrier-inf-alpha", "barrier-nan-beta", "barrier-inf-beta",
        "spectral-nan-alpha", "l1-negative", "l1-nan", "l1-inf"])
def test_constructors_reject_bad_parameters(build):
    with pytest.raises(ValueError):
        build()


def test_prox_psd_clips_negative_eigenvalues():
    q, _ = np.linalg.qr(RngStream(2, 0).standard_normal((3, 3)))
    m = (q * np.array([-1.0, 0.5, 2.0])) @ q.T
    p = Spectral(LogBarrier(0.0, 0.0), 3).prox(1.0, (m + m.T) / 2.0)
    assert np.array_equal(p, p.T)
    w = np.linalg.eigvalsh(p)
    assert w.min() >= -1e-12
    assert np.allclose(np.sort(w), [0.0, 0.5, 2.0], atol=1e-10)

    spd = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert np.allclose(Spectral(LogBarrier(0.0, 0.0), 2).prox(3.0, spd), spd, atol=1e-12)


def test_prox_logbarrier_scalar_optimality():
    # gamma (-alpha/t + beta) + t - s = 0 at the prox point
    rng = RngStream(4, 0)
    for _ in range(300):
        gamma = float(10.0 ** (-2 + 3 * rng.uniform()))
        alpha = float(2.9 * rng.uniform() + 0.05)
        beta = float(rng.uniform())
        s = float(20.0 * rng.standard_normal())
        t = LogBarrier(alpha, beta).prox(gamma, s)
        assert t > 0
        resid = gamma * (-alpha / t + beta) + t - s
        assert abs(resid) < 1e-9 * max(1.0, abs(s), t)


def test_prox_logbarrier_scalar_is_stable_for_large_negative_input():
    # naive quadratic-root form loses all precision here
    t = LogBarrier(2.0, 0.3).prox(10.0, -1e8)
    assert t > 0
    resid = 10.0 * (-2.0 / t + 0.3) + t - (-1e8)
    assert abs(resid) < 1e-6 * 1e8


def test_prox_logbarrier_scalar_alpha_zero_is_positive_clip():
    # alpha = 0 keeps only beta t + indicator(t >= 0)
    g = LogBarrier(0.0, 1.0)
    assert g.prox(2.0, 5.0) == pytest.approx(3.0)
    assert g.prox(2.0, -4.0) == 0.0
    assert np.signbit(LogBarrier(0.0, 0.0).prox(2.0, -0.0))  # max(-0.0, 0.0) keeps -0.0
    with pytest.raises(ValueError):
        LogBarrier(-0.1, 0.0)
    for gamma in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="step size"):
            LogBarrier(1.0, 0.0).prox(gamma, 0.0)


def test_prox_logbarrier_scalar_vectorized():
    s = np.array([-3.0, 0.0, 2.0])
    g = LogBarrier(1.0, 0.5)
    t = g.prox(0.5, s)
    singles = [g.prox(0.5, float(v)) for v in s]
    assert np.allclose(t, singles, rtol=0, atol=0)


def _log_barrier_prox_reference(g, gamma, x):
    """LogBarrier's closed form as one np.where over every entry."""
    u = np.asarray(x, dtype=float) - gamma * g.beta
    if g.alpha == 0:
        return np.where(u < 0, 0.0, u)
    root = np.sqrt(u * u + 4.0 * gamma * g.alpha)
    return np.where(u > 0, (u + root) / 2.0, 2.0 * gamma * g.alpha / (root - u))


_barrier_shapes = array_shapes(min_dims=0, max_dims=2, max_side=5)
_special_entries = st.sampled_from([0.0, -0.0, np.nan, 5e-324, -5e-324, 1e-300, 1e300, -1e300])


@settings(max_examples=300)
@given(
    st.sampled_from([0.0, 1e-8, 0.5, 25.0]),
    st.sampled_from([-1.5, 0.0, 0.5]),
    st.floats(min_value=1e-4, max_value=10.0),
    st.one_of(
        arrays(np.float64, _barrier_shapes, elements=st.floats(min_value=1e-300, max_value=1e300)),
        arrays(np.float64, _barrier_shapes,
               elements=st.one_of(st.floats(min_value=-1e300, max_value=1e300), _special_entries)),
    ),
)
def test_log_barrier_prox_equals_its_where_closed_form_bitwise(alpha, beta, gamma, x):
    """Every entry whose u * u + 4 gamma alpha is finite keeps the closed
    form's arithmetic, whichever branches its stack takes: mixed signs,
    +-0.0, tiny and huge magnitudes and NaN; a 0-d point keeps the 0-d array
    np.where returns.  Where u * u overflows, where the closed form would
    give inf or 0, the prox is u for u > 0 and gamma alpha / |u| for u < 0,
    to rounding."""
    g = LogBarrier(alpha, beta)
    out = g.prox(gamma, x)
    with np.errstate(all="ignore"):
        ref = _log_barrier_prox_reference(g, gamma, x)
        u = x - gamma * beta
        wide = (alpha > 0) & np.isinf(u * u + 4.0 * gamma * alpha) & np.isfinite(u)
    assert type(out) is type(ref) and out.shape == ref.shape
    assert np.array_equal(out[~wide].view(np.uint64), ref[~wide].view(np.uint64))
    uw = u[wide]
    far = np.where(uw > 0, uw, gamma * alpha / np.abs(uw))
    assert np.allclose(out[wide], far, rtol=4e-16, atol=1e-323)
    assert np.all(out[wide] > 0)


@settings(max_examples=300)
@given(
    st.sampled_from([0.0, 1e-8, 0.5, 25.0]),
    st.sampled_from([-1.5, 0.0, 0.5]),
    st.floats(min_value=1e-4, max_value=10.0),
    arrays(np.float64, _barrier_shapes, elements=st.floats(min_value=-1e150, max_value=1e150)),
    st.sampled_from([0.0, -0.0, -1.0, -1e150, -np.inf, np.nan]),
    st.integers(min_value=0),
)
def test_log_barrier_prox_is_silent_on_large_entries_beside_non_positive_ones(
    alpha, beta, gamma, x, low, at
):
    """Magnitudes up to 1e150 beside a non-positive or NaN entry: each branch
    of the closed form runs on its own entries only, so none warns (the suite
    turns a RuntimeWarning into an error), and every entry keeps its bits."""
    x.flat[at % x.size] = low
    g = LogBarrier(alpha, beta)
    out = g.prox(gamma, x)
    with np.errstate(all="ignore"):
        ref = _log_barrier_prox_reference(g, gamma, x)
    assert type(out) is type(ref) and out.shape == ref.shape
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_log_barrier_prox_of_a_valid_mixed_point_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = LogBarrier(1.0, 0.0).prox(0.1, np.array([1e10, -1.0]))
        zero_d = LogBarrier(1.0, 0.0).prox(0.1, 1e10)
        matrix = Spectral(LogBarrier(1.0, 0.0), 2).prox(0.1, np.diag([1e10, -1.0]))
    assert flat[0] == 1e10 and 0 < flat[1] < 0.1
    assert zero_d.shape == () and zero_d == 1e10
    assert np.allclose(matrix, np.diag(flat), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("big", [1e200, 1e300])
def test_log_barrier_prox_of_entries_whose_square_overflows(big):
    """u * u overflows past ~1.3e154; the prox still lands near u, or near
    gamma alpha / |u| inside the open domain, without a warning, and the
    other entries of the stack keep their bits."""
    g = LogBarrier(1.0, 0.0)
    out = g.prox(0.1, np.array([big, -big, 2.0, -3.0]))
    assert np.allclose(out[:2], [big, 0.1 / big], rtol=1e-15, atol=0.0) and out[1] > 0
    assert np.array_equal(out[2:], g.prox(0.1, np.array([2.0, -3.0])))
    assert g.prox(0.1, big) == big and g.prox(0.1, -big) > 0
    assert np.array_equal(g.prox(0.1, np.array([np.inf, -np.inf, np.nan]))[:2], [np.inf, 0.0])
    for lam in (big, -big):
        matrix = Spectral(LogBarrier(1.0, 0.0), 2).prox(0.1, np.diag([lam, 2.0]))
        expected = np.diag(g.prox(0.1, np.array([lam, 2.0])))
        assert np.allclose(matrix, expected, rtol=1e-15, atol=0.0)


def test_prox_logdet_matches_scalar_prox_on_eigenvalues():
    rng = RngStream(6, 0)
    for _ in range(50):
        m = random_sym(rng, 5, scale=3.0)
        gamma, alpha, beta = 0.7, 1.2, 0.5
        p = Spectral(LogBarrier(alpha, beta), 5).prox(gamma, m)
        assert np.array_equal(p, p.T)
        w, q = sym_eigendecomposition(m)
        vals = LogBarrier(alpha, beta).prox(gamma, w)
        expected = (q * vals) @ q.T
        assert np.max(np.abs(p - (expected + expected.T) / 2.0)) < 1e-10


def _per_eigenvalue_reference(scalar_fn, m):
    """Q f(Lambda) Q^T with f called once per eigenvalue, as a Python scalar map."""
    w, q = sym_eigendecomposition(m)
    vals = np.array([scalar_fn(t) for t in w], dtype=float)
    out = (q * vals) @ q.T
    return (out + out.T) / 2.0


def _assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def _spectral_cases(d, seed):
    """A random symmetric matrix, a PD one, the zero matrix, and a diagonal
    matrix whose spectrum holds -0.0."""
    m = random_sym(RngStream(seed, 0), d, scale=3.0)
    diag = np.linspace(-1.0, 2.0, d)
    diag[0] = -0.0
    return [m, m @ m + 0.1 * np.eye(d), np.zeros((d, d)), np.diag(diag)]


@given(st.sampled_from([1, 2, 5, 10]), st.integers(min_value=0, max_value=2**32 - 1))
def test_spectral_proxes_match_per_eigenvalue_reference_bitwise(d, seed):
    gamma, alpha, beta = 0.3, 1.7, 0.5
    cases = _spectral_cases(d, seed)
    assert np.signbit(sym_eigendecomposition(cases[-1]).eigenvalues[0])
    # each spectral lift against its scalar LogBarrier applied per eigenvalue
    lifts = [
        (Spectral(LogBarrier(0.0, 0.0), d), LogBarrier(0.0, 0.0)),
        (Spectral(LogBarrier(alpha, beta), d), LogBarrier(alpha, beta)),
        (Spectral(LogBarrier(0.0, beta), d), LogBarrier(0.0, beta)),
    ]
    for m in cases:
        psd = Spectral(LogBarrier(0.0, 0.0), d).prox(gamma, m)
        _assert_bitwise(psd, _per_eigenvalue_reference(lambda t: max(t, 0.0), m))
        w = sym_eigendecomposition(m).eigenvalues
        for g, f in lifts:
            ref = _per_eigenvalue_reference(lambda t: float(f.prox(gamma, t)), m)
            _assert_bitwise(g.prox(gamma, m), ref)
            assert g.evaluate(m) == f.evaluate(w)
            if w[0] > 0:
                ref = _per_eigenvalue_reference(lambda t: float(f.subgradient_min(t)), m)
                _assert_bitwise(g.subgradient_min(m), ref)
            else:
                with pytest.raises(ValueError):
                    g.subgradient_min(m)


@given(st.sampled_from([1, 2, 5, 10]), st.integers(min_value=0, max_value=2**32 - 1))
def test_stacked_spectral_layer_matches_per_matrix_bitwise(d, seed):
    """One eigendecomposition over a (k, d, d) stack equals k separate ones
    bit for bit.  LAPACK does not promise this, so this test is the guard
    for the ensemble's stacked prox."""
    stack = np.stack(_spectral_cases(d, seed))
    w, q = sym_eigendecomposition(stack)
    psd, slb = Spectral(LogBarrier(0.0, 0.0), d), Spectral(LogBarrier(1.7, 0.5), d)
    batched = [spectral_apply(np.square, stack), psd.prox_batch(0.3, stack),
               slb.prox_batch(0.3, stack)]
    for i, m in enumerate(stack):
        one = sym_eigendecomposition(m)
        _assert_bitwise(w[i], one.eigenvalues)
        _assert_bitwise(q[i], one.eigenvectors)
        singles = [spectral_apply(np.square, m), psd.prox(0.3, m), slb.prox(0.3, m)]
        for b, single in zip(batched, singles):
            _assert_bitwise(b[i], single)


def test_prox_logdet_alpha_zero_reduces_to_psd_projection():
    m = random_sym(RngStream(8, 0), 4, scale=2.0)
    g = Spectral(LogBarrier(0.0, 0.0), 4)
    psd = g.prox(0.3, m)
    assert g.is_indicator and g.evaluate(psd) == 0.0  # of the PSD cone
    assert np.allclose(psd, _per_eigenvalue_reference(lambda t: max(t, 0.0), m), atol=1e-12)


# ---------------------------------------------------------------------------
# prox properties across the catalog
# ---------------------------------------------------------------------------

def catalog():
    lo = np.array([-1.0, -0.5, 0.0])
    hi = np.array([1.0, 0.5, 2.0])
    return [
        (BoxIndicator(-np.inf, np.inf), 3),
        (BoxIndicator(lo, hi), 3),
        (AbsoluteValue(0.7), 3),
        (LogBarrier(1.3, 0.5), 3),
        (LogBarrier(0.0, 0.5), 3),
        (Spectral(LogBarrier(0.0, 0.0), 3), (3, 3)),
        (Spectral(LogBarrier(0.8, 0.5), 3), (3, 3)),
    ]


def test_moreau_identity_across_catalog():
    rng = RngStream(9, 0)
    for g, shape in catalog():
        for gamma in GAMMAS:
            for _ in range(25):
                x = 3.0 * rng.standard_normal(shape)
                if isinstance(shape, tuple):
                    x = (x + x.T) / 2.0
                p = g.prox(gamma, x)
                y = dual_from_primal(gamma, x, g)
                assert norm(x - (p + gamma * y)) <= 1e-10 * max(1.0, norm(x))


def test_firm_nonexpansiveness():
    # ||P(a) - P(b)||^2 <= <P(a) - P(b), a - b>
    rng = RngStream(10, 0)
    for g, shape in catalog():
        for gamma in (0.1, 1.0):
            for _ in range(40):
                a = 3.0 * rng.standard_normal(shape)
                b = 3.0 * rng.standard_normal(shape)
                if isinstance(shape, tuple):
                    a, b = (a + a.T) / 2.0, (b + b.T) / 2.0
                pa, pb = g.prox(gamma, a), g.prox(gamma, b)
                lhs = norm(pa - pb) ** 2
                rhs = float(np.vdot(pa - pb, a - b))
                assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_prox_batch_matches_prox():
    for g, shape in catalog():
        if isinstance(shape, tuple):
            continue
        xs = RngStream(11, 0).standard_normal((20, shape))
        batch = g.prox_batch(0.3, xs)
        rows = np.stack([g.prox(0.3, x) for x in xs])
        assert np.allclose(batch, rows, atol=0, rtol=0)


@pytest.mark.parametrize("gamma", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_prox_and_dual_reject_a_step_size_that_is_not_finite_and_positive(gamma):
    """An infinite step size made LogBarrier's prox and its dual point nan."""
    for g, shape in catalog():
        x = np.eye(3) if isinstance(shape, tuple) else np.ones(shape)
        with pytest.raises(ValueError, match="prox step size must be a finite number > 0"):
            g.prox(gamma, x)
        with pytest.raises(ValueError, match="prox step size must be a finite number > 0"):
            dual_from_primal(gamma, x, g)


def test_prox_lands_in_domain():
    rng = RngStream(12, 0)
    for g, shape in catalog():
        for _ in range(30):
            x = 4.0 * rng.standard_normal(shape)
            if isinstance(shape, tuple):
                x = (x + x.T) / 2.0
            assert g.in_domain(g.prox(0.5, x))


# ---------------------------------------------------------------------------
# conjugates and Fenchel-Young
# ---------------------------------------------------------------------------

def test_box_conjugate_is_the_support_function():
    g = BoxIndicator(np.array([-1.0, 0.0]), np.array([2.0, 1.0]))
    # sup_x <y, x> over the box, coordinatewise max(lo y, hi y)
    assert g.conjugate(np.array([1.0, -3.0])) == pytest.approx(2.0 + 0.0)
    assert g.conjugate(np.array([-2.0, 4.0])) == pytest.approx(2.0 + 4.0)
    # an infinite side contributes 0 at y_i = 0, not 0 * inf = NaN
    half_line = BoxIndicator(np.array([0.0]), np.array([np.inf]))
    assert [half_line.conjugate(np.array([y])) for y in (0.0, 1.0, -1.0)] == [0.0, np.inf, 0.0]
    line = BoxIndicator(np.array([-np.inf, -1.0]), np.array([np.inf, 2.0]))
    assert line.conjugate(np.array([0.0, -3.0])) == 3.0
    assert line.conjugate(np.array([0.5, 0.0])) == np.inf


def test_zero_potential_conjugate():
    g = BoxIndicator(-np.inf, np.inf)
    assert g.conjugate(np.zeros(3)) == 0.0
    assert g.conjugate(np.array([0.0, 1e-8, 0.0])) == np.inf


def test_unbounded_box_is_g_zero():
    """BoxIndicator(-inf, inf) is G = 0 on points of any shape: its prox returns
    x bit for bit, -0.0 and NaN included, and a NaN point is outside its domain."""
    g = BoxIndicator(-np.inf, np.inf)
    assert g.is_indicator and g.point_shape is None
    for x in (np.array([-0.0, np.nan, -np.inf, 5e-324, 1.5]),
              np.array([[-0.0, np.nan], [np.nan, 2.0]])):
        assert g.prox(0.3, x).tobytes() == x.tobytes()
        assert g.prox_batch(0.3, x[None]).tobytes() == x.tobytes()
    assert g.domain_mask(np.array([[0.0, -1e308], [np.nan, 1.0]])).tolist() == [True, False]
    assert not g.in_domain(np.array([[np.nan]]))
    assert g.evaluate(np.array([np.nan, 0.0])) == np.inf
    assert g.evaluate(np.full((2, 2), -1e300)) == 0.0


def test_absolute_value_conjugate_is_the_ball_indicator():
    g = AbsoluteValue(0.7)
    assert g.conjugate(np.array([0.7, -0.7])) == 0.0
    assert g.conjugate(np.array([0.71, 0.0])) == np.inf


def test_psd_conjugate_is_the_nsd_indicator():
    g = Spectral(LogBarrier(0.0, 0.0), 2)
    assert g.conjugate(np.array([[-1.0, 0.0], [0.0, -2.0]])) == 0.0
    assert g.conjugate(np.array([[1.0, 0.0], [0.0, -2.0]])) == np.inf


def test_log_barriers_have_no_cheap_conjugate():
    with pytest.raises(ConjugateUnavailable):
        LogBarrier(1.0, 0.5).conjugate(np.zeros(2))
    with pytest.raises(ConjugateUnavailable):
        Spectral(LogBarrier(1.0, 0.5), 2).conjugate(np.eye(2))


def test_fenchel_young_equality_at_prox_pairs():
    """G(p) + G*(y) = <p, y> when y = (x - p)/gamma is the dual of p."""
    rng = RngStream(13, 0)
    lo = np.array([-1.0, 0.0])
    hi = np.array([1.0, 2.0])
    free = BoxIndicator(-np.inf, np.inf)
    for g in (BoxIndicator(lo, hi), AbsoluteValue(0.7), free, LogBarrier(0.0, 0.5)):
        for _ in range(50):
            x = 3.0 * rng.standard_normal(2)
            gamma = float(10.0 ** (-1 + 2 * rng.uniform()))
            p = g.prox(gamma, x)
            y = dual_from_primal(gamma, x, g)
            gap = g.evaluate(p) + g.conjugate(y) - float(np.vdot(p, y))
            assert abs(gap) < 1e-10


def test_fenchel_young_for_psd_projection():
    rng = RngStream(14, 0)
    g = Spectral(LogBarrier(0.0, 0.0), 3)
    for _ in range(30):
        x = random_sym(rng, 3, scale=2.0)
        p = g.prox(1.0, x)
        y = dual_from_primal(1.0, x, g)
        assert g.conjugate(y) == 0.0  # y is NSD
        assert abs(float(np.vdot(p, y))) < 1e-10  # complementary slackness


# ---------------------------------------------------------------------------
# domains and subgradients
# ---------------------------------------------------------------------------

def test_box_domain_and_subgradient():
    g = BoxIndicator(np.array([-1.0]), np.array([1.0]))
    assert g.in_domain(np.array([0.3]))
    assert g.in_domain(np.array([1.0]))  # closed box
    assert not g.in_domain(np.array([1.0 + 1e-9]))
    assert np.array_equal(g.subgradient_min(np.array([0.3])), [0.0])
    with pytest.raises(ValueError):
        g.subgradient_min(np.array([1.0]))
    assert g.evaluate(np.array([0.5])) == 0.0
    assert g.evaluate(np.array([2.0])) == np.inf


def test_psd_domain_tolerance():
    g = Spectral(LogBarrier(0.0, 0.0), 2)
    assert g.in_domain(np.eye(2))
    assert g.in_domain(np.diag([1.0, -1e-12]))  # tiny negative eig tolerated
    assert not g.in_domain(np.diag([1.0, -1e-3]))
    assert np.array_equal(g.subgradient_min(np.eye(2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        g.subgradient_min(np.diag([1.0, 0.0]))


def test_psd_tolerance_scales_with_the_largest_eigenvalue():
    """Every closed spectral domain admits lambda_min >= -1e-10 max(1, max |lambda|).
    diag(1, 1, 1, -1.5e-10) is outside: its ||x||_F = 2 would have let it in."""
    g = Spectral(LogBarrier(0.0, 0.0), 4)
    outside, inside = np.diag([1.0, 1.0, 1.0, -1.5e-10]), np.diag([1.0, 1.0, 1.0, -0.9e-10])
    assert g.domain_mask(np.stack([outside, inside])).tolist() == [False, True]
    assert not g.in_domain(outside) and g.evaluate(outside) == np.inf
    assert g.in_domain(inside) and g.evaluate(inside) == 0.0


def test_domain_tolerances_of_huge_matrices_do_not_overflow():
    """The symmetry tolerance scales with ||x||_F, whose squared entries
    overflow here, and the PSD tolerance with max |lambda|: that of
    diag(1e200, .) is 1e190."""
    p = Spectral(LogBarrier(1.0, 0.0), 2).prox(0.1, np.array([[1e200, 1.0], [1.0 + 1e-12, 2.0]]))
    assert np.isfinite(p).all() and p[0, 0] == 1e200
    g = Spectral(LogBarrier(0.0, 0.0), 2)
    assert not g.in_domain(np.diag([1e200, -1e195]))
    assert g.in_domain(np.diag([1e200, -1e185]))


def test_log_barrier_domain_and_gradient():
    g = LogBarrier(1.5, 0.5)
    assert g.in_domain(np.array([0.2]))
    assert not g.in_domain(np.array([0.0]))
    assert not g.in_domain(np.array([-1.0]))
    x = np.array([2.0])
    assert np.allclose(g.subgradient_min(x), -1.5 / x + 0.5)
    with pytest.raises(ValueError):
        g.subgradient_min(np.array([0.0]))
    # alpha = 0 closes the domain at zero
    assert LogBarrier(0.0, 0.5).in_domain(np.array([0.0]))
    assert LogBarrier(0.0, 0.5).evaluate(np.array([3.0])) == pytest.approx(1.5)


def test_log_barrier_evaluate():
    g = LogBarrier(2.0, 0.5)
    x = np.array([1.0, 2.0])
    expected = -2.0 * np.log(x).sum() + 0.5 * x.sum()
    assert g.evaluate(x) == pytest.approx(expected)
    assert g.evaluate(np.array([-1.0, 1.0])) == np.inf


def test_spectral_log_barrier_matches_eigenvalue_sum():
    g = Spectral(LogBarrier(0.8, 0.5), 3)
    m = np.diag([1.0, 2.0, 4.0])
    expected = -0.8 * np.log([1.0, 2.0, 4.0]).sum() + 0.5 * 7.0
    assert g.evaluate(m) == pytest.approx(expected)
    assert g.evaluate(np.diag([1.0, -1.0, 2.0])) == np.inf
    grad = g.subgradient_min(m)
    assert np.allclose(grad, -0.8 * np.diag([1.0, 0.5, 0.25]) + 0.5 * np.eye(3))


# ---------------------------------------------------------------------------
# domain checks over stacks
# ---------------------------------------------------------------------------

def _reference_in_domain(g, x):
    """The per-point domain rule each potential used to state on its own:
    one eigendecomposition per matrix and a Python bool per point."""
    if isinstance(g, BoxIndicator):
        return bool(np.all(x >= g.lo) and np.all(x <= g.hi))
    if isinstance(g, LogBarrier):
        return bool(np.all(x > 0)) if g.alpha > 0 else bool(np.all(x >= 0))
    if isinstance(g, Spectral):
        if not np.isfinite(x).all():
            return False
        w = sym_eigendecomposition(x).eigenvalues
        if g.scalar.alpha > 0:
            return bool(w[0] > 0)
        tol = 1e-10 * max(1.0, float(np.abs(w).max(initial=1.0)))
        return bool(w[0] >= -tol)
    return True


def _flat_domain_cases(n, seed):
    """Random points plus the boundary: box faces and just past them, zeros,
    -0.0 and a point just below zero."""
    lo, hi = np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0])
    rng = RngStream(seed, 0)
    special = [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
               np.zeros(n), np.full(n, -0.0), np.full(n, -5e-324), np.array([0.0, 1.0, 2.0])]
    return np.stack([p[:n] for p in special] + list(2.0 * rng.standard_normal((12, n))))


def _matrix_domain_cases(d, seed):
    """Random and rotated spectra plus diagonal ones pinned to the boundary:
    eigenvalues -1e-12 and -1e-3, a -0.0 or 0.0 eigenvalue, and one just
    inside and just outside the PSD tolerance."""
    rng = RngStream(seed, 0)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cases = [random_sym(rng, d, scale=3.0) for _ in range(6)]
    for low in (-1e-12, -1e-3, -0.0, 0.0, 1e-3, -1e-10, -1.0000001e-10, -2e-10):
        spectrum = np.linspace(low, 2.0, d) if d > 1 else np.array([low])
        spectrum[0] = low
        cases.append(np.diag(spectrum))
        m = (q * spectrum) @ q.T
        cases.append((m + m.T) / 2.0)
    return np.stack(cases)


def _assert_mask_matches_reference(g, stack):
    mask = g.domain_mask(stack)
    assert mask.dtype == bool and mask.shape == (len(stack),)
    assert mask.tolist() == [_reference_in_domain(g, x) for x in stack]
    assert [g.in_domain(x) for x in stack] == mask.tolist()


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_domain_mask_matches_per_point_rule_across_catalog(seed):
    for g, shape in catalog():
        if isinstance(shape, tuple):
            stack = _matrix_domain_cases(shape[0], seed)
        else:
            stack = _flat_domain_cases(shape, seed)
        _assert_mask_matches_reference(g, stack)


@given(st.sampled_from([1, 2, 5, 10]), st.integers(min_value=0, max_value=2**32 - 1))
def test_spectral_domain_mask_matches_per_point_rule(d, seed):
    stack = _matrix_domain_cases(d, seed)
    for g in (Spectral(LogBarrier(0.0, 0.0), d), Spectral(LogBarrier(0.8, 0.5), d),
              Spectral(LogBarrier(0.0, 0.5), d),
              Spectral(LogBarrier(1.3, 0.0), d)):
        _assert_mask_matches_reference(g, stack)


def test_spectral_domain_mask_spans_blocks():
    """A stack longer than one eigendecomposition block gives the same flags
    as per-point checks, and an empty stack gives none."""
    stack = np.concatenate([_matrix_domain_cases(2, s) for s in range(50)])
    assert len(stack) > 2 * 512
    for g in (Spectral(LogBarrier(0.0, 0.0), 2), Spectral(LogBarrier(0.8, 0.5), 2)):
        _assert_mask_matches_reference(g, stack)
        assert g.domain_mask(stack[:0]).shape == (0,)


def _feasible_stack(rng, k, d):
    """k random rotations of spectra drawn from [1, 3], exactly symmetric."""
    q, _ = np.linalg.qr(rng.standard_normal((k, d, d)))
    m = (q * (1.0 + 2.0 * rng.uniform((k, 1, d)))) @ q.mT
    return (m + m.mT) / 2.0


def _lowest_eigenvalue(low, rest):
    """lambda_min for a spectrum whose other eigenvalues are rest: a fixed
    value, or f times the certificate's shift m ||x||_F, which solves
    lambda = f m sqrt(lambda^2 + |rest|^2)."""
    kind, value = low
    if kind == "value":
        return value
    fm = value * potentials._CHOL_MARGIN
    return fm * np.sqrt(np.sum(rest**2) / (1.0 - fm * fm))


@settings(max_examples=25)
@given(
    st.sampled_from([1, 2, 5, 10]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([None, ("margin", 0.5), ("margin", 1.0), ("margin", 2.0),
                     ("value", 1e-300), ("value", 5e-324)]),
    st.sampled_from([24, 1300]),
)
def test_certified_domain_mask_matches_per_point_rule(d, seed, low, length):
    """Strictly feasible stacks that the Cholesky certificate passes block by
    block, with one boundary spectrum (unless low is None) in the middle
    block: lambda_min at 0.5, 1 or 2 times the certificate's shift, at 1e-300
    or at a denormal, once diagonal and once rotated.  The flags equal the
    per-point eigh rule."""
    rng = RngStream(seed, 0)
    stack = _feasible_stack(rng, length, d)
    assert all(potentials._cholesky_certifies(stack[i : i + 512]) for i in range(0, length, 512))
    at = length // 2
    if low is not None:
        rest = 1.0 + 2.0 * rng.uniform(d - 1)
        spectrum = np.concatenate([[_lowest_eigenvalue(low, rest)], rest])
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        rotated = (q * spectrum) @ q.T
        stack[at] = np.diag(spectrum)
        stack[at + 1] = (rotated + rotated.T) / 2.0
        if d > 1 and low in (("margin", 0.5), ("margin", 2.0)):
            assert potentials._cholesky_certifies(stack[at : at + 1]) == (low[1] == 2.0)
    for g in (Spectral(LogBarrier(0.0, 0.0), d), Spectral(LogBarrier(0.8, 0.5), d),
              Spectral(LogBarrier(0.0, 0.5), d)):
        mask = g.domain_mask(stack)
        assert mask.tolist() == [_reference_in_domain(g, x) for x in stack]
        assert [g.in_domain(x) for x in stack[at : at + 2]] == mask[at : at + 2].tolist()


def test_feasible_trace_needs_no_eigendecomposition(monkeypatch):
    """A strictly feasible PSGLA trace is certified without an eigensolve;
    one boundary matrix costs its block exactly one."""
    calls = []

    def counting(m):
        calls.append(len(m))
        return sym_eigendecomposition(m)

    monkeypatch.setattr(potentials, "sym_eigendecomposition", counting)
    data = RngStream(23, 0).standard_normal((20, 3))
    asm = assemble_experiment(WishartExperimentSpec("precision", d=3, nu=5.0, data=data))
    cfg = SamplerConfig(gamma=0.02, num_steps=1200, seed=23)
    trace = run_chain("psgla", asm.smooth, asm.nonsmooth, cfg, asm.default_x0(cfg.gamma))
    assert asm.nonsmooth.domain_mask(trace.primal).all() and calls == []

    stack = trace.primal.copy()
    stack[700] = np.diag([0.0, 1.0, 2.0])
    mask = asm.nonsmooth.domain_mask(stack)
    assert calls == [512]  # the middle block only
    assert mask.tolist() == [i != 700 for i in range(1200)]


def test_certificate_leaves_bad_stacks_to_the_eigendecomposition():
    """The certificate reads one triangle only, so an asymmetric stack still
    fails the eigendecomposition's symmetry check; a stack of non-square
    matrices gets its shape error and a stack of one 1 x 1 matrix its flag;
    tiny and huge matrices are not certified and get the per-point flags;
    non-finite ones are not certified either and are outside the domain,
    since eigh can fail on them or rank a NaN eigenvalue above the lowest."""
    g = Spectral(LogBarrier(0.8, 0.5), 3)
    upper = np.eye(3)
    upper[0, 2] = 5.0
    with pytest.raises(ValueError, match="not symmetric"):
        g.domain_mask(np.stack([np.eye(3), upper]))
    with pytest.raises(ValueError, match="expected a square matrix"):
        Spectral(LogBarrier(0.0, 0.0), 3).domain_mask(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError, match="expected a square matrix"):
        Spectral(LogBarrier(0.0, 0.0), 1).domain_mask(np.array([[2.0], [-1.0]]))
    scalar = Spectral(LogBarrier(0.0, 0.0), 1)
    assert scalar.in_domain(np.array([2.0])) and not scalar.in_domain(np.array([-2.0]))
    for scale in (1e-200, 1e-160, 1e160, 1e200):
        assert not potentials._cholesky_certifies(scale * np.eye(3)[None])
        _assert_mask_matches_reference(g, np.stack([scale * np.eye(3), np.eye(3)]))
    for bad, at in itertools.product((np.nan, np.inf, -np.inf), ((1, 1), (0, 2))):
        x = np.eye(3)
        x[at] = x[at[::-1]] = bad
        stack = np.stack([np.eye(3), x])
        assert not potentials._cholesky_certifies(stack)
        _assert_mask_matches_reference(g, stack)
        for lift in (g, Spectral(LogBarrier(0.0, 0.0), 3), Spectral(LogBarrier(0.0, 0.5), 3)):
            assert lift.domain_mask(stack).tolist() == [True, False]
            assert feasibility_fraction(np.stack([x, x, x]), lift) == 0.0


def test_spectral_lifts_on_a_matrix_with_a_non_finite_entry():
    """Such a matrix is outside every spectral domain: evaluate gives inf,
    subgradient_min and conjugate name the bad input, and the prox does so
    when the eigensolve fails on it (an off-diagonal entry) instead of
    raising EigenFailure; on the diagonal the prox maps it to a non-finite
    matrix, which the kernel reports as a divergence."""
    lifts = (Spectral(LogBarrier(0.8, 0.5), 3), Spectral(LogBarrier(0.0, 0.0), 3),
             Spectral(LogBarrier(0.0, 0.5), 3))
    for bad, at in itertools.product((np.nan, np.inf, -np.inf), ((0, 2), (1, 1))):
        x = np.eye(3)
        x[at] = x[at[::-1]] = bad
        for g in lifts:
            assert g.evaluate(x) == np.inf
            for method in ("subgradient_min", "conjugate"):
                with pytest.raises(ValueError, match=f"^{method} needs a finite matrix"):
                    getattr(g, method)(x)
            if at == (0, 2):
                with pytest.raises(ValueError, match="non-finite entry"):
                    g.prox(0.5, x)
            else:
                with np.errstate(invalid="ignore"):
                    assert not np.isfinite(g.prox(0.5, x)).all()


def test_certificate_is_not_tried_after_an_infeasible_matrix(monkeypatch):
    """A block whose preceding matrix is outside the domain goes straight to
    the eigensolve: a trace that has left the cone pays for one failed
    factorization, not one per block."""
    tried = []
    certifies = potentials._cholesky_certifies

    def counting(block):
        tried.append(len(block))
        return certifies(block)

    monkeypatch.setattr(potentials, "_cholesky_certifies", counting)
    g = Spectral(LogBarrier(0.8, 0.5), 3)
    stack = np.tile(np.eye(3), (1300, 1, 1))
    stack[:600] = -np.eye(3)
    assert g.domain_mask(stack).tolist() == [i >= 600 for i in range(1300)]
    assert tried == [512, 276]  # blocks 0 and 2; block 1 follows matrix 511, outside
    tried.clear()
    stack[600:] = -np.eye(3)
    assert not g.domain_mask(stack).any()
    assert tried == [512]


@given(
    st.sampled_from([0.0, 0.7, 3.0]),
    st.floats(min_value=1e-4, max_value=10.0),
    arrays(np.float64, _barrier_shapes,
           elements=st.one_of(st.floats(min_value=-1e300, max_value=1e300), _special_entries)),
)
def test_absolute_value_keeps_its_closed_forms_bitwise(w, gamma, x):
    """On every entry the soft threshold sign(x) max(|x| - gamma w, 0), the
    value w sum |x| and the subgradient w sign(x), bit for bit on points and
    stacks of any shape, -0.0 and NaN included."""
    g = AbsoluteValue(w)
    prox = np.sign(x) * np.maximum(np.abs(x) - gamma * w, 0.0)
    for out, ref in ((g.prox(gamma, x), prox), (g.prox_batch(gamma, x), prox),
                     (g.subgradient_min(x), w * np.sign(x))):
        assert out.shape == x.shape and out.tobytes() == np.asarray(ref).tobytes()
    value = g.evaluate(x)
    assert type(value) is float
    assert np.float64(value).tobytes() == np.float64(w * np.sum(np.abs(x))).tobytes()


def test_absolute_value_prox_and_subgradient():
    g = AbsoluteValue(2.0)
    x = np.array([5.0, -1.0, 0.5])
    assert np.allclose(g.prox(1.0, x), [3.0, 0.0, 0.0])
    assert np.array_equal(g.subgradient_min(np.array([3.0, -2.0, 0.0])), [2.0, -2.0, 0.0])
    assert g.evaluate(x) == pytest.approx(2.0 * 6.5)
    assert g.in_domain(x)


# ---------------------------------------------------------------------------
# Moreau-Yosida gradient
# ---------------------------------------------------------------------------

def test_moreau_gradient_of_box():
    g = BoxIndicator(np.array([-1.0]), np.array([1.0]))
    x = np.array([3.0])
    assert np.allclose(dual_from_primal(0.5, x, g), (x - 1.0) / 0.5)
    assert np.array_equal(dual_from_primal(0.5, np.array([0.2]), g), [0.0])


@given(
    st.lists(finite_floats, min_size=2, max_size=2),
    st.lists(finite_floats, min_size=2, max_size=2),
    pos_gammas,
)
def test_moreau_gradient_is_lipschitz(xs, ys, lam):
    g = AbsoluteValue(1.0)
    a, b = np.array(xs), np.array(ys)
    ga, gb = dual_from_primal(lam, a, g), dual_from_primal(lam, b, g)
    assert norm(ga - gb) <= (1.0 / lam) * norm(a - b) + 1e-9


# ---------------------------------------------------------------------------
# smooth potentials
# ---------------------------------------------------------------------------

def test_zero_smooth():
    f = ZeroSmooth()
    assert f.L == 0.0 and f.lambda_f == 0.0
    assert f.evaluate(np.ones(3)) == 0.0
    assert np.array_equal(f.full_gradient(np.ones(3)), np.zeros(3))


def test_quadratic_validation_and_constants():
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        Quadratic(np.array([[-1.0]]), np.zeros(1))
    with pytest.raises(ValueError, match=r"c has shape \(2,\), but H is 3 x 3"):
        Quadratic(np.eye(3), np.zeros(2))
    # non-finite H or c: checked first, before the symmetry and PSD checks
    for h, c in (([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]),
                 ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0]),
                 ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0])):
        with pytest.raises(ValueError, match="Quadratic H and c must be finite"):
            Quadratic(np.array(h), np.array(c))
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = Quadratic(h, np.array([1.0, -1.0]))
    w = np.linalg.eigvalsh(h)
    assert f.L == pytest.approx(w[-1])
    assert f.lambda_f == pytest.approx(w[0])


def test_quadratic_gradient_matches_finite_differences():
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = Quadratic(h, np.array([1.0, -1.0]))
    x = np.array([0.3, 0.7])
    g = f.full_gradient(x)
    eps = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd = (f.evaluate(x + e) - f.evaluate(x - e)) / (2 * eps)
        assert g[i] == pytest.approx(fd, abs=1e-6)


def test_quadratic_sum_gradients():
    data = RngStream(17, 0).standard_normal((6, 3))
    f = QuadraticSum(data)
    assert f.L == 6.0 and f.lambda_f == 6.0
    x = np.array([0.5, -0.2, 1.0])
    assert np.allclose(f.full_gradient(x), 6.0 * x - data.sum(axis=0))
    direct = 0.5 * sum(float(np.dot(x - row, x - row)) for row in data)
    assert f.evaluate(x) == pytest.approx(direct)
    batch = f.full_gradient(np.stack([x, 2 * x]))
    assert np.allclose(batch[0], f.full_gradient(x))


def test_quadratic_sum_stochastic_gradient_is_unbiased():
    data = RngStream(18, 0).standard_normal((5, 2))
    f = QuadraticSum(data)
    x = np.array([0.4, -0.6])
    rng = RngStream(18, 1)
    draws = np.stack([f.stochastic_gradient(x, rng, minibatch=1) for _ in range(4000)])
    se = draws.std(axis=0) / np.sqrt(4000)
    assert np.all(np.abs(draws.mean(axis=0) - f.full_gradient(x)) < 5 * se + 1e-9)


def test_quadratic_sum_gradient_variance():
    """sigma^2 of n (x - D_I) is n^2 mean_i ||D_i - mean(D)||^2 / b, whatever x."""
    data = RngStream(19, 0).standard_normal((5, 2))
    f = QuadraticSum(data)
    exact = 25.0 * np.mean(np.sum((data - data.mean(axis=0)) ** 2, axis=1))
    assert f.gradient_variance(1) == pytest.approx(exact, rel=1e-12)
    assert f.gradient_variance(5) == pytest.approx(exact / 5, rel=1e-12)
    assert f.gradient_variance("full") == 0.0


def test_precision_likelihood_flat_and_matrix():
    data = np.array([[1.0], [2.0]])
    f = PrecisionLikelihood(data, 1)
    assert f.L == 0.0 and f.lambda_f == 0.0
    assert np.allclose(f.full_gradient(np.array([0.7])), [2.5])  # (1 + 4)/2
    assert f.evaluate(np.array([2.0])) == pytest.approx(5.0)

    data2 = RngStream(20, 0).standard_normal((4, 3))
    f2 = PrecisionLikelihood(data2, 3)
    scatter = data2.T @ data2
    x = np.eye(3)
    assert np.allclose(f2.full_gradient(x), scatter / 2.0)
    assert f2.evaluate(2.0 * x) == pytest.approx(2.0 * f2.evaluate(x))
    # gradient is constant in x and safe against caller mutation
    g = f2.full_gradient(x)
    g += 1.0
    assert np.allclose(f2.full_gradient(x), scatter / 2.0)


def test_precision_likelihood_stochastic_gradient():
    data = RngStream(21, 0).standard_normal((6, 2))
    f = PrecisionLikelihood(data, 2)
    rng = RngStream(21, 1)
    draws = np.stack(
        [f.stochastic_gradient(np.eye(2), rng, minibatch=1) for _ in range(4000)]
    )
    err = np.abs(draws.mean(axis=0) - f.full_gradient(np.eye(2)))
    assert np.max(err) < 0.1
    est = 6.0 * np.einsum("ni,nj->nij", data, data) / 2.0  # the single-index estimates
    exact = np.mean(np.sum((est - est.mean(axis=0)) ** 2, axis=(1, 2)))
    assert f.gradient_variance(1) == pytest.approx(exact, rel=1e-12)


def test_precision_likelihood_validates_dimensions():
    with pytest.raises(ValueError):
        PrecisionLikelihood(np.zeros((3, 2)), 3)


@pytest.mark.parametrize("build, name", [
    (lambda: QuadraticSum(np.array([[0.5, 1.0], [np.nan, 2.0]])), "QuadraticSum"),
    (lambda: PrecisionLikelihood(np.array([[0.5, 1.0], [1.0, -np.inf]]), 2), "PrecisionLikelihood"),
], ids=["quadratic-sum", "precision-likelihood"])
def test_smooth_terms_reject_non_finite_data(build, name):
    with pytest.raises(ValueError, match=f"^{name} data must be finite"):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: QuadraticSum(np.array([[1e300], [1e300]])), "QuadraticSum"),
    (lambda: PrecisionLikelihood(np.array([[1e200]]), 1), "PrecisionLikelihood"),
    (lambda: PrecisionLikelihood(np.full((2, 3), 1e154), 3), "PrecisionLikelihood"),
    # 2 D^2 = 1.4e308 keeps the scatter finite, the row's 3 D^2 is not
    (lambda: PrecisionLikelihood(np.full((1, 3), 8.5e153), 3), "PrecisionLikelihood"),
], ids=["square-norm", "scatter", "summed-scatter", "datum-square-norm"])
def test_finite_sums_reject_data_whose_sums_overflow(build, name):
    """Finite data whose precomputed sums overflow used to warn and leave an
    infinite gradient; the suite turns a warning into an error, so the check
    is silent too."""
    with pytest.raises(ValueError, match=f"^{name} data overflow"):
        build()


@pytest.mark.parametrize("f", [
    PrecisionLikelihood(np.array([[1e80, 1e80, 1e80], [1e79, 0.0, 0.0]]), 3),
    QuadraticSum(np.array([[-9e153], [9e153]])),
], ids=["two-data", "quadratic-sum-far-apart"])
def test_gradient_variance_that_overflows_is_a_value_error(f):
    """Finite data whose single-index estimates spread wider than a float's
    square root: the variance would overflow and reach a report's
    sigma_f_sq and C estimate as inf or NaN."""
    name = type(f).__name__
    with pytest.raises(ValueError, match=f"^{name} gradient variance is not finite"):
        f.gradient_variance(1)


@pytest.mark.parametrize("f", [
    PrecisionLikelihood(np.full((1, 3), 2.6e153), 3),
    QuadraticSum(np.array([[0.5]])),  # trunc-gauss's F
], ids=["precision-likelihood", "quadratic-sum"])
def test_gradient_variance_of_one_datum_is_zero(f):
    """One datum: every draw is the full gradient.  The precision estimate's
    entries square past a float's range, and the two-pass form still gives 0."""
    assert f.gradient_variance(1) == 0.0


def test_gradient_variance_of_identical_rows_is_not_negative():
    """Seven equal data rows: the one-pass mean(g^2) - mean(g)^2 read
    -2.27e-13 here, and a report took it as sigma_f_sq into its C estimate."""
    v = PrecisionLikelihood(np.full((7, 1), 3.3), 1).gradient_variance(1)
    assert 0.0 <= v <= 1e-12


@pytest.mark.parametrize("b", [0, -2, 2.7, True, "half"])
def test_gradient_variance_needs_a_batch_size_of_at_least_one(b):
    """A negative b gave a negative sigma^2, 2.7 and True passed as 2.7 and 1,
    and 0 divided by zero."""
    with pytest.raises(ValueError, match="^minibatch must be"):
        QuadraticSum(np.array([[0.0], [1.0]])).gradient_variance(b)


def test_gradient_variance_of_a_large_precision_sum_holds_one_block_in_memory():
    """n = 20000 rows at d = 20: the n x d x d stack of estimates alone is 61 MiB."""
    f = PrecisionLikelihood(RngStream(27, 0).standard_normal((20000, 20)), 20)
    tracemalloc.start()
    try:
        v = f.gradient_variance(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.isfinite(v) and v > 0


@pytest.mark.parametrize("b", [1, 5])
@pytest.mark.parametrize("f", [
    QuadraticSum(RngStream(25, 0).standard_normal((6, 2))),
    PrecisionLikelihood(RngStream(25, 1).standard_normal((6, 1)), 1),
    PrecisionLikelihood(RngStream(25, 2).standard_normal((6, 3)), 3),
], ids=["quadratic-sum", "precision-d1", "precision-d3"])
def test_gradient_variance_is_the_monte_carlo_variance_of_stochastic_gradient(f, b):
    """sigma^2 is E||g - grad F(x)||^2 of the b-index estimate g that the
    reference stochastic_gradient draws: within 5 SE of 4000 draws' mean."""
    x = np.full(f.point_shape, 0.7) if len(f.point_shape) == 1 else np.eye(3)
    rng = RngStream(26, b)
    grad = f.full_gradient(x)
    sq = np.array([np.sum((f.stochastic_gradient(x, rng, b) - grad) ** 2) for _ in range(4000)])
    assert abs(sq.mean() - f.gradient_variance(b)) < 5 * sq.std() / np.sqrt(4000)


@pytest.mark.parametrize("build, name", [
    (lambda data: QuadraticSum(data), "QuadraticSum"),
    (lambda data: PrecisionLikelihood(data, 2), "PrecisionLikelihood"),
], ids=["quadratic-sum", "precision-likelihood"])
def test_finite_sums_need_a_data_point(build, name):
    with pytest.raises(ValueError, match=f"^{name} needs at least one data point$"):
        build(np.zeros((0, 2)))


@given(
    arrays(np.float64, st.integers(1, 6), elements=st.floats(-1e100, 1e100)),  # finite scatter
    st.floats(allow_nan=True, allow_infinity=True),
)
def test_scalar_precision_likelihood_keeps_its_closed_forms(data, x):
    """At d = 1 the matrix formulas give the old closed forms scatter[0, 0] * x[0] / 2
    and [scatter[0, 0] / 2] bit for bit, but for the sign of a zero value: vdot's
    sum turns a zero product of either sign into +0.0."""
    f = PrecisionLikelihood(data[:, None], 1)
    s = f.scatter[0, 0]
    with np.errstate(all="ignore"):  # the closed form warns where it overflows
        closed = s * np.float64(x) / 2.0
    value = f.evaluate(np.array([x]))
    assert np.float64(value).tobytes() == closed.tobytes() or value == closed == 0.0
    assert f.full_gradient(np.array([x])).tobytes() == np.array([s / 2.0]).tobytes()


def test_minibatch_gradients_equal_the_mean_formula():
    """The minibatch estimators are bitwise the np.mean formulas, for the same
    draws, for minibatches summed one by one, in unrolled blocks and
    pairwise (b < 8, <= 128 and > 128)."""
    data = RngStream(24, 0).standard_normal((9, 3))
    x = np.array([0.4, -0.6, 1.1])
    f, f1 = QuadraticSum(data), PrecisionLikelihood(data[:, :1], 1)
    for seed in range(20):
        rng, ref = RngStream(seed, 1), RngStream(seed, 1)
        for b in (1, 5, 7, 9, 130, 300):
            rows = data[ref.integers(9, size=b)]
            assert np.array_equal(f.stochastic_gradient(x, rng, b), 9 * (x - rows.mean(axis=0)))
            rows = data[ref.integers(9, size=b), :1]
            expected = np.array([9 * np.mean(rows[:, 0] ** 2) / 2.0])
            assert np.array_equal(f1.stochastic_gradient(x[:1], rng, b), expected)


@given(
    st.sampled_from([
        ("sum", 1, 1), ("sum", 1, 7), ("sum", 1, 8), ("sum", 1, 9), ("sum", 1, 16),
        ("sum", 1, 130), ("sum", 3, 1), ("sum", 3, 7), ("sum", 3, 8), ("sum", 3, 9),
        ("sum", 3, 16), ("sum", 3, 130), ("precision", 1, 8), ("precision", 1, 9),
        ("precision", 1, 130), ("precision", 2, 1), ("precision", 2, 9), ("precision", 3, 7),
        ("precision", 3, 16),
    ]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacked_minibatch_means_equal_the_per_call_gradient_bitwise(case, seed):
    """The kernel takes a FiniteSum's x-free minibatch mean once over a
    (steps, chains, b) index block and combines it with each step's stack;
    that equals stochastic_gradient drawing the same indices one call at a
    time, bit for bit: sums of b rows summed one by one, in unrolled blocks
    and pairwise (b < 8, <= 128 and > 128), and the stacked d > 1 scatter
    matmul against the 2-d one."""
    kind, d, b = case
    rng = RngStream(seed, 0)
    data = rng.standard_normal((11, d))
    f = QuadraticSum(data) if kind == "sum" else PrecisionLikelihood(data, d)
    shape = f.point_shape
    steps, chains = 4, 3
    xs = rng.standard_normal((steps, chains) + shape)
    xs = (xs + np.swapaxes(xs, -1, -2)) / 2.0 if len(shape) == 2 else xs
    streams = [RngStream(seed, 1 + c) for c in range(chains)]
    idx = np.stack([[g.integers(11, size=b) for g in streams] for _ in range(steps)])
    stacked = f._minibatch_combine(xs, f._minibatch_mean(idx, b))
    replay = [RngStream(seed, 1 + c) for c in range(chains)]
    for j in range(steps):
        for c, g in enumerate(replay):
            one = f.stochastic_gradient(xs[j, c], g, b)
            assert one.shape == shape
            assert one.tobytes() == stacked[j, c].tobytes()


def _smooth_catalog(d, rng):
    """Every smooth potential with a d-dimensional point, and that point's shape."""
    b = rng.standard_normal((d, d))
    data = rng.standard_normal((7, d))
    out = [
        (ZeroSmooth(), (d,)),
        (Quadratic(b @ b.T, rng.standard_normal(d)), (d,)),
        (QuadraticSum(data), (d,)),
        (PrecisionLikelihood(data, d), (1,) if d == 1 else (d, d)),
    ]
    if d > 1:
        out.append((ZeroSmooth(), (d, d)))
    return out


@given(
    st.sampled_from([1, 2, 3, 5, 10]),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_gradient_batch_rows_equal_single_gradients_bitwise(d, n, seed):
    """Chain c of an ensemble sees exactly the gradient the chain run alone
    sees: full_gradient(xs)[c] == full_gradient(xs[c]), bit for bit,
    whatever the batch size."""
    rng = RngStream(seed, d)
    for f, shape in _smooth_catalog(d, rng):
        xs = rng.standard_normal((n,) + shape) * 10.0 ** (6.0 * rng.uniform() - 3.0)
        if len(shape) == 2:
            xs = (xs + np.swapaxes(xs, -1, -2)) / 2.0
        batch = f.full_gradient(xs)
        for c in range(n):
            assert np.array_equal(batch[c], f.full_gradient(xs[c])), type(f).__name__


# ---------------------------------------------------------------------------
# experiment builders
# ---------------------------------------------------------------------------

def test_build_gamma_potential_shapes_and_weights():
    g1 = build_gamma_potential(nu=5.0, n=50, d=1)
    assert isinstance(g1, LogBarrier)
    assert g1.alpha == pytest.approx((55 - 2) / 2.0)
    assert g1.beta == 0.5

    g3 = build_gamma_potential(nu=6.0, n=10, d=3)
    assert type(g3) is Spectral and g3.point_shape == (3, 3)
    assert g3.scalar.alpha == pytest.approx(6.0)
    assert g3.scalar.beta == 0.5

    with pytest.raises(ValueError):
        build_gamma_potential(nu=0.5, n=0, d=2)
