import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from proxlmc import (
    BoxIndicator,
    LogBarrier,
    PrecisionLikelihood,
    QuadraticSum,
    RngStream,
    Spectral,
    TruncGaussSpec,
    WishartExperimentSpec,
    assemble_experiment,
    gamma_posterior_quantile,
    gamma_quantile,
    generate_gaussian_data,
    posterior_ground_truth,
    sample_wishart,
    trunc_gauss_quantile,
)
from proxlmc.experiments import _MAXLOG, _bisect, _erf


# ---------------------------------------------------------------------------
# experiment specs
# ---------------------------------------------------------------------------

def test_trunc_gauss_spec_defaults_and_validation():
    spec = TruncGaussSpec()
    assert (spec.mean, spec.lo, spec.hi) == (0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        TruncGaussSpec(mean=0.0, lo=1.0, hi=-1.0)


@pytest.mark.parametrize("field, value", [
    ("mean", np.nan), ("mean", np.inf), ("lo", -np.inf), ("lo", np.nan),
    ("hi", np.inf), ("hi", np.nan),
])
def test_trunc_gauss_spec_rejects_non_finite_parameters(field, value):
    """A NaN mean would give NaN quantiles and lo = -inf a quantile of -inf."""
    with pytest.raises(ValueError, match="finite"):
        TruncGaussSpec(**{field: value})


def test_trunc_gauss_spec_rejects_a_box_of_too_little_mass():
    """Below a Gaussian mass of 1e-6 the erf-based quantile is off: on
    [10, 11] its median would be 10.0000000000005 where the law's is 10.068."""
    for lo, hi in [(10.0, 11.0), (6.0, 7.0), (-7.0, -6.0), (-11.0, -10.0)]:
        with pytest.raises(ValueError, match="mass"):
            TruncGaussSpec(mean=0.0, lo=lo, hi=hi)
    with pytest.raises(ValueError, match="mass"):
        TruncGaussSpec(mean=-3.0, lo=2.0, hi=3.0)  # mass 2.9e-7 around mean -3
    TruncGaussSpec(mean=10.0, lo=10.0, hi=11.0)  # the same box around its own mean


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-1.5, 0.5), (0.0, 40.0), (3.0, 100.0),
                                    (4.0, 5.0), (4.7, 40.0)])
def test_trunc_gauss_quantile_matches_scipy(lo, hi):
    u = (np.arange(4096) + 0.5) / 4096
    q = trunc_gauss_quantile(TruncGaussSpec(mean=0.0, lo=lo, hi=hi), u)
    assert np.max(np.abs(q - stats.truncnorm(lo, hi).ppf(u))) <= 1e-7


@pytest.mark.parametrize("hi", [1e6, 1e50, 1e300])
def test_trunc_gauss_quantile_converges_on_a_wide_box(hi):
    """A half-line is written hi = 1e300 in a JSON config.  From a bracket
    wider than 2^200 * 1e-12 the 200 halvings the bisection used to stop at
    fell short, and every level of [0, 1e300] read 3.11e239."""
    levels = np.array([0.1, 0.5, 0.9])
    q = trunc_gauss_quantile(TruncGaussSpec(mean=0.5, lo=0.0, hi=hi), levels)
    assert np.max(np.abs(q - stats.truncnorm(-0.5, hi - 0.5, loc=0.5).ppf(levels))) <= 1e-9


@pytest.mark.parametrize("mean, lo, hi", [(-1e308, -1e308, 1e308), (1e308, -1e308, 1e308)])
def test_trunc_gauss_spec_rejects_a_box_offset_that_overflows(mean, lo, hi):
    """hi - mean = 2e308 is not a float: the quantile used to return inf."""
    with pytest.raises(ValueError, match="overflows a float"):
        TruncGaussSpec(mean=mean, lo=lo, hi=hi)


def test_quantiles_of_no_levels_are_empty():
    assert trunc_gauss_quantile(TruncGaussSpec(), []).shape == (0,)
    assert gamma_quantile(2.0, 1.0, np.empty((2, 0))).shape == (2, 0)


# ---------------------------------------------------------------------------
# erf: the Cephes port against scipy, bit for bit
# ---------------------------------------------------------------------------

def _assert_erf_bitwise(x):
    x = np.asarray(x, dtype=float)
    ours, ref = _erf(x), special.erf(x)
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref)), "the sign of a zero differs"


def test_erf_matches_scipy_bitwise_on_a_million_points():
    rng = RngStream(25, 0)
    for scale in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e3):
        _assert_erf_bitwise(scale * rng.standard_normal(125_000))


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_erf_matches_scipy_bitwise_on_any_finite_float(x):
    _assert_erf_bitwise(x)


def test_erf_matches_scipy_bitwise_at_its_edges():
    """The branch points |x| = 1 and 8, the underflow edge sqrt(MAXLOG), the
    signed zeros, subnormals, infinities and NaN, each with its neighbours."""
    edges = [0.0, 1.0, 8.0, math.sqrt(_MAXLOG), 1e308, np.inf, 5e-324]
    edges += list(np.linspace(26.5, 27.5, 101))
    x = np.array(edges + [-e for e in edges])
    _assert_erf_bitwise(np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf),
                                        [np.nan]]))
    for v in (0.0, -0.0, 0.5, -2.0, 30.0, np.nan):  # 0-d arrays, through either branch
        _assert_erf_bitwise(v)


def test_wishart_spec_validation():
    data = np.zeros((3, 2))
    with pytest.raises(ValueError):
        WishartExperimentSpec(kind="posterior", d=2, nu=4.0, data=data)
    with pytest.raises(ValueError):
        WishartExperimentSpec(kind="precision", d=2, nu=1.0, data=data)  # nu <= d-1
    with pytest.raises(ValueError):
        WishartExperimentSpec(kind="mean-1d", d=2, nu=4.0, data=data)
    with pytest.raises(ValueError):
        WishartExperimentSpec(kind="precision", d=3, nu=5.0, data=data)
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):  # not a (0, 0) experiment
        WishartExperimentSpec(kind="precision", d=0, nu=3.0, data=np.zeros((5, 0)))
    spec = WishartExperimentSpec(kind="precision", d=2, nu=4.0, data=data)
    assert spec.n == 3


def test_generate_gaussian_data():
    d1 = generate_gaussian_data(5, 3, RngStream(1, 0))
    d2 = generate_gaussian_data(5, 3, RngStream(1, 0))
    assert d1.shape == (5, 3)
    assert np.array_equal(d1, d2)
    assert generate_gaussian_data(5, 0, RngStream(1, 0)).shape == (5, 0)
    with pytest.raises(ValueError, match="n = 0"):
        generate_gaussian_data(0, 3, RngStream(1, 0))
    with pytest.raises(ValueError, match="d = -1"):
        generate_gaussian_data(5, -1, RngStream(1, 0))


# ---------------------------------------------------------------------------
# conjugate ground truth
# ---------------------------------------------------------------------------

def test_posterior_ground_truth_hand_example():
    # one observation (1, 0): scatter picks out the first coordinate
    spec = WishartExperimentSpec(kind="precision", d=2, nu=4.0, data=np.array([[1.0, 0.0]]))
    truth = posterior_ground_truth(spec)
    assert truth.nu_post == 5.0
    assert np.allclose(truth.v_post_inv, np.diag([2.0, 1.0]))
    assert np.allclose(truth.m_star, np.diag([2.5, 5.0]))


def test_posterior_ground_truth_scalar_formula():
    spec = WishartExperimentSpec(kind="precision", d=1, nu=5.0, data=np.array([[1.0]]))
    truth = posterior_ground_truth(spec)
    # m* = (n + nu) / (1 + sum D^2)
    assert truth.m_star[0, 0] == pytest.approx(6.0 / 2.0)


def test_posterior_ground_truth_requires_precision_kind():
    spec = WishartExperimentSpec(kind="mean-1d", d=1, nu=3.0, data=np.array([[1.0]]))
    with pytest.raises(ValueError):
        posterior_ground_truth(spec)


# ---------------------------------------------------------------------------
# quantile oracles
# ---------------------------------------------------------------------------

def test_gamma_quantile_known_value():
    # Gamma(1, 1) is Exp(1): median ln 2
    assert gamma_quantile(1.0, 1.0, 0.5) == pytest.approx(np.log(2.0), abs=1e-10)


def test_gamma_quantile_cdf_round_trip():
    rng = RngStream(2, 0)
    for _ in range(20):
        shape = 0.5 + 5.0 * rng.uniform()
        rate = 0.5 + 3.0 * rng.uniform()
        u = np.clip(rng.uniform(7), 1e-6, 1 - 1e-6)
        q = gamma_quantile(shape, rate, u)
        assert np.max(np.abs(special.gammainc(shape, rate * q) - u)) < 1e-8


def test_gamma_quantile_doubles_a_bracket_the_level_lies_above():
    """At shape 0.5 and rate 1 the first bracket end 17.57 has CDF 1 - 3.1e-9,
    below u = 1 - 1e-10, so the bracket doubles before the bisection.  Near
    u = 1 the quantile is ill-conditioned; only the CDF round trip is checked."""
    u = np.array([1.0 - 1e-10])
    assert special.gammainc(0.5, 0.5 + 10.0 * np.sqrt(0.5) + 10.0) < u[0]
    q = gamma_quantile(0.5, 1.0, u)
    assert q[0] > 0.5 + 10.0 * np.sqrt(0.5) + 10.0
    assert abs(special.gammainc(0.5, q[0]) - u[0]) <= 1e-8


def test_bisection_that_cannot_converge_is_a_value_error():
    """With atol = rtol = 0 the bracket stops at one ulp around 0.5 and never
    reaches width 0: the bisection gives up after its 1100 halvings."""
    calls = []
    with pytest.raises(ValueError, match="did not reach tolerance .* in 1100 halvings"):
        _bisect(lambda t: calls.append(t) or t, 0.5, 0.0, 1.0)
    assert len(calls) == 1100


@pytest.mark.parametrize("shape, rate", [
    (0.0, 1.0), (1.0, -1.0), (np.inf, 1.0), (2.0, np.inf), (np.nan, 1.0), (2.0, np.nan),
])
def test_gamma_quantile_rejects_bad_parameters(shape, rate):
    """A non-finite shape or rate has no Gamma law: a ValueError, not inf
    quantiles or a RuntimeWarning from the CDF."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite shape > 0 and rate > 0"):
            gamma_quantile(shape, rate, np.array([0.1, 0.5, 0.9]))


def test_gamma_quantile_validation():
    with pytest.raises(ValueError):
        gamma_quantile(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        gamma_quantile(1.0, 1.0, np.array([0.5, 1.0]))


@pytest.mark.parametrize("u", [np.nan, np.array([0.5, np.nan])], ids=["0-d", "in-a-stack"])
def test_quantiles_reject_nan_levels(u):
    """A NaN level has no quantile; the bisections would return a bracket end."""
    with pytest.raises(ValueError, match="quantile levels"):
        gamma_quantile(2.0, 1.0, u)
    with pytest.raises(ValueError, match="quantile levels"):
        trunc_gauss_quantile(TruncGaussSpec(), u)


def test_gamma_posterior_quantile_matches_parameters():
    data = np.array([[1.0], [2.0]])
    spec = WishartExperimentSpec(kind="precision", d=1, nu=5.0, data=data)
    u = np.array([0.2, 0.5, 0.9])
    direct = gamma_quantile((5.0 + 2) / 2.0, (1.0 + 5.0) / 2.0, u)
    assert np.allclose(gamma_posterior_quantile(spec, u), direct, atol=0)

    mean_spec = WishartExperimentSpec(kind="mean-1d", d=1, nu=3.0, data=data)
    with pytest.raises(ValueError):
        gamma_posterior_quantile(mean_spec, 0.5)


def test_trunc_gauss_quantile_symmetry_and_median():
    spec = TruncGaussSpec()
    assert abs(trunc_gauss_quantile(spec, 0.5)) < 1e-9
    u = np.array([0.1, 0.25, 0.4])
    q_lo = trunc_gauss_quantile(spec, u)
    q_hi = trunc_gauss_quantile(spec, 1.0 - u)
    assert np.allclose(q_lo, -q_hi, atol=1e-9)
    grid = trunc_gauss_quantile(spec, np.linspace(0.01, 0.99, 99))
    assert np.all(np.diff(grid) > 0)
    assert grid.min() >= spec.lo and grid.max() <= spec.hi


def test_trunc_gauss_quantile_cdf_round_trip():
    spec = TruncGaussSpec(mean=5.0, lo=4.0, hi=6.0)
    assert trunc_gauss_quantile(spec, 0.5) == pytest.approx(5.0, abs=1e-9)
    u = np.linspace(0.05, 0.95, 19)
    q = trunc_gauss_quantile(spec, u)

    def phi(t):
        return 0.5 * (1.0 + special.erf(t / np.sqrt(2.0)))

    pa, pb = phi(4.0 - 5.0), phi(6.0 - 5.0)
    back = (phi(q - 5.0) - pa) / (pb - pa)
    assert np.max(np.abs(back - u)) < 1e-8


_LEVELS = [0.01, 0.2, 0.5, 0.8, 0.99]
_D1_SPEC = dict(kind="precision", d=1, nu=4.0, data=[[0.3], [-1.2], [2.0]])
_TG_SPEC = dict(mean=0.3, lo=-0.5, hi=1.2)

# A fresh interpreter makes Wishart runs and a verify suite, which evaluate no
# quantile, then trunc-gauss runs and a quantile, whose erf is the package's
# own, then the Gamma quantile; it prints the scipy modules it had loaded
# before and after the Gamma quantile, and the two quantiles' bytes.
_FRESH_PROCESS = """
import json, sys
import numpy as np
import proxlmc
from proxlmc import cli

levels, d1_spec, tg_spec, configs, out = json.loads(sys.argv[1])
codes = [
    cli.main(["sample", "--config", configs["sample"], "--out", out + "/sample"]),
    cli.main(["experiment", "--config", configs["experiment"], "--out", out + "/experiment"]),
    cli.main(["verify", "--suite", "reductions", "--trials", "5"]),
    cli.main(["sample", "--config", configs["tg"], "--out", out + "/tg-sample"]),
    cli.main(["experiment", "--config", configs["tg"], "--chains", "64",
              "--out", out + "/tg-experiment"]),
]
u = np.array(levels)
tg = proxlmc.trunc_gauss_quantile(proxlmc.TruncGaussSpec(**tg_spec), u)
scipy_before = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
d1 = proxlmc.gamma_posterior_quantile(proxlmc.WishartExperimentSpec(**d1_spec), u)
print(json.dumps({"codes": codes, "scipy_before": scipy_before,
                  "scipy_after": "scipy.special" in sys.modules,
                  "tg": tg.tobytes().hex(), "d1": d1.tobytes().hex()}))
"""


def test_runs_without_a_quantile_never_load_scipy(tmp_path):
    """scipy is most of a fresh process's set-up and only the Gamma quantile
    uses it: importing proxlmc, Wishart sample/experiment runs that evaluate
    no quantile, verify, and trunc-gauss sample, ensemble experiment and
    quantile must not load it, and the quantiles keep their bits."""
    configs = {}
    for name, body in (
        ("sample", {"experiment": "wishart-precision", "d": 1, "n": 20, "minibatch": 5,
                    "num_steps": 200}),
        ("experiment", {"experiment": "wishart-precision", "d": 3, "num_steps": 200}),
        ("tg", {"experiment": "trunc-gauss", "mean": 0.5, "lo": -1.0, "hi": 1.0,
                "num_steps": 200, "snapshot_steps": [100, 200]}),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(body))
        configs[name] = str(path)
    args = [_LEVELS, _D1_SPEC, _TG_SPEC, configs, str(tmp_path / "out")]
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS, json.dumps(args)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["scipy_before"] == []
    assert report["scipy_after"]
    u = np.array(_LEVELS)
    tg = trunc_gauss_quantile(TruncGaussSpec(**_TG_SPEC), u)
    d1 = gamma_posterior_quantile(WishartExperimentSpec(**_D1_SPEC), u)
    assert report["tg"] == tg.tobytes().hex()
    assert report["d1"] == d1.tobytes().hex()


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_trunc_gauss():
    asm = assemble_experiment(TruncGaussSpec())
    assert asm.shape == (1,)
    assert isinstance(asm.smooth, QuadraticSum)
    assert asm.smooth.L == 1.0 and asm.smooth.lambda_f == 1.0
    assert isinstance(asm.nonsmooth, BoxIndicator)
    assert asm.quantile_oracle is not None
    assert asm.ground_truth is None
    x0 = asm.default_x0(0.1)
    assert asm.nonsmooth.in_domain(x0)
    assert x0[0] == 1.0  # prox of ones clipped to the box edge


def test_assemble_mean_1d_uses_the_prior_barrier():
    data = generate_gaussian_data(20, 1, RngStream(3, 0))
    asm = assemble_experiment(WishartExperimentSpec(kind="mean-1d", d=1, nu=3.0, data=data))
    assert asm.shape == (1,)
    assert isinstance(asm.smooth, QuadraticSum)
    assert asm.smooth.L == 20.0
    assert isinstance(asm.nonsmooth, LogBarrier)
    assert asm.nonsmooth.alpha == pytest.approx((3.0 - 2.0) / 2.0)  # n = 0 here
    assert asm.nonsmooth.beta == 0.5
    assert asm.quantile_oracle is None and asm.ground_truth is None


def test_assemble_precision_flat_for_d1():
    data = generate_gaussian_data(30, 1, RngStream(4, 0))
    asm = assemble_experiment(WishartExperimentSpec(kind="precision", d=1, nu=5.0, data=data))
    assert asm.shape == (1,)
    assert isinstance(asm.smooth, PrecisionLikelihood)
    assert isinstance(asm.nonsmooth, LogBarrier)
    assert asm.quantile_oracle is not None
    assert asm.ground_truth is not None
    assert asm.nonsmooth.in_domain(asm.default_x0(0.05))


def test_assemble_precision_matrix_case():
    data = generate_gaussian_data(30, 4, RngStream(5, 0))
    asm = assemble_experiment(WishartExperimentSpec(kind="precision", d=4, nu=8.0, data=data))
    assert asm.shape == (4, 4)
    assert type(asm.nonsmooth) is Spectral and isinstance(asm.nonsmooth.scalar, LogBarrier)
    assert asm.quantile_oracle is None
    assert np.array_equal(asm.default_x0(0.1), np.eye(4))
    assert asm.nonsmooth.in_domain(asm.default_x0(0.1))


def test_assemble_warns_outside_the_moment_regime():
    data = generate_gaussian_data(1, 2, RngStream(6, 0))
    spec = WishartExperimentSpec(kind="precision", d=2, nu=2.5, data=data)
    with pytest.warns(RuntimeWarning, match="moment regime"):
        assemble_experiment(spec)

    safe = WishartExperimentSpec(
        kind="precision", d=2, nu=6.0, data=generate_gaussian_data(10, 2, RngStream(6, 1))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_experiment(safe)


def test_assemble_rejects_unknown_specs():
    with pytest.raises(ValueError):
        assemble_experiment(object())


# ---------------------------------------------------------------------------
# exact Wishart draws
# ---------------------------------------------------------------------------

def test_sample_wishart_moments_and_determinism():
    v_inv = np.array([[2.0, 0.5], [0.5, 1.0]])
    nu = 6.0
    draws = sample_wishart(nu, v_inv, RngStream(7, 0), size=4000)
    assert draws.shape == (4000, 2, 2)
    assert np.array_equal(draws, sample_wishart(nu, v_inv, RngStream(7, 0), size=4000))
    eigs = np.linalg.eigvalsh(draws)
    assert eigs.min() > 0  # PD almost surely, Bartlett keeps it exact
    mean = draws.mean(axis=0)
    expected = nu * np.linalg.inv(v_inv)
    # per-entry tolerance ~ 5 standard errors of the Wishart entries
    v = np.linalg.inv(v_inv)
    se = np.sqrt(nu * (v**2 + np.outer(np.diag(v), np.diag(v))) / 4000)
    assert np.all(np.abs(mean - expected) < 5 * se)


def _sample_wishart_per_draw(nu, v_inv, rng, size):
    """The Bartlett sampler with one generator call per entry, as first written."""
    d = v_inv.shape[0]
    v = np.linalg.inv(v_inv)
    chol = np.linalg.cholesky((v + v.T) / 2.0)
    out = np.empty((size, d, d))
    for k in range(size):
        a = np.zeros((d, d))
        for i in range(d):
            a[i, i] = np.sqrt(2.0 * rng.standard_gamma((nu - i) / 2.0))
            for j in range(i):
                a[i, j] = rng.standard_normal()
        la = chol @ a
        w = la @ la.T
        out[k] = (w + w.T) / 2.0
    return out


@pytest.mark.parametrize("d, nu", [(1, 2.5), (3, 4.0), (10, 64.0)])
def test_sample_wishart_equals_per_draw_sampler(d, nu):
    b = RngStream(9, 0).standard_normal((d, d))
    v_inv = b @ b.T + d * np.eye(d)
    for seed in range(4):
        expected = _sample_wishart_per_draw(nu, v_inv, RngStream(seed, 2), 50)
        assert np.array_equal(sample_wishart(nu, v_inv, RngStream(seed, 2), 50), expected)


def test_sample_wishart_degrees_of_freedom_guard():
    with pytest.raises(ValueError):
        sample_wishart(1.0, np.eye(2), RngStream(8, 0), size=1)
