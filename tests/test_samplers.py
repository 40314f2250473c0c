import numpy as np
import pytest

from proxlmc import (
    BoxIndicator,
    ChainDivergence,
    LipschitzProxTerm,
    LogBarrier,
    Quadratic,
    QuadraticSum,
    RngStream,
    SamplerConfig,
    Space,
    ZeroPotential,
    ZeroSmooth,
    coordinate_absolute_term,
    run_chain,
    run_ensemble,
    step_psgla,
    step_size_warning,
    step_spla,
    step_ula,
    tune_for_epsilon,
)
from proxlmc.space import FLAT


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(gamma=0.0, num_steps=10),
        dict(gamma=-0.1, num_steps=10),
        dict(gamma=0.1, num_steps=0),
        dict(gamma=0.1, num_steps=10, burn_in=10),
        dict(gamma=0.1, num_steps=10, burn_in=-1),
        dict(gamma=0.1, num_steps=10, minibatch=0),
        dict(gamma=0.1, num_steps=10, minibatch="half"),
        dict(gamma=0.1, num_steps=10, record_every=0),
        dict(gamma=0.1, num_steps=10, minibatch=True),
        dict(gamma=float("inf"), num_steps=10),
        dict(gamma=float("nan"), num_steps=10),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SamplerConfig(**kwargs)


def test_step_size_warning_predicate():
    f = Quadratic(np.array([[2.0]]), np.zeros(1))
    assert step_size_warning(f, 0.6)
    assert not step_size_warning(f, 0.5)
    assert not step_size_warning(ZeroSmooth(), 1e9)


# ---------------------------------------------------------------------------
# step kernels
# ---------------------------------------------------------------------------

def test_psgla_step_reproduces_its_formula(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.2, num_steps=1, seed=3)
    x = np.array([0.4, -0.9])
    rng = RngStream(3, 0)
    x_half, x_new, y_new = step_psgla(x, smooth, box, cfg, rng)

    w = RngStream(3, 0).standard_normal(2)
    expected_half = x - 0.2 * smooth.full_gradient(x) + np.sqrt(0.4) * w
    assert np.array_equal(x_half, expected_half)
    assert np.array_equal(x_new, np.clip(expected_half, -1.0, 1.0))
    assert np.array_equal(y_new, (x_half - x_new) / 0.2)


def test_dual_consistency_of_prox_steps(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.35, num_steps=1, seed=4)
    term = coordinate_absolute_term(0.5, 2)
    rng_a, rng_b = RngStream(4, 0), RngStream(4, 1)
    x = np.array([0.1, 0.2])
    for _ in range(50):
        x_half, x_new, y_new = step_psgla(x, smooth, box, cfg, rng_a)
        assert np.allclose(x_half, x_new + cfg.gamma * y_new, atol=1e-14)
        x_half, x_new, y_new = step_spla(x, smooth, box, cfg, rng_b, lipschitz_term=term)
        assert np.allclose(x_half, x_new + cfg.gamma * y_new, atol=1e-14)
        x = x_new


def test_reduction_chains_are_bitwise(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=200, seed=5)
    x0 = np.array([0.2, -0.3])

    ula = run_chain("ula", smooth, ZeroPotential(), cfg, x0)
    psgla_free = run_chain("psgla", smooth, ZeroPotential(), cfg, x0)
    assert all(np.array_equal(a, b) for a, b in zip(ula.primal, psgla_free.primal))

    psgla = run_chain("psgla", smooth, box, cfg, x0)
    projected = run_chain("projected", smooth, box, cfg, x0)
    assert all(np.array_equal(a, b) for a, b in zip(psgla.primal, projected.primal))

    spla_plain = run_chain("spla", smooth, box, cfg, x0, lipschitz_term=None)
    assert all(np.array_equal(a, b) for a, b in zip(psgla.primal, spla_plain.primal))

    # one zero component: same prox path, still no extra randomness consumed
    zero_term = LipschitzProxTerm([ZeroPotential()], M=0.0)
    spla_zero = run_chain("spla", smooth, box, cfg, x0, lipschitz_term=zero_term)
    assert all(np.array_equal(a, b) for a, b in zip(psgla.primal, spla_zero.primal))


def test_projected_requires_indicator(box_quadratic):
    smooth, _ = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=5, seed=0)
    with pytest.raises(ValueError):
        run_chain("projected", smooth, LogBarrier(1.0, 0.5), cfg, np.array([1.0, 1.0]))


def test_myula_requires_lambda(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=5, seed=0)
    with pytest.raises(ValueError):
        run_chain("myula", smooth, box, cfg, np.array([0.0, 0.0]))


def test_myula_differs_from_psgla_and_can_leave_the_domain(box_quadratic):
    smooth, box = box_quadratic
    x0 = np.array([0.9, 0.9])
    cfg_m = SamplerConfig(gamma=0.3, num_steps=200, seed=6, myula_lambda=0.3)
    cfg_p = SamplerConfig(gamma=0.3, num_steps=200, seed=6)
    myula = run_chain("myula", smooth, box, cfg_m, x0)
    psgla = run_chain("psgla", smooth, box, cfg_p, x0)
    assert not np.array_equal(myula.primal[-1], psgla.primal[-1])
    assert not all(myula.feasible_flags)
    assert all(psgla.feasible_flags)


def test_unknown_sampler_rejected(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=5)
    with pytest.raises(ValueError):
        run_chain("mala", smooth, box, cfg, np.zeros(2))


# ---------------------------------------------------------------------------
# chain driver
# ---------------------------------------------------------------------------

def test_recording_arithmetic(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, burn_in=3, record_every=2, seed=7)
    trace = run_chain("psgla", smooth, box, cfg, np.zeros(2))
    assert trace.steps == [5, 7, 9]
    assert len(trace) == 3
    assert len(trace.half_steps) == 3


def test_mean_checkpoints_average_post_burn_in_iterates(box_quadratic):
    smooth, box = box_quadratic
    dense = run_chain(
        "psgla", smooth, box,
        SamplerConfig(gamma=0.1, num_steps=12, burn_in=2, seed=8),
        np.zeros(2),
    )
    sparse = run_chain(
        "psgla", smooth, box,
        SamplerConfig(gamma=0.1, num_steps=12, burn_in=2, record_every=5, seed=8),
        np.zeros(2),
        mean_checkpoints=[4, 12],
    )
    steps, means = zip(*sparse.mean_checkpoints)
    assert steps == (4, 12)
    # dense trace records steps 3..12; checkpoint k averages steps 3..k
    assert np.allclose(means[0], np.mean(dense.primal[:2], axis=0), atol=1e-15)
    assert np.allclose(means[1], np.mean(dense.primal, axis=0), atol=1e-15)


def test_checkpoint_before_burn_in_rejected(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, burn_in=5, seed=0)
    with pytest.raises(ValueError):
        run_chain("psgla", smooth, box, cfg, np.zeros(2), mean_checkpoints=[5])


def test_checkpoint_after_the_last_step_rejected(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    with pytest.raises(ValueError, match="num_steps"):
        run_chain("psgla", smooth, box, cfg, np.zeros(2), mean_checkpoints=[5, 50])


def test_duals_recorded_only_on_request(box_quadratic):
    smooth, box = box_quadratic
    x0 = np.zeros(2)
    plain = run_chain("psgla", smooth, box, SamplerConfig(0.1, 20, seed=9), x0)
    assert plain.duals == []
    dualed = run_chain(
        "psgla", smooth, box, SamplerConfig(0.1, 20, seed=9, record_duals=True), x0
    )
    assert len(dualed.duals) == 20
    # ula has no dual points even when asked
    ula = run_chain(
        "ula", smooth, box, SamplerConfig(0.1, 20, seed=9, record_duals=True), x0
    )
    assert ula.duals == []
    assert ula.half_steps == []


def test_divergence_aborts_with_step_index():
    f = Quadratic(np.array([[1.0]]), np.zeros(1))
    cfg = SamplerConfig(gamma=10.0, num_steps=1000, seed=10)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ChainDivergence) as err:
            run_chain("ula", f, ZeroPotential(), cfg, np.array([1.0]))
    assert err.value.sampler == "ula"
    assert 0 < err.value.step <= 1000
    assert str(err.value.step) in str(err.value)


def test_step_size_warning_emitted_once_per_run(box_quadratic):
    smooth, box = box_quadratic  # L ~ 2.1
    with pytest.warns(RuntimeWarning, match="exceeds 1/L"):
        run_chain("psgla", smooth, box, SamplerConfig(1.0, 5, seed=0), np.zeros(2))
    # no warning at a safe step size
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_chain("psgla", smooth, box, SamplerConfig(0.2, 5, seed=0), np.zeros(2))


def test_streams_decouple_chains(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=30, seed=11)
    a = run_chain("psgla", smooth, box, cfg, np.zeros(2), stream_id=0)
    b = run_chain("psgla", smooth, box, cfg, np.zeros(2), stream_id=1)
    c = run_chain("psgla", smooth, box, cfg, np.zeros(2), stream_id=0)
    assert not np.array_equal(a.primal[-1], b.primal[-1])
    assert np.array_equal(a.primal[-1], c.primal[-1])


def test_minibatch_chain_differs_from_full_batch():
    data = RngStream(12, 0).standard_normal((8, 2))
    f = QuadraticSum(data)
    box = BoxIndicator(-2 * np.ones(2), 2 * np.ones(2))
    full = run_chain("psgla", f, box, SamplerConfig(0.01, 50, seed=13), np.zeros(2))
    mini = run_chain(
        "psgla", f, box, SamplerConfig(0.01, 50, seed=13, minibatch=2), np.zeros(2)
    )
    assert not np.array_equal(full.primal[-1], mini.primal[-1])


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_validation(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    with pytest.raises(ValueError):
        run_ensemble("psgla", smooth, box, cfg, 1, [10], np.zeros(2))
    with pytest.raises(ValueError):
        run_ensemble("psgla", smooth, box, cfg, 4, [], np.zeros(2))
    with pytest.raises(ValueError):
        run_ensemble("psgla", smooth, box, cfg, 4, [11], np.zeros(2))


def test_ensemble_rejects_duplicate_snapshot_steps(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        run_ensemble("psgla", smooth, box, cfg, 4, [5, 5, 10], np.zeros(2))


def test_ensemble_snapshot_zero_is_the_start(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=14)
    x0 = np.array([0.3, -0.3])
    res = run_ensemble("psgla", smooth, box, cfg, 6, [0, 10], x0)
    assert res.snapshot(0).shape == (6, 2)
    assert np.array_equal(res.snapshot(0), np.tile(x0, (6, 1)))
    assert res.snapshot(10).shape == (6, 2)


def test_vectorized_ensemble_matches_per_chain_runs(box_quadratic):
    """The flat-space fast path must be bitwise identical to per-chain loops."""
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.15, num_steps=37, seed=15)
    x0 = np.array([0.1, 0.6])
    res = run_ensemble("psgla", smooth, box, cfg, 5, [9, 37], x0)
    for c in range(5):
        trace = run_chain("psgla", smooth, box, cfg, x0, stream_id=c)
        assert np.array_equal(res.snapshot(9)[c], trace.primal[8])
        assert np.array_equal(res.snapshot(37)[c], trace.primal[36])


def test_vectorized_ensemble_matches_for_myula(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.15, num_steps=20, seed=16, myula_lambda=0.2)
    x0 = np.zeros(2)
    res = run_ensemble("myula", smooth, box, cfg, 4, [20], x0)
    for c in range(4):
        trace = run_chain("myula", smooth, box, cfg, x0, stream_id=c)
        assert np.array_equal(res.snapshot(20)[c], trace.primal[-1])


def test_loop_ensemble_matches_per_chain_runs():
    # matrix-space configurations take the per-chain path; same contract
    from proxlmc import PsdIndicator

    smooth = ZeroSmooth()
    psd = PsdIndicator(2)
    cfg = SamplerConfig(gamma=0.2, num_steps=15, seed=17)
    x0 = np.eye(2)
    res = run_ensemble("psgla", smooth, psd, cfg, 3, [15], x0)
    for c in range(3):
        trace = run_chain("psgla", smooth, psd, cfg, x0, stream_id=c)
        assert np.array_equal(res.snapshot(15)[c], trace.primal[-1])


def test_ula_ensemble_reaches_the_biased_stationary_variance():
    """ULA on N(0,1) has stationary variance 1/(1 - gamma/2) exactly."""
    f = Quadratic(np.array([[1.0]]), np.zeros(1))
    gamma = 0.5
    cfg = SamplerConfig(gamma=gamma, num_steps=300, seed=18)
    res = run_ensemble("ula", f, ZeroPotential(), cfg, 4000, [300], np.zeros(1))
    v = res.snapshot(300)[:, 0].var()
    assert abs(v - 1.0 / (1.0 - gamma / 2.0)) < 0.08


# ---------------------------------------------------------------------------
# tuning helper
# ---------------------------------------------------------------------------

def test_tune_for_epsilon_example():
    assert tune_for_epsilon(1.0, L=1.0, lambda_f=1.0, C=2.0, w0_sq=1.0) == (0.25, 3)


def test_tune_for_epsilon_monotonicity():
    g1, k1 = tune_for_epsilon(0.1, L=2.0, lambda_f=1.0, C=4.0, w0_sq=3.0)
    g2, k2 = tune_for_epsilon(0.01, L=2.0, lambda_f=1.0, C=4.0, w0_sq=3.0)
    assert g2 <= g1
    assert k2 >= k1
    assert g1 <= 1.0 / 2.0


def test_tune_for_epsilon_validation():
    with pytest.raises(ValueError):
        tune_for_epsilon(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tune_for_epsilon(0.1, 1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        tune_for_epsilon(0.1, 1.0, 1.0, 0.0, 1.0)
