import hashlib
import math
import re
import sys
import threading

import numpy as np
import pytest

from proxlmc import (
    BoxIndicator,
    ChainDivergence,
    LogBarrier,
    PrecisionLikelihood,
    Quadratic,
    QuadraticSum,
    RngStream,
    SamplerConfig,
    Spectral,
    ZeroSmooth,
    gaussian,
    run_chain,
    run_ensemble,
    step_psgla,
    step_size_warning,
    tune_for_epsilon,
)
from proxlmc import samplers


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
        dict(gamma=0.1, num_steps=10, minibatch=np.True_),
        dict(gamma=0.1, num_steps=10, minibatch=2.0),
        dict(gamma=0.1, num_steps=10, minibatch=np.int64(0)),
        dict(gamma=True, num_steps=10),
        dict(gamma="0.1", num_steps=10),
        dict(gamma=0.1, num_steps=10, myula_lambda="1"),
        dict(gamma=0.1, num_steps=10, myula_lambda=float("inf")),
        dict(gamma=0.1, num_steps=10, myula_lambda=float("nan")),
        dict(gamma=0.1, num_steps=10, myula_lambda=True),
        dict(gamma=0.1, num_steps=10, spla_r_weight=-0.3),
        dict(gamma=0.1, num_steps=10, spla_r_weight=float("nan")),
        dict(gamma=0.1, num_steps=10, spla_r_weight=float("inf")),
        dict(gamma=0.1, num_steps=10, spla_r_weight=True),
        dict(gamma=0.1, num_steps=10, spla_r_weight="1"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SamplerConfig(**kwargs)


def test_config_takes_numpy_and_int_step_sizes():
    """Any finite int or float passes, numpy scalars included; the sign of
    myula_lambda is check_run's rule, for sampler 'myula' only."""
    for gamma, lam in ((np.float64(0.1), np.float32(0.2)), (1, np.int64(2)), (0.1, -1.0)):
        cfg = SamplerConfig(gamma, 10, myula_lambda=lam)
        assert cfg.gamma is gamma and cfg.myula_lambda is lam


@pytest.mark.parametrize("value", [10.5, 2.0, True, "2"])
@pytest.mark.parametrize("field", ["num_steps", "burn_in", "record_every", "seed"])
def test_config_integer_fields_reject_non_integers(field, value):
    """A float step count would construct and then fail mid-run with a TypeError."""
    kwargs = {"gamma": 0.1, "num_steps": 20, field: value}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        SamplerConfig(**kwargs)


def test_config_accepts_numpy_integers(box_quadratic):
    smooth, box = box_quadratic
    ints = SamplerConfig(0.1, 20, burn_in=2, record_every=3, seed=4)
    numpy_ints = SamplerConfig(0.1, np.int64(20), burn_in=np.int32(2), record_every=np.uint8(3),
                               seed=np.uint64(4))
    a, b = (run_chain("psgla", smooth, box, cfg, np.zeros(2)) for cfg in (ints, numpy_ints))
    assert a.steps == b.steps and np.array_equal(a.primal, b.primal)


@pytest.mark.parametrize("seed", [np.uint64(4), np.int64(-1)])
def test_ensemble_accepts_a_numpy_seed(box_quadratic, seed):
    """Every chain of an ensemble is keyed by the seed; a numpy seed keys the
    streams a Python int of its value keys."""
    smooth, box = box_quadratic
    runs = [run_ensemble("psgla", smooth, box, SamplerConfig(0.1, 20, seed=s), 3, [5, 20],
                         np.zeros(2), mean_checkpoints=[10, 20]) for s in (seed, int(seed))]
    assert all(np.array_equal(runs[0].snapshot(k), runs[1].snapshot(k)) for k in (5, 20))
    assert np.array_equal(runs[0].trace.primal, runs[1].trace.primal)


def test_minibatch_accepts_numpy_integers():
    f = QuadraticSum(RngStream(12, 0).standard_normal((8, 2)))
    box = BoxIndicator(-2 * np.ones(2), 2 * np.ones(2))
    runs = [run_chain("psgla", f, box, SamplerConfig(0.01, 30, seed=3, minibatch=mb),
                      np.zeros(2)) for mb in (2, np.int64(2), np.uint8(2))]
    assert all(np.array_equal(r.primal, runs[0].primal) for r in runs)


@pytest.mark.parametrize("bad", [2.7, 2.0, True])
def test_non_integer_steps_rejected(box_quadratic, bad):
    """int() would truncate 2.7 and store or snapshot step 2 instead."""
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    named = re.escape(repr(bad))
    with pytest.raises(ValueError, match=f"mean checkpoint must be an integer, got {named}"):
        run_chain("psgla", smooth, box, cfg, np.zeros(2), mean_checkpoints=[5, bad])
    with pytest.raises(ValueError, match=f"snapshot step must be an integer, got {named}"):
        run_ensemble("psgla", smooth, box, cfg, 3, [bad, 5], np.zeros(2))
    res = run_ensemble("psgla", smooth, box, cfg, 3, np.array([10, 3]), np.zeros(2))
    assert list(res.snapshots) == [3, 10]
    steps = samplers._step_list(np.array([10, 3]), "snapshot step", 0, 10)
    assert steps == [3, 10] and all(type(s) is int for s in steps)


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
    """A dual point y' = (x_half - x') / gamma lies in the subdifferential of
    G at x': for the box, the normal cone, zero inside and pointing out of
    each face the iterate sits on."""
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.35, num_steps=50, seed=4, record_duals=True, spla_r_weight=0.5)
    x0 = np.array([0.1, 0.2])
    psgla = run_chain("psgla", smooth, box, cfg, x0, stream_id=0)
    spla = run_chain("spla", smooth, box, cfg, x0, stream_id=1)
    for trace in (psgla, spla):
        assert len(trace.duals) == 50
        x, y = trace.primal, trace.duals
        at_lo, at_hi = x == box.lo, x == box.hi
        assert at_lo.any() and at_hi.any() and (y != 0).any()
        assert np.all(y[~at_lo & ~at_hi] == 0)
        assert np.all(y[at_lo] <= 0) and np.all(y[at_hi] >= 0)


def test_reduction_chains_are_bitwise(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=200, seed=5)
    x0 = np.array([0.2, -0.3])

    ula = run_chain("ula", smooth, BoxIndicator(-np.inf, np.inf), cfg, x0)
    psgla_free = run_chain("psgla", smooth, BoxIndicator(-np.inf, np.inf), cfg, x0)
    assert all(np.array_equal(a, b) for a, b in zip(ula.primal, psgla_free.primal))

    psgla = run_chain("psgla", smooth, box, cfg, x0)
    projected = run_chain("projected", smooth, box, cfg, x0)
    assert all(np.array_equal(a, b) for a, b in zip(psgla.primal, projected.primal))

    spla_plain = run_chain("spla", smooth, box, cfg, x0)
    assert all(np.array_equal(a, b) for a, b in zip(psgla.primal, spla_plain.primal))

    # a zero weight is no R term: no prox and no entry drawn
    zero = SamplerConfig(gamma=0.1, num_steps=200, seed=5, spla_r_weight=0.0)
    spla_zero = run_chain("spla", smooth, box, zero, x0)
    assert all(np.array_equal(a, b) for a, b in zip(psgla.primal, spla_zero.primal))


def test_psgla_with_the_unbounded_box_is_ula_on_symmetric_matrices():
    """The reduction psgla(G = 0) == ula holds bit for bit on 3 x 3 symmetric
    matrices too, here with a minibatch gradient."""
    f = PrecisionLikelihood(RngStream(31, 0).standard_normal((6, 3)), 3)
    g = BoxIndicator(-np.inf, np.inf)
    cfg = SamplerConfig(0.05, 200, seed=8, minibatch=2)
    ula = run_chain("ula", f, g, cfg, np.eye(3))
    psgla = run_chain("psgla", f, g, cfg, np.eye(3))
    assert ula.primal.shape == (200, 3, 3) and np.ptp(ula.primal[:, 0, 1]) > 0
    assert ula.primal.tobytes() == psgla.primal.tobytes()


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
    assert not box.domain_mask(myula.primal).all()
    assert box.domain_mask(psgla.primal).all()


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
    cfg = SamplerConfig(gamma=0.1, num_steps=10, burn_in=3, record_every=2, seed=7,
                        record_duals=True)
    trace = run_chain("psgla", smooth, box, cfg, np.zeros(2))
    assert list(trace.steps) == [5, 7, 9]
    assert len(trace.primal) == 3
    assert len(trace.duals) == 3


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


def test_duplicate_checkpoints_rejected(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    with pytest.raises(ValueError, match="distinct"):
        run_chain("psgla", smooth, box, cfg, np.zeros(2), mean_checkpoints=[5, 5])


def _start(runner, smooth, g, cfg, x0):
    """A psgla chain, an ensemble of three, or one step_psgla from x0."""
    if runner == "chain":
        run_chain("psgla", smooth, g, cfg, x0)
    elif runner == "ensemble":
        run_ensemble("psgla", smooth, g, cfg, 3, [cfg.num_steps], x0)
    else:
        step_psgla(x0, smooth, g, cfg, RngStream(cfg.seed, 0))


@pytest.mark.parametrize("runner", ["chain", "ensemble", "step"])
@pytest.mark.parametrize(
    "x0",
    [np.array([0.0, np.nan]), np.diag([1.0, np.inf]), np.array([[np.nan, 0.0], [0.0, 1.0]])],
    ids=["flat", "sym", "sym-nan"],
)
def test_non_finite_start_rejected(runner, x0):
    """A NaN is not unequal to its mirror image: a symmetric matrix with a
    NaN entry is a point, rejected for the NaN, not for asymmetry."""
    g = BoxIndicator(-np.ones(2), np.ones(2)) if x0.ndim == 1 else Spectral(LogBarrier(0.0, 0.0), 2)
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    with pytest.raises(ValueError, match="x0 must be finite"):
        _start(runner, ZeroSmooth(), g, cfg, x0)


_MISMATCHES = {  # (F, G, x0, the shape the mismatched term acts on)
    "3d-box-on-flat-2": (
        ZeroSmooth(), BoxIndicator(-np.ones(3), np.ones(3)), np.zeros(2), (3,)
    ),
    "3d-quadratic-on-flat-2": (
        Quadratic(np.eye(3), np.zeros(3)), BoxIndicator(-np.ones(2), np.ones(2)), np.zeros(2),
        (3,),
    ),
    "2d-box-on-sym-2": (ZeroSmooth(), BoxIndicator(-np.ones(2), np.ones(2)), np.eye(2), (2,)),
    "psd-3-on-sym-2": (ZeroSmooth(), Spectral(LogBarrier(0.0, 0.0), 3), np.eye(2), (3, 3)),
    "log-barrier-3-on-sym-2": (
        ZeroSmooth(), Spectral(LogBarrier(2.0, 0.5), 3), np.eye(2), (3, 3)
    ),
    "3d-data-on-flat-2": (
        QuadraticSum(np.zeros((4, 3))), BoxIndicator(-np.inf, np.inf), np.zeros(2), (3,)
    ),
    "precision-3-on-sym-2": (
        PrecisionLikelihood(np.ones((4, 3)), 3), Spectral(LogBarrier(0.0, 0.0), 2), np.eye(2),
        (3, 3),
    ),
}


@pytest.mark.parametrize("runner", ["chain", "ensemble", "step"])
@pytest.mark.parametrize("case", sorted(_MISMATCHES))
def test_dimension_mismatch_rejected_before_step_1(case, runner):
    """A potential of another dimension than the chain fails at start-up with
    both shapes named, not with a broadcast error or a silent clamp by column."""
    smooth, g, x0, shape = _MISMATCHES[case]
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    named = re.escape(f"{shape}") + ".*" + re.escape(f"x0 has shape {x0.shape}")
    with pytest.raises(ValueError, match=named):
        _start(runner, smooth, g, cfg, x0)


def test_duals_recorded_only_on_request(box_quadratic):
    smooth, box = box_quadratic
    x0 = np.zeros(2)
    plain = run_chain("psgla", smooth, box, SamplerConfig(0.1, 20, seed=9), x0)
    assert len(plain.duals) == 0
    dualed = run_chain(
        "psgla", smooth, box, SamplerConfig(0.1, 20, seed=9, record_duals=True), x0
    )
    assert len(dualed.duals) == 20
    # ula has no dual points even when asked
    ula = run_chain(
        "ula", smooth, box, SamplerConfig(0.1, 20, seed=9, record_duals=True), x0
    )
    assert len(ula.duals) == 0
    myula = run_chain(
        "myula", smooth, box,
        SamplerConfig(0.1, 20, seed=9, record_duals=True, myula_lambda=0.1), x0,
    )
    assert len(myula.duals) == 0


def test_divergence_aborts_with_step_index():
    f = Quadratic(np.array([[1.0]]), np.zeros(1))
    cfg = SamplerConfig(gamma=10.0, num_steps=1000, seed=10)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ChainDivergence) as err:
            run_chain("ula", f, BoxIndicator(-np.inf, np.inf), cfg, np.array([1.0]))
    assert err.value.sampler == "ula"
    assert 0 < err.value.step <= 1000
    assert str(err.value.step) in str(err.value)
    assert err.value.chain is None


def test_ensemble_divergence_names_the_earliest_chain():
    """(step, chain) is the minimum over the chains run one by one: the
    earliest divergence step, and the lowest chain index among ties."""
    f = Quadratic(np.array([[1.0]]), np.zeros(1))
    cfg = SamplerConfig(gamma=2.5, num_steps=5000, seed=0)
    firsts = []
    with pytest.warns(RuntimeWarning):
        for c in range(6):
            with pytest.raises(ChainDivergence) as err:
                run_chain("ula", f, BoxIndicator(-np.inf, np.inf), cfg, np.zeros(1), stream_id=c)
            firsts.append((err.value.step, c))
        with pytest.raises(ChainDivergence) as err:
            run_ensemble("ula", f, BoxIndicator(-np.inf, np.inf), cfg, 6, [5000], np.zeros(1))
    assert (err.value.step, err.value.chain) == min(firsts)
    assert f"chain {err.value.chain}" in str(err.value)


class _Poison(ZeroSmooth):
    """F = 0, except that from step `step` on the gradient of chain `chain`
    of a stack holds `bad` at entry `at`."""

    def __init__(self, step, chain, bad, at):
        self.step, self.chain, self.bad, self.at = step, chain, bad, at
        self.calls = 0

    def full_gradient(self, x):
        self.calls += 1
        out = super().full_gradient(x)
        if self.calls >= self.step:
            out[(self.chain, *self.at)] = out[(self.chain, *self.at[::-1])] = self.bad
        return out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_chain_of_an_ensemble_is_named(bad):
    """One bad entry in one chain of four raises at that step, naming that
    chain, on flat and matrix stacks; on the matrix stack the G-prox meets
    it first, and its eigensolve fails on an off-diagonal entry."""
    cfg = SamplerConfig(0.01, 10, seed=3)
    cases = [("ula", BoxIndicator(-np.inf, np.inf), np.zeros(2), (1,)),
             ("psgla", Spectral(LogBarrier(2.0, 0.5), 3), np.eye(3), (0, 2)),
             ("psgla", Spectral(LogBarrier(2.0, 0.5), 3), np.eye(3), (1, 1))]
    for sampler, g, x0, at in cases:
        with np.errstate(invalid="ignore"):
            with pytest.raises(ChainDivergence) as err:
                run_ensemble(sampler, _Poison(3, 2, bad, at), g, cfg, 4, [10], x0)
        assert (err.value.step, err.value.chain) == (3, 2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ChainDivergence) as err:
                run_chain(sampler, _Poison(4, 0, bad, at), g, cfg, x0)
        assert (err.value.step, err.value.chain) == (4, None)


def test_a_finite_chain_whose_sum_overflows_runs_on():
    """The finite check must not read an overflowing sum of finite entries
    as a divergence."""
    x0 = np.array([1e308, 1e308])
    cfg = SamplerConfig(0.01, 20, seed=4)
    trace = run_chain("ula", ZeroSmooth(), BoxIndicator(-np.inf, np.inf), cfg, x0)
    assert len(trace.primal) == 20 and np.isfinite(trace.primal).all()
    res = run_ensemble("ula", ZeroSmooth(), BoxIndicator(-np.inf, np.inf), cfg, 4, [20], x0)
    assert np.isfinite(res.snapshot(20)).all()


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


@pytest.mark.parametrize("bad", [4.0, "4", True])
def test_ensemble_chain_count_must_be_an_integer(box_quadratic, bad):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    with pytest.raises(ValueError, match="num_chains must be an integer"):
        run_ensemble("psgla", smooth, box, cfg, bad, [10], np.zeros(2))


def test_ensemble_accepts_a_numpy_chain_count(box_quadratic):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    res = run_ensemble("psgla", smooth, box, cfg, np.int64(4), [10], np.zeros(2))
    ref = run_ensemble("psgla", smooth, box, cfg, 4, [10], np.zeros(2))
    assert np.array_equal(res.snapshot(10), ref.snapshot(10))


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
    """A flat-space ensemble must be bitwise identical to per-chain runs."""
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
    smooth = ZeroSmooth()
    psd = Spectral(LogBarrier(0.0, 0.0), 2)
    cfg = SamplerConfig(gamma=0.2, num_steps=15, seed=17)
    x0 = np.eye(2)
    res = run_ensemble("psgla", smooth, psd, cfg, 3, [15], x0)
    for c in range(3):
        trace = run_chain("psgla", smooth, psd, cfg, x0, stream_id=c)
        assert np.array_equal(res.snapshot(15)[c], trace.primal[-1])


def _matrix_problem(d):
    data = RngStream(19, d).standard_normal((30, d))
    return PrecisionLikelihood(data, d), Spectral(LogBarrier(15.0, 0.5), d), np.eye(d)


def _flat_problem():
    data = RngStream(20, 0).standard_normal((8, 2))
    return QuadraticSum(data), BoxIndicator(-np.ones(2), np.ones(2)), np.full(2, 0.3)


@pytest.mark.parametrize(
    "sampler, space, minibatch, w",
    [
        ("ula", "flat", "full", None),
        ("psgla", "flat", "full", None),
        ("projected", "flat", "full", None),
        ("myula", "flat", "full", None),
        ("spla", "flat", "full", 0.4),
        ("ula", "sym", "full", None),
        ("psgla", "sym", "full", None),
        ("projected", "sym", "full", None),
        ("myula", "sym", "full", None),
        ("psgla", "sym", 3, None),
        ("myula", "flat", 2, None),
        ("spla", "sym", "full", 0.4),
        ("spla", "flat", 2, 0.4),
    ],
)
def test_batched_ensemble_matches_per_chain_runs(sampler, space, minibatch, w):
    """Every draw schedule of the batched driver (noise pre-drawn in chunks,
    or per-step draws for minibatches and drawn R entries) replays the
    chains run one by one, bit for bit, on both spaces."""
    smooth, g, x0 = _matrix_problem(3) if space == "sym" else _flat_problem()
    if sampler == "projected" and space == "sym":
        g = Spectral(LogBarrier(0.0, 0.0), 3)
    cfg = SamplerConfig(0.02, 25, seed=21, minibatch=minibatch, myula_lambda=0.3,
                        spla_r_weight=w)
    res = run_ensemble(sampler, smooth, g, cfg, 4, [0, 7, 25], x0)
    for c in range(4):
        trace = run_chain(sampler, smooth, g, cfg, x0, stream_id=c)
        assert np.array_equal(res.snapshot(0)[c], x0)
        assert np.array_equal(res.snapshot(7)[c], trace.primal[6])
        assert np.array_equal(res.snapshot(25)[c], trace.primal[24])


def _tile_chains(point_size):
    """Chains per tile of a full noise chunk, sized as the kernel sizes it,
    for ensembles small enough to take 1024-number chunks."""
    chunk = 1024 // point_size
    return max(1, samplers._TILE_BYTES // (8 * chunk * point_size))


@pytest.mark.parametrize("space", ["flat", "sym"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_batched_ensemble_matches_per_chain_runs_across_chunks_and_tiles(space, offset):
    """Pre-drawn noise goes through tiles of chains into a step-major block:
    one chain below, at and above a tile, over three noise chunks, every
    chain still equals its lone run bit for bit."""
    smooth, g, x0 = _matrix_problem(3) if space == "sym" else _flat_problem()
    chunk = 1024 // x0.size
    num_chains = _tile_chains(x0.size) + offset
    num_steps = 2 * chunk + 7
    cfg = SamplerConfig(0.02, num_steps, seed=24)
    steps = [chunk, chunk + 1, num_steps]
    res = run_ensemble("psgla", smooth, g, cfg, num_chains, steps, x0)
    for c in range(num_chains):
        trace = run_chain("psgla", smooth, g, cfg, x0, stream_id=c)
        for k in steps:
            assert np.array_equal(res.snapshot(k)[c], trace.primal[k - 1])


_WORKER_CASES = {  # sampler, space, minibatch, spla_r_weight
    "flat": ("psgla", "flat", "full", None),
    "sym": ("psgla", "sym", "full", None),
    "flat-minibatch": ("psgla", "flat", 2, None),
    "sym-spla": ("spla", "sym", "full", 0.4),
    "flat-minibatch-spla": ("spla", "flat", 3, 0.4),
}


@pytest.mark.parametrize("case", sorted(_WORKER_CASES))
def test_ensemble_bits_do_not_depend_on_the_worker_count(case, monkeypatch):
    """Every chunk is filled by _fill.  Noise alone is filled by W =
    min(CPUs, tiles) workers, tile i by worker i mod W and worker 0 on the
    calling thread; a chain that also draws minibatch indices or an R
    entry draws on the calling thread alone.  For 1, 2, 3 and more CPUs
    than tiles, over a chain count that no tile x W divides and a partial
    last chunk, the snapshots, chain 0's trace and every chain equal the lone
    runs bit for bit."""
    sampler, space, minibatch, w = _WORKER_CASES[case]
    smooth, g, x0 = _matrix_problem(3) if space == "sym" else _flat_problem()
    chunk, per_tile = 1024 // x0.size, _tile_chains(x0.size)
    num_chains = 3 * per_tile + 5  # four tiles, the last one partial
    cfg = SamplerConfig(0.02, 2 * chunk + 7, seed=26, minibatch=minibatch, spla_r_weight=w)
    steps, checkpoints = [chunk, chunk + 1, 2 * chunk + 3], [chunk, 2 * chunk + 7]
    lone = [run_chain(sampler, smooth, g, cfg, x0, stream_id=c) for c in range(num_chains)]
    ref = run_chain(sampler, smooth, g, cfg, x0, mean_checkpoints=checkpoints)
    draw, caller = samplers.gaussian, threading.current_thread()
    for cpus in (1, 2, 3, 64):
        drawn_on = {}  # chain -> the thread that filled its first chunk
        elsewhere = set()  # chains with a draw of any chunk off the calling thread

        def spy(rng, *args, **kwargs):
            drawn_on.setdefault(rng.stream_id, threading.current_thread().name)
            if threading.current_thread() is not caller:
                elsewhere.add(rng.stream_id)
            return draw(rng, *args, **kwargs)

        monkeypatch.setattr(samplers, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(samplers, "gaussian", spy)
        res = run_ensemble(sampler, smooth, g, cfg, num_chains, steps, x0,
                           mean_checkpoints=checkpoints)
        workers = min(cpus, 4) if minibatch == "full" and w is None else 1
        split = {((c // per_tile) % workers, drawn_on[c]) for c in range(num_chains)}
        assert len(split) == len(set(drawn_on.values())) == workers
        assert elsewhere if workers > 1 else not elsewhere
        assert drawn_on[0] == threading.current_thread().name
        for c in range(num_chains):
            for k in steps:
                assert np.array_equal(res.snapshot(k)[c], lone[c].primal[k - 1])
        assert np.array_equal(res.trace.primal, ref.primal)
        for (_, ours), (_, theirs) in zip(res.trace.mean_checkpoints, ref.mean_checkpoints):
            assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_draw_error_on_any_worker_reaches_the_caller(cpus, monkeypatch):
    """A draw that raises on a worker thread is raised by run_ensemble after
    every worker has been joined; of several, the lowest chain's, whatever
    the worker count."""
    smooth, g, x0 = _flat_problem()
    chunk, per_tile = 1024 // x0.size, _tile_chains(x0.size)
    failing = {per_tile + 1, 2 * per_tile + 3}  # on workers 1 and 0 of two
    draw, drawn_on = samplers.gaussian, set()

    def broken(rng, *args, **kwargs):
        drawn_on.add(threading.current_thread().name)
        if rng.stream_id in failing:
            raise FloatingPointError(f"draw of chain {rng.stream_id}")
        return draw(rng, *args, **kwargs)

    monkeypatch.setattr(samplers, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(samplers, "gaussian", broken)
    before = threading.active_count()
    cfg = SamplerConfig(0.02, chunk, seed=3)
    with pytest.raises(FloatingPointError, match=f"chain {per_tile + 1}$"):
        run_ensemble("psgla", smooth, g, cfg, 4 * per_tile, [chunk], x0)
    assert threading.active_count() == before
    assert len(drawn_on) == cpus  # four tiles, so one worker per CPU


@pytest.mark.parametrize("minibatch", ["full", 3])
def test_rekeyed_generators_under_thread_switches_match_lone_chains(minibatch, monkeypatch):
    """Eight noise workers on tiles of three chains, with a thread switch
    every 10 us: over three chunks, a partial last tile, a last snapshot
    inside a chunk and chain 0 recorded past it, every chain and chain 0's
    trace equal their lone runs bit for bit.  The ensemble builds at most one
    generator per CPU plus one, all on the calling thread."""
    smooth, g, x0 = _flat_problem()
    chunk = 1024 // x0.size
    monkeypatch.setattr(samplers, "_cpu_count", lambda: 8)
    monkeypatch.setattr(samplers, "_TILE_BYTES", 8 * chunk * x0.size * 3)
    num_chains = 8 * 3 + 2  # nine tiles, the last one partial
    cfg = SamplerConfig(0.02, 3 * chunk + 40, seed=27, minibatch=minibatch)
    steps, checkpoints = [1, chunk, 2 * chunk + 50], [chunk + 1, 3 * chunk + 40]
    lone = [run_chain("psgla", smooth, g, cfg, x0, stream_id=c) for c in range(num_chains)]
    ref = run_chain("psgla", smooth, g, cfg, x0, mean_checkpoints=checkpoints)
    built, init = [], RngStream.__init__

    def counted(self, *args, **kwargs):
        built.append(threading.current_thread())
        init(self, *args, **kwargs)

    monkeypatch.setattr(RngStream, "__init__", counted)
    switch_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        res = run_ensemble("psgla", smooth, g, cfg, num_chains, steps, x0,
                           mean_checkpoints=checkpoints)
    finally:
        sys.setswitchinterval(switch_s)
    assert 1 <= len(built) <= samplers._cpu_count() + 1
    assert set(built) == {threading.current_thread()}
    for c in range(num_chains):
        for k in steps:
            assert np.array_equal(res.snapshot(k)[c], lone[c].primal[k - 1])
    assert np.array_equal(res.trace.primal, ref.primal)
    assert len(res.trace.mean_checkpoints) == len(ref.mean_checkpoints) == 2
    for (_, ours), (_, theirs) in zip(res.trace.mean_checkpoints, ref.mean_checkpoints):
        assert np.array_equal(ours, theirs)


@pytest.mark.parametrize(
    "sampler, space, minibatch, w",
    [
        ("psgla", "flat", "full", None),
        ("psgla", "sym", "full", None),
        ("ula", "flat", "full", None),
        ("psgla", "sym", 3, None),
        ("spla", "flat", 2, 0.4),
        ("spla", "sym", "full", 0.4),
    ],
)
def test_ensemble_trace_of_chain_zero_equals_run_chain(sampler, space, minibatch, w):
    """Given mean checkpoints, the ensemble also records chain 0; past the
    last snapshot chain 0 goes on alone on its stream, across a noise chunk
    boundary, and its trace equals run_chain's on stream 0 bit for bit."""
    smooth, g, x0 = _matrix_problem(3) if space == "sym" else _flat_problem()
    chunk = 1024 // x0.size
    cfg = SamplerConfig(0.02, chunk + 40, burn_in=5, record_every=3, record_duals=True,
                        seed=25, minibatch=minibatch, spla_r_weight=w)
    checkpoints = [6, chunk // 2, chunk + 1, chunk + 40]
    res = run_ensemble(sampler, smooth, g, cfg, 5, [0, chunk // 2], x0,
                       mean_checkpoints=checkpoints)
    ref = run_chain(sampler, smooth, g, cfg, x0, mean_checkpoints=checkpoints)
    assert res.trace.steps == ref.steps
    assert np.array_equal(res.trace.primal, ref.primal)
    assert np.array_equal(res.trace.duals, ref.duals)
    assert [k for k, _ in res.trace.mean_checkpoints] == checkpoints
    for (_, ours), (_, theirs) in zip(res.trace.mean_checkpoints, ref.mean_checkpoints):
        assert np.array_equal(ours, theirs)
    assert run_ensemble(sampler, smooth, g, cfg, 5, [chunk // 2], x0).trace is None


def test_ensemble_checks_its_mean_checkpoints_before_any_step(box_quadratic, monkeypatch):
    smooth, box = box_quadratic
    cfg = SamplerConfig(gamma=0.1, num_steps=10, seed=0)
    monkeypatch.setattr(samplers, "gaussian", lambda *a, **k: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match="distinct"):
        run_ensemble("psgla", smooth, box, cfg, 3, [4], np.zeros(2), mean_checkpoints=[5, 5])


@pytest.mark.parametrize("d", [2, 5, 10])
@pytest.mark.parametrize("sampler", ["ula", "psgla", "projected", "myula", "spla"])
def test_ensemble_matches_chains_on_a_non_diagonal_quadratic(sampler, d):
    """A dense H puts a d-term sum in every gradient coordinate; the batch
    and the lone chain must still form it the same way."""
    rng = RngStream(22, d)
    b = rng.standard_normal((d, d))
    f = Quadratic(b @ b.T / d + 0.5 * np.eye(d), rng.standard_normal(d))
    g = BoxIndicator(-5.0 * np.ones(d), 5.0 * np.ones(d))
    cfg = SamplerConfig(0.5 / f.L, 50, seed=23, myula_lambda=0.3, spla_r_weight=0.3)
    x0 = np.full(d, 0.1)
    res = run_ensemble(sampler, f, g, cfg, 4, [50], x0)
    for c in range(4):
        trace = run_chain(sampler, f, g, cfg, x0, stream_id=c)
        assert np.array_equal(res.snapshot(50)[c], trace.primal[-1])


def _reference_chain(sampler, smooth, g, cfg, x0):
    """The update equations of the samplers module docstring, one step at a
    time on one point: [(x_half, x_new)] per step, x_half None for ula and
    myula.  Draw order per step: minibatch indices, noise, R entry j (drawn
    when d > 1), whose soft threshold by gamma w is SPLA's R step."""
    rng = RngStream(cfg.seed, 0)
    lam, x, out = cfg.myula_lambda, x0, []
    d, w = x0.shape[0], cfg.spla_r_weight
    for _ in range(cfg.num_steps):
        grad = smooth.stochastic_gradient(x, rng, cfg.minibatch)
        if sampler == "myula":
            grad = grad + (x - g.prox(lam, x)) / lam
        x_half = x - cfg.gamma * grad + math.sqrt(2.0 * cfg.gamma) * gaussian(rng, x0.shape)
        if sampler == "spla" and w:
            entry = (int(rng.integers(d)) if d > 1 else 0,) * x0.ndim
            v = x_half[entry]
            x_half[entry] = np.sign(v) * max(abs(v) - cfg.gamma * w, 0.0)
        if sampler in ("ula", "myula"):
            x, x_half = x_half, None
        else:
            x = g.prox(cfg.gamma, x_half)
        out.append((x_half, x))
    return out


def _precision_1d_problem():
    """The d=1 posterior of proxlmc sample's wishart-precision runs: a
    precision likelihood under a scalar log barrier."""
    data = RngStream(26, 0).standard_normal((50, 1))
    return PrecisionLikelihood(data, 1), LogBarrier(25.0, 0.5), np.ones(1)


_PROBLEMS = {"flat": _flat_problem, "sym": lambda: _matrix_problem(3),
             "precision-1d": _precision_1d_problem}


@pytest.mark.parametrize("minibatch", ["full", 2])
@pytest.mark.parametrize("space", ["flat", "sym", "precision-1d"])
@pytest.mark.parametrize("sampler", ["ula", "psgla", "projected", "myula", "spla"])
def test_run_chain_matches_the_reference_update_bitwise(sampler, space, minibatch):
    """run_chain, which shares its kernel with run_ensemble, against the
    per-step updates written out independently."""
    smooth, g, x0 = _PROBLEMS[space]()
    if sampler == "projected" and space != "flat":
        # projected Langevin needs an indicator G
        g = Spectral(LogBarrier(0.0, 0.0), 3) if space == "sym" else LogBarrier(0.0, 0.0)
    cfg = SamplerConfig(0.02, 30, seed=24, minibatch=minibatch, myula_lambda=0.3,
                        record_duals=True, spla_r_weight=0.4)
    trace = run_chain(sampler, smooth, g, cfg, x0)
    ref = _reference_chain(sampler, smooth, g, cfg, x0)
    assert len(trace.primal) == len(ref) == 30
    for k, (x_half, x_new) in enumerate(ref):
        assert np.array_equal(trace.primal[k], x_new)
        if x_half is not None:
            assert np.array_equal(trace.duals[k], (x_half - x_new) / cfg.gamma)
    assert len(trace.duals) == (0 if sampler in ("ula", "myula") else 30)


@pytest.mark.parametrize("sampler, minibatch", [("psgla", 2), ("spla", "full"), ("spla", 2)])
@pytest.mark.parametrize("space", ["flat", "sym", "precision-1d"])
def test_run_chain_matches_the_reference_update_across_draw_chunks(sampler, space, minibatch):
    """Minibatch indices, noise and SPLA's R entries are pre-drawn per
    chunk of 1024 // size steps; over two chunk boundaries and a partial
    last chunk, each step still equals the reference update drawing one
    step at a time."""
    smooth, g, x0 = _PROBLEMS[space]()
    num_steps = 2 * (1024 // x0.size) + 7
    cfg = SamplerConfig(0.02, num_steps, seed=27, minibatch=minibatch, record_duals=True,
                        spla_r_weight=0.4)
    trace = run_chain(sampler, smooth, g, cfg, x0)
    ref = _reference_chain(sampler, smooth, g, cfg, x0)
    assert len(trace.primal) == len(ref) == num_steps
    for k, (x_half, x_new) in enumerate(ref):
        assert np.array_equal(trace.primal[k], x_new)
        assert np.array_equal(trace.duals[k], (x_half - x_new) / cfg.gamma)


@pytest.mark.parametrize("sampler, minibatch", [("psgla", "full"), ("psgla", 2), ("spla", "full")])
@pytest.mark.parametrize("space", ["flat", "sym", "precision-1d"])
def test_chain_zero_goes_on_from_a_mid_chunk_snapshot_on_an_untouched_stream(
    sampler, space, minibatch
):
    """The ensemble's pre-draws stop at its last snapshot, here inside its
    second chunk; chain 0 then draws on alone from there, over chunks of
    its own, and its trace equals run_chain on stream 0 bit for bit."""
    smooth, g, x0 = _PROBLEMS[space]()
    chunk = 1024 // x0.size
    num_steps = 3 * chunk + 5
    cfg = SamplerConfig(0.02, num_steps, seed=28, minibatch=minibatch, record_duals=True,
                        spla_r_weight=0.4)
    checkpoints = [chunk, chunk + chunk // 2 + 1, num_steps]
    res = run_ensemble(sampler, smooth, g, cfg, 3, [chunk + chunk // 2], x0,
                       mean_checkpoints=checkpoints)
    ref = run_chain(sampler, smooth, g, cfg, x0, mean_checkpoints=checkpoints)
    assert np.array_equal(res.trace.primal, ref.primal)
    assert np.array_equal(res.trace.duals, ref.duals)
    for (_, ours), (_, theirs) in zip(res.trace.mean_checkpoints, ref.mean_checkpoints):
        assert np.array_equal(ours, theirs)
    lone = run_chain(sampler, smooth, g, cfg, x0, stream_id=2)
    assert np.array_equal(res.snapshot(chunk + chunk // 2)[2], lone.primal[chunk + chunk // 2 - 1])


def test_spla_ensemble_drawing_entries_keeps_its_digest():
    """A flat d = 3 SPLA ensemble with minibatch 2 draws, per step, the
    minibatch indices, the noise and the entry its R-prox soft-thresholds.
    Its snapshot past the first chunk and chain 0's trace, recorded on alone
    to num_steps, are pinned by sha256: no eigensolve and no BLAS product is
    on their path.  The digest was computed while R was still a list of one
    AbsoluteValue component per entry."""
    data = RngStream(29, 0).standard_normal((6, 3))
    smooth, g, x0 = QuadraticSum(data), BoxIndicator(-np.ones(3), np.ones(3)), np.full(3, 0.2)
    chunk = 1024 // 3
    cfg = SamplerConfig(0.02, 2 * chunk + 30, burn_in=10, record_every=2, seed=30, minibatch=2,
                        record_duals=True, spla_r_weight=2.0)
    res = run_ensemble("spla", smooth, g, cfg, 5, [chunk + 20], x0,
                       mean_checkpoints=[chunk, 2 * chunk + 30])
    h = hashlib.sha256()
    for a in (res.snapshot(chunk + 20), res.trace.primal, res.trace.duals,
              *(m for _, m in res.trace.mean_checkpoints)):
        h.update(a.tobytes())
    assert h.hexdigest() == "59f5b3268ab8d75886d5599632097da73cac88cb2d08d9004f43e0e3f9bee04a"


def test_ula_ensemble_reaches_the_biased_stationary_variance():
    """ULA on N(0,1) has stationary variance 1/(1 - gamma/2) exactly."""
    f = Quadratic(np.array([[1.0]]), np.zeros(1))
    gamma = 0.5
    cfg = SamplerConfig(gamma=gamma, num_steps=300, seed=18)
    res = run_ensemble("ula", f, BoxIndicator(-np.inf, np.inf), cfg, 4000, [300], np.zeros(1))
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
    inf = float("inf")
    for name, args in (("eps", (inf, 1.0, 1.0, 1.0, 1.0)), ("lambda_f", (0.1, 1.0, inf, 1.0, 1.0)),
                       ("C", (0.1, 1.0, 1.0, inf, 1.0))):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf"):
            tune_for_epsilon(*args)


@pytest.mark.parametrize("L, w0_sq, name", [
    (float("nan"), 1.0, "L"), (-1.0, 1.0, "L"), (1.0, float("nan"), "w0_sq"), (1.0, -1.0, "w0_sq"),
    (float("inf"), 1.0, "L"), (1.0, float("inf"), "w0_sq"),
])
def test_tune_for_epsilon_rejects_out_of_range_l_and_w0(L, w0_sq, name):
    rule = "finite" if L == float("inf") or w0_sq == float("inf") else ">= 0"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}"):
        tune_for_epsilon(0.1, L, 1.0, 2.0, w0_sq)
