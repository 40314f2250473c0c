import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxlmc import (
    AbsoluteValue,
    BoxIndicator,
    EigenFailure,
    LogBarrier,
    Quadratic,
    RngStream,
    SamplerConfig,
    Spectral,
    TruncGaussSpec,
    WishartExperimentSpec,
    ZeroSmooth,
    ambient_dim,
    check_point,
    estimate_C,
    gaussian,
    generate_gaussian_data,
    inner,
    norm,
    pdpg_gap_check,
    run_chain,
    run_ensemble,
    sample_wishart,
    spectral_apply,
    sym_eigendecomposition,
)
from proxlmc import samplers
from proxlmc.space import _position, _seek, flatten_points, frobenius


# ---------------------------------------------------------------------------
# counter-based streams
# ---------------------------------------------------------------------------

def test_stream_replay_is_exact():
    a = RngStream(12, 3).standard_normal(100)
    b = RngStream(12, 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    base = RngStream(12, 0).standard_normal(64)
    assert not np.array_equal(base, RngStream(12, 1).standard_normal(64))
    assert not np.array_equal(base, RngStream(13, 0).standard_normal(64))


def test_batched_draws_match_sequential_draws():
    # the vectorized ensemble path leans on this equivalence
    batch = RngStream(7, 2).standard_normal(9)
    r = RngStream(7, 2)
    singles = np.array([r.standard_normal() for _ in range(9)])
    assert np.array_equal(batch, singles)

    shaped = RngStream(7, 2).standard_normal((3, 3))
    assert np.array_equal(shaped.ravel(), batch)


def test_stream_other_draws():
    r = RngStream(5, 0)
    ints = RngStream(5, 0).integers(10, size=1000)
    assert ints.min() >= 0 and ints.max() <= 9
    assert RngStream(5, 0).integers(10) == ints[0]
    u = RngStream(5, 1).uniform(500)
    assert np.all((0.0 <= u) & (u < 1.0))
    g = RngStream(5, 2).standard_gamma(2.5, size=100)
    assert np.all(g > 0)
    assert np.array_equal(g, RngStream(5, 2).standard_gamma(2.5, size=100))
    assert isinstance(r.uniform(), float)


def test_stream_rejects_negative_stream_id():
    with pytest.raises(ValueError):
        RngStream(0, -1)


def _same_state(a, b):
    """Bit generator states equal key by key, arrays element by element."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype


@pytest.mark.parametrize("stream_id", [0, 2**64 - 1])
@pytest.mark.parametrize("seed", [0, -1, 2**63])
def test_stream_is_philox_at_its_key(seed, stream_id):
    """A stream starts in, and steps through, the states of Philox keyed by
    [seed mod 2**64, stream_id], and survives a pickle or deepcopy."""
    key = np.array([seed % 2**64, stream_id], dtype=np.uint64)
    ref = np.random.Generator(np.random.Philox(key=key))
    stream = RngStream(seed, stream_id)
    assert _same_state(stream._gen.bit_generator.state, ref.bit_generator.state)
    pairs = [
        (stream.standard_normal(5), ref.standard_normal(5)),
        (stream.integers(7, size=3), ref.integers(0, 7, size=3)),
        (stream.standard_gamma(2.5, size=4), ref.standard_gamma(2.5, size=4)),
        (stream.uniform(2), ref.uniform(size=2)),
        (stream.standard_normal(), ref.standard_normal()),
        (stream.integers(2**40), ref.integers(0, 2**40)),
    ]
    assert all(np.array_equal(got, want) for got, want in pairs)
    assert _same_state(stream._gen.bit_generator.state, ref.bit_generator.state)
    for twin in (pickle.loads(pickle.dumps(stream)), copy.deepcopy(stream)):
        assert (twin.seed, twin.stream_id) == (seed % 2**64, stream_id)
        assert _same_state(twin._gen.bit_generator.state, ref.bit_generator.state)
        assert np.array_equal(twin.standard_normal(4), copy.deepcopy(stream).standard_normal(4))
    assert np.array_equal(stream.uniform(3), ref.uniform(size=3))


def test_a_position_holds_no_array():
    """A chain that draws again keeps its position between chunks, one per
    chain of an ensemble: plain ints, not the state getter's three arrays,
    which held twice the memory."""
    rng = RngStream(5, 9)
    rng.integers(7, size=3)
    position = _position(rng)
    leaves = [v for p in position for v in (p if isinstance(p, tuple) else (p,))]
    assert len(leaves) == 12 and all(type(v) is int for v in leaves)
    rekeyed = RngStream(5)
    _seek(rekeyed, position)
    assert _position(rekeyed) == position
    assert np.array_equal(rekeyed.standard_normal(3), rng.standard_normal(3))


def test_a_stream_reads_no_os_entropy(monkeypatch):
    """Every stream is keyed by _seek from a generator seeded with a fixed
    seed sequence, so neither a stream nor an ensemble's worker generators
    ask the OS for entropy, which an unseeded Philox does."""
    def no_entropy(*args, **kwargs):
        raise AssertionError("OS entropy read")

    want = np.random.Generator(np.random.Philox(key=[5, 2**32])).standard_normal(3)
    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    with pytest.raises(AssertionError, match="OS entropy read"):
        np.random.Philox(key=[5, 2**32])  # a key alone still seeds from the OS first
    assert np.array_equal(RngStream(5, 2**32).standard_normal(3), want)
    monkeypatch.setattr(samplers, "_cpu_count", lambda: 2)
    monkeypatch.setattr(samplers, "_TILE_BYTES", 8 * 10 * 2)  # three tiles of two chains
    res = run_ensemble("ula", *_FREE, SamplerConfig(0.1, 10, seed=-1), 5, [10], np.zeros(1))
    assert np.isfinite(res.snapshot(10)).all()


def _draw(rng, kind, size):
    """One call of the kinds the kernel makes: minibatch indices (a small n
    leaves half a uint64 buffered), a stack of vectors, or a symmetric matrix."""
    if kind == "integers":
        return rng.integers(10 * size + 1, size=size)
    if kind == "vectors":
        return gaussian(rng, (size,), out=np.empty((2, size)))
    return gaussian(rng, (size, size))


_CALLS = st.lists(
    st.tuples(st.sampled_from(["integers", "vectors", "sym"]), st.integers(1, 5), st.booleans()),
    min_size=1, max_size=12,
)


@pytest.mark.parametrize("stream_id", [0, 2**64 - 1])
@pytest.mark.parametrize("seed", [-1, 2**64 + 5])
@given(calls=_CALLS)
def test_a_rekeyed_generator_draws_what_its_stream_draws(seed, stream_id, calls):
    """A generator of the seed set to a stream's start draws what
    RngStream(seed, stream_id) draws, call for call, when between any two
    calls its position is saved, another chain draws on it, and the position
    is restored; the other chain's draws are its own stream's too."""
    ref = RngStream(seed, stream_id)
    other_ref, other = RngStream(seed, stream_id ^ 1), stream_id ^ 1
    rng = RngStream(seed, 4)  # its own stream is left
    _seek(rng, stream_id)
    for kind, size, switch in calls:
        assert np.array_equal(_draw(rng, kind, size), _draw(ref, kind, size))
        if switch:
            saved = _position(rng)
            _seek(rng, other)
            assert repr(rng) == repr(other_ref)
            assert np.array_equal(_draw(rng, kind, size), _draw(other_ref, kind, size))
            other = _position(rng)
            _seek(rng, saved)
    assert repr(rng) == repr(ref)
    assert _same_state(rng._gen.bit_generator.state, ref._gen.bit_generator.state)


@pytest.mark.parametrize("seed, stream_id, what", [
    (1.5, 0, "seed"), (True, 0, "seed"), ("1", 0, "seed"), (np.float64(2.0), 0, "seed"),
    (0, 1.0, "stream_id"), (0, False, "stream_id"), (0, np.array(3), "stream_id"),
])
def test_stream_rejects_non_integer_keys(seed, stream_id, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer"):
        RngStream(seed, stream_id)


@pytest.mark.parametrize("stream_id", [2**64, 2**64 + 1])
def test_stream_rejects_stream_ids_past_64_bits(stream_id):
    """2**64 + 1 used to wrap onto stream 1 and replay it."""
    with pytest.raises(ValueError, match="stream_id must be in"):
        RngStream(0, stream_id)


def test_stream_takes_numpy_integers_and_wraps_negative_seeds():
    a = RngStream(np.int64(-3), np.uint64(2**64 - 1))
    b = RngStream(2**64 - 3, 2**64 - 1)
    assert (a.seed, a.stream_id) == (b.seed, b.stream_id)
    assert type(a.seed) is int and type(a.stream_id) is int
    assert np.array_equal(a.standard_normal(8), b.standard_normal(8))


_FREE = (ZeroSmooth(), BoxIndicator(-np.inf, np.inf))


@pytest.mark.parametrize("build, message", [
    (lambda: SamplerConfig(0.1, 10, record_duals="no"), "record_duals must be a bool"),
    (lambda: SamplerConfig(10**400, 10), "gamma must be a finite number"),
    (lambda: run_ensemble("ula", *_FREE, SamplerConfig(0.1, 10), 2, 10, np.zeros(1)),
     "snapshot steps must be a list"),
    (lambda: run_chain("ula", *_FREE, SamplerConfig(0.1, 10), np.zeros(1), mean_checkpoints=5),
     "mean checkpoints must be a list"),
    (lambda: LogBarrier(True, 0), "alpha must be a finite number >= 0, got True"),
    (lambda: LogBarrier("1", 0), "alpha must be a finite number >= 0, got '1'"),
    (lambda: LogBarrier(1, "0"), "beta must be a finite number, got '0'"),
    (lambda: AbsoluteValue(True), "weight must be a finite number >= 0, got True"),
    (lambda: SamplerConfig(0.1, 10, spla_r_weight="1"),
     "spla_r_weight must be a finite number >= 0, got '1'"),
    (lambda: WishartExperimentSpec("precision", "3", 5.0, np.ones((4, 3))),
     "d must be an integer, got '3'"),
    (lambda: WishartExperimentSpec("precision", 3, "5", np.ones((4, 3))), "got nu='5'"),
    (lambda: TruncGaussSpec(mean="0"), "need finite mean, lo, hi"),
    (lambda: sample_wishart(5.0, np.full((2, 2), np.nan), RngStream(1, 0), 3),
     "sample_wishart needs a finite matrix"),
    (lambda: sample_wishart(5.0, np.eye(2), RngStream(1, 0), -1), "size must be >= 1, got -1"),
    (lambda: sample_wishart(5.0, np.eye(2), RngStream(1, 0), 2.5),
     "size must be an integer, got 2.5"),
    (lambda: generate_gaussian_data(2.5, 1, RngStream(1, 0)), "n must be an integer, got 2.5"),
    (lambda: pdpg_gap_check(Quadratic(np.eye(1), np.zeros(1)), _FREE[1], 0.5, np.ones(1), 0),
     "num_iters must be >= 1, got 0"),
    (lambda: pdpg_gap_check(Quadratic(np.eye(1), np.zeros(1)), _FREE[1], 0.5, np.ones(1), -1),
     "num_iters must be >= 1, got -1"),
    (lambda: estimate_C(np.ones((3, 1)), LogBarrier(1, 0), np.nan, 1, 0.0),
     "L must be a finite number >= 0, got nan"),
    (lambda: Spectral(LogBarrier(1, 0), 0), "d must be >= 1, got 0"),
    (lambda: Spectral(LogBarrier(1, 0), True), "d must be an integer, got True"),
], ids=["record_duals", "huge-gamma", "snapshot-steps", "mean-checkpoints", "alpha-bool",
        "alpha-str", "beta-str", "abs-weight", "entry-weight", "wishart-d", "wishart-nu",
        "trunc-mean", "wishart-draw-nan", "wishart-draw-size-negative",
        "wishart-draw-size-float", "data-n-float", "pdpg-zero-iters", "pdpg-negative-iters",
        "estimate-c-nan-L", "spectral-d-zero", "spectral-d-bool"])
def test_public_constructors_reject_wrong_types_with_value_error(build, message):
    """These were accepted (record_duals "no", a bool or string weight taken as
    float(w), a Spectral lift on d = 0 or True), returned NaN (Wishart draws
    of a NaN v_inv, a C estimate at L = NaN), checked nothing (pdpg_gap_check
    over no iterations) or raised TypeError or OverflowError."""
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_public_constructors_take_numpy_scalars():
    assert SamplerConfig(np.float32(0.1), 10, record_duals=np.bool_(True)).record_duals
    assert LogBarrier(np.int64(2), np.float32(0.5)).alpha == 2.0
    assert AbsoluteValue(np.float64(0.5)).weight == 0.5
    assert AbsoluteValue(np.int8(1)).weight == 1.0
    assert SamplerConfig(0.1, 10, spla_r_weight=np.float32(0.5)).spla_r_weight == 0.5
    WishartExperimentSpec("precision", np.int64(3), np.float64(5.0), np.ones((4, 3)))
    TruncGaussSpec(mean=np.float64(0.5), lo=np.int64(-1))


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_flat_space_basics():
    assert ambient_dim((3,)) == 3
    x = check_point([1, 2, 3])
    assert x.dtype == float and np.array_equal(x, [1.0, 2.0, 3.0])


def test_symmetric_space_basics():
    assert ambient_dim((4, 4)) == 10
    assert ambient_dim((1, 1)) == 1
    assert np.array_equal(check_point(np.eye(4)), np.eye(4))


def test_space_validation():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        check_point(np.zeros(0))
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        check_point(np.zeros((0, 0)))


def test_check_point_rejects_bad_shapes():
    for bad in (np.float64(1.0), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="cannot infer state space"):
            check_point(bad)
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetric"):
        check_point(asym)
    with pytest.raises(ValueError, match="asymmetric"):
        check_point(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_a_symmetric_point_may_hold_nan():
    """Finiteness is the caller's check; a NaN equals its mirror image here."""
    x = np.array([[np.nan, 0.0], [0.0, 1.0]])
    assert np.array_equal(check_point(x), x, equal_nan=True)


def test_symmetric_gaussian_is_exactly_symmetric():
    w = gaussian(RngStream(3, 0), (5, 5))
    assert np.array_equal(w, w.T)
    batch = gaussian(RngStream(3, 0), (5, 5), out=np.empty((7, 5, 5)))
    assert batch.shape == (7, 5, 5)
    assert np.array_equal(batch[0], w)


def test_symmetric_gaussian_moments():
    """Standard under the trace inner product: diagonal variance 1,
    off-diagonal variance 1/2."""
    w = gaussian(RngStream(17, 0), (3, 3), out=np.empty((20000, 3, 3)))
    var = w.var(axis=0)
    assert np.all(np.abs(var[np.eye(3, dtype=bool)] - 1.0) < 0.08)
    assert np.all(np.abs(var[~np.eye(3, dtype=bool)] - 0.5) < 0.05)


def test_symmetric_gaussian_isotropy():
    # E <W, A>^2 = ||A||_F^2 for symmetric A
    a = np.array([[1.0, 0.4, -0.2], [0.4, -0.5, 0.1], [-0.2, 0.1, 0.3]])
    w = gaussian(RngStream(19, 0), (3, 3), out=np.empty((20000, 3, 3)))
    proj = np.einsum("kij,ij->k", w, a)
    assert abs(proj.var() / norm(a) ** 2 - 1.0) < 0.06


@pytest.mark.parametrize("shape", [(4,), (3, 3)])
def test_gaussian_fills_out_with_the_drawn_bits(shape):
    out = np.empty((6, *shape))
    assert gaussian(RngStream(5, 2), shape, out=out) is out
    rng = RngStream(5, 2)  # a filled stack replays repeated single draws
    assert np.array_equal(out, [gaussian(rng, shape) for _ in range(6)])


def test_flat_gaussian_shapes():
    assert gaussian(RngStream(0, 0), (4,)).shape == (4,)
    assert gaussian(RngStream(0, 0), (4,), out=np.empty((6, 4))).shape == (6, 4)
    assert np.array_equal(gaussian(RngStream(0, 0), (4,)), RngStream(0, 0).standard_normal(4))


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_and_norm():
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    b = np.array([[0.5, 0.0], [0.0, 3.0]])
    assert inner(a, b) == pytest.approx(np.trace(a @ b))
    assert norm(a) == pytest.approx(np.sqrt(inner(a, a)))
    with pytest.raises(ValueError):
        inner(np.zeros(2), np.zeros(3))


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eigendecomposition_invariants():
    rng = RngStream(23, 0)
    for _ in range(200):
        d = 2 + int(rng.integers(19))
        b = rng.standard_normal((d, d))
        m = (b + b.T) / 2.0
        w, q = sym_eigendecomposition(m)
        assert np.all(np.diff(w) >= 0)
        scale = max(1.0, float(np.abs(w).max()))
        assert np.max(np.abs(q.T @ q - np.eye(d))) < 1e-10
        assert np.max(np.abs((q * w) @ q.T - m)) < 1e-10 * scale


def test_eigendecomposition_rejects_bad_input():
    with pytest.raises(ValueError):
        sym_eigendecomposition(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sym_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # stacks are checked per matrix: one asymmetric matrix fails the stack,
    # asymmetry within the relative tolerance passes
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigendecomposition(np.stack([np.eye(2), asym, np.eye(2)]))
    with pytest.raises(ValueError, match="not symmetric"):  # tolerance scales per matrix
        sym_eigendecomposition(np.stack([1e6 * np.eye(2), np.eye(2) + 1e-6 * asym]))
    with pytest.raises(ValueError):
        sym_eigendecomposition(np.zeros(3))
    near = np.stack([np.eye(2), np.eye(2) + 1e-10 * asym])
    assert sym_eigendecomposition(near).eigenvalues.shape == (2, 2)


def test_frobenius_scales_before_squaring():
    """In range it has the bits of the unscaled dot product; entries whose
    squares over- or underflow still give their norm, without a warning."""
    xs = RngStream(5, 0).standard_normal((50, 4, 4))
    flat = xs.reshape(50, -1)
    assert np.array_equal(frobenius(xs), np.sqrt(np.vecdot(flat, flat)))
    for scale in (1e-300, 1e-200, 1e200, 1e300):
        assert frobenius(scale * xs) == pytest.approx(scale * frobenius(xs), rel=1e-15, abs=0)
    assert frobenius(np.zeros((2, 2))) == 0.0
    assert np.isnan(frobenius(np.array([[np.nan, 1.0], [1.0, 1.0]])))
    assert frobenius(np.array([[np.inf, 1.0], [1.0, 1.0]])) == np.inf


def test_eigen_failure_is_a_runtime_error():
    assert issubclass(EigenFailure, RuntimeError)


def test_spectral_apply_known_values():
    m = np.diag([0.0, 1.0, 4.0])
    r = spectral_apply(np.sqrt, m)
    assert np.allclose(r, np.diag([0.0, 1.0, 2.0]))
    assert np.array_equal(r, r.T)

    b = RngStream(31, 0).standard_normal((4, 4))
    m = (b + b.T) / 2.0
    ident = spectral_apply(lambda v: v, m)
    assert np.max(np.abs(ident - m)) < 1e-12
    assert np.array_equal(ident, ident.T)

    # fn sees the whole ascending spectrum once, and the result is
    # Q fn(Lambda) Q^T symmetrized, bit for bit.
    seen = []

    def square(w):
        seen.append(w.copy())
        return w * w

    squared = spectral_apply(square, m)
    w, q = sym_eigendecomposition(m)
    assert len(seen) == 1 and np.array_equal(seen[0], w)
    expected = (q * (w * w)) @ q.T
    assert np.array_equal(squared, (expected + expected.T) / 2.0)
    assert np.max(np.abs(squared - m @ m)) < 1e-12


# ---------------------------------------------------------------------------
# flat coordinates
# ---------------------------------------------------------------------------

def test_flatten_layout():
    m = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    stack = flatten_points(np.stack([m, 2 * m]))
    assert np.array_equal(stack, [[1, 2, 3, 4, 5, 6.0], [2, 4, 6, 8, 10, 12.0]])
    assert np.array_equal(flatten_points(np.array([[1.0, 2, 3]])), [[1, 2, 3]])

