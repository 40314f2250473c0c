import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from proxlmc import (
    EigenFailure,
    RngStream,
    ambient_dim,
    check_point,
    gaussian,
    inner,
    norm,
    spectral_apply,
    sym_eigendecomposition,
)
from proxlmc.space import flatten_points, unflatten_point


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


def test_symmetric_gaussian_is_exactly_symmetric():
    w = gaussian(RngStream(3, 0), (5, 5))
    assert np.array_equal(w, w.T)
    batch = gaussian(RngStream(3, 0), (5, 5), size=7)
    assert batch.shape == (7, 5, 5)
    assert np.array_equal(batch[0], w)


def test_symmetric_gaussian_moments():
    """Standard under the trace inner product: diagonal variance 1,
    off-diagonal variance 1/2."""
    w = gaussian(RngStream(17, 0), (3, 3), size=20000)
    var = w.var(axis=0)
    assert np.all(np.abs(var[np.eye(3, dtype=bool)] - 1.0) < 0.08)
    assert np.all(np.abs(var[~np.eye(3, dtype=bool)] - 0.5) < 0.05)


def test_symmetric_gaussian_isotropy():
    # E <W, A>^2 = ||A||_F^2 for symmetric A
    a = np.array([[1.0, 0.4, -0.2], [0.4, -0.5, 0.1], [-0.2, 0.1, 0.3]])
    w = gaussian(RngStream(19, 0), (3, 3), size=20000)
    proj = np.einsum("kij,ij->k", w, a)
    assert abs(proj.var() / norm(a) ** 2 - 1.0) < 0.06


def test_flat_gaussian_shapes():
    assert gaussian(RngStream(0, 0), (4,)).shape == (4,)
    assert gaussian(RngStream(0, 0), (4,), size=6).shape == (6, 4)
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


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        unflatten_point(np.zeros(5), (3, 3))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_flatten_round_trip(d, seed):
    coords = RngStream(seed, 0).standard_normal(ambient_dim((d, d)))
    m = unflatten_point(coords, (d, d))
    assert np.array_equal(m, m.T)
    assert np.array_equal(flatten_points(m[None])[0], coords)
    assert np.array_equal(unflatten_point(coords, (len(coords),)), coords)
