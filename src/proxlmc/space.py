"""State spaces for the samplers.

Two kinds of state are supported: flat vectors in R^d and symmetric d x d
matrices equipped with the trace inner product <a, b> = tr(ab).  Points are
plain numpy arrays, and a point's shape, (d,) or (d, d), is its space:
:func:`check_point` states the one shape rule, and :func:`gaussian` and
:func:`ambient_dim` take the shape.

Randomness comes from :class:`RngStream`, a counter-based Philox stream keyed
by (seed, stream_id).  The key is the whole stream: identical keys replay
identical sequences, and distinct stream ids share no state, which is what
lets ensemble chains run on stream_id = chain index without coordination.
A Philox stream is only its key and its counter, so one mechanism keys them
all: :func:`_seek` sets a generator of the seed to the start of stream
(seed, c), or to a position :func:`_position` saved.  A new stream is a
generator seeded without OS entropy and sought to its start; an ensemble
keeps a generator per worker, ~0.8 KiB, and a position per chain, ~0.45 KiB.
"""

from __future__ import annotations

import sys

import numpy as np

_TWO64 = 2**64


def _integer(v, what) -> int:
    """v as an int; a ValueError unless it is a Python or numpy integer (a bool is not)."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _finite_number(v) -> bool:
    """True for a Python or numpy int or float that a float holds finitely; a bool is not one."""
    if isinstance(v, (float, np.floating, np.integer)):
        return bool(np.isfinite(v))
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the Philox counter-based bit generator, so the mapping
    (seed, stream_id) -> sequence is injective and reproducible across
    runs and platforms.  Batched draws consume the stream exactly like
    the same draws issued one at a time.  seed is any integer, taken mod
    2**64; stream_id is an integer in [0, 2**64).  The generator starts on
    a throwaway key and is sought (:func:`_seek`) to its own.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = _integer(seed, "seed") % _TWO64
        stream_id = _integer(stream_id, "stream_id")
        if not 0 <= stream_id < _TWO64:
            raise ValueError(f"stream_id must be in [0, 2**64), got {stream_id}")
        self._gen = np.random.Generator(np.random.Philox(0))  # SeedSequence(0) reads no OS entropy
        _seek(self, stream_id)

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, n: int, size=None):
        """Uniform integers in [0, n)."""
        return self._gen.integers(0, n, size=size)

    def uniform(self, size=None):
        return self._gen.uniform(size=size)

    def standard_gamma(self, shape, size=None):
        return self._gen.standard_gamma(shape, size=size)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


def _position(rng: RngStream) -> tuple:
    """rng's stream id and moving Philox state, ~0.45 KiB of ints (its arrays took 1 KiB)."""
    s = rng._gen.bit_generator.state
    return (rng.stream_id, tuple(s["state"]["counter"].tolist()), tuple(s["buffer"].tolist()),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _seek(rng: RngStream, position) -> None:
    """Set rng to a :func:`_position`, or to the start of stream (rng.seed, c) given c."""
    rng.stream_id, counter, buffer, pos, has_uint32, uinteger = (
        position if isinstance(position, tuple) else (position, (0,) * 4, (0,) * 4, 4, 0, 0))
    rng._gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer": buffer, "buffer_pos": pos, "has_uint32": has_uint32,
        "uinteger": uinteger, "state": {"counter": counter, "key": (rng.seed, rng.stream_id)}}


def check_point(x) -> np.ndarray:
    """x as a float array, checked to be a point: a vector in R^d or a
    symmetric d x d matrix, d >= 1."""
    x = np.asarray(x, dtype=float)
    if not (x.ndim == 1 or (x.ndim == 2 and x.shape[0] == x.shape[1])):
        raise ValueError(f"cannot infer state space from point of shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"dimension must be >= 1, got {x.shape[0]}")
    if x.ndim == 2 and not np.array_equal(x, x.T, equal_nan=True):
        raise ValueError("symmetric-kind point has asymmetric data")
    return x


def ambient_dim(shape) -> int:
    """Number of free coordinates of a point of this shape: d for a vector,
    d(d+1)/2 for a symmetric d x d matrix."""
    d = shape[0]
    return d if len(shape) == 1 else d * (d + 1) // 2


def gaussian(rng: RngStream, shape, out=None) -> np.ndarray:
    """Standard Gaussian point of the given shape, or a stack of them filling
    ``out``, an array of shape (n, *shape).

    Vectors: iid N(0,1) coordinates.  Symmetric matrices: N(0,1) on the
    diagonal and N(0,1/2) off-diagonal, mirrored, which is the standard
    Gaussian for the trace inner product.  A filled stack replays n repeated
    single draws; the generator fills ``out`` in place, not an RngStream method.
    """
    a = rng.standard_normal(shape) if out is None else rng._gen.standard_normal(out=out)
    if len(shape) == 1:
        return a
    return np.divide(a + np.swapaxes(a, -1, -2), 2.0, out=out)


def inner(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product: Euclidean dot for flat points, tr(ab) for symmetric."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"inner product of mismatched shapes {a.shape} and {b.shape}")
    # tr(ab) = sum_ij a_ij b_ij for symmetric a, b; for vectors this is the dot.
    return float(np.vdot(a, b))


def norm(a: np.ndarray) -> float:
    return float(np.sqrt(inner(a, a)))


def frobenius(x: np.ndarray) -> np.ndarray:
    """||x||_F of a matrix or of each matrix of a stack, scaled by a power of
    two before squaring: no entry's square over- or underflows, and an
    in-range norm has the bits of the unscaled dot product."""
    flat = x.reshape(*x.shape[:-2], -1)
    _, e = np.frexp(np.abs(flat).max(axis=-1))
    scaled = np.ldexp(flat, -e[..., None])
    return np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), e)


class EigenFailure(RuntimeError):
    """Eigendecomposition did not converge; signals numerical pathology."""


def sym_eigendecomposition(m: np.ndarray):
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    (..., d, d) stack in one LAPACK call, as numpy's (eigenvalues,
    eigenvectors) pair: eigenvalues ascending, orthonormal eigenvector
    columns, both with the stack's leading axes.

    Each matrix must be symmetric to a relative tolerance and is then
    symmetrized; exactly symmetric input, such as every chain iterate, skips
    both and reaches eigh as it is.  A ValueError reports a non-finite entry
    on which eigh fails, and EigenFailure any other failure to converge.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not (m == m.mT).all():
        scale = np.fmax(1.0, frobenius(m))  # max(1.0, nan) is 1.0
        if (np.max(np.abs(m - m.mT), axis=(-2, -1)) > 1e-8 * scale).any():
            raise ValueError("matrix is not symmetric")
        m = (m + m.mT) / 2.0
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        # tested only once eigh has failed, so a converging call pays nothing
        if not np.isfinite(m).all():
            raise ValueError("cannot eigendecompose a matrix with a non-finite entry") from err
        raise EigenFailure(f"eigendecomposition failed to converge: {err}") from err


def spectral_apply(fn, m: np.ndarray) -> np.ndarray:
    """Apply a scalar function to the spectrum: Q f(Lambda) Q^T.

    m is one symmetric matrix or a (..., d, d) stack of them, mapped with
    one eigendecomposition call.  fn receives the whole ascending eigenvalue
    array (shape (..., d)) in one call and must act elementwise on it,
    returning a float array of the same shape (numpy ufuncs such as np.sqrt
    qualify).  Output is exactly symmetric: symmetrized after the
    reconstruction, which kills matmul roundoff.
    """
    w, q = sym_eigendecomposition(m)
    out = (q * fn(w)[..., None, :]) @ q.mT
    return (out + out.mT) / 2.0


def flatten_points(xs: np.ndarray) -> np.ndarray:
    """Free coordinates of each point of an (R, *shape) stack, in one
    indexing operation: the vector itself, or the upper triangle of a
    symmetric matrix in row-major order (diagonal included)."""
    if xs.ndim == 2:
        return xs
    iu, ju = np.triu_indices(xs.shape[-1])
    return xs[:, iu, ju]
