"""State spaces for the samplers.

Two kinds of state are supported: flat vectors in R^d and symmetric d x d
matrices equipped with the trace inner product <a, b> = tr(ab).  Points are
plain numpy arrays, and a point's shape, (d,) or (d, d), is its space:
:func:`check_point` states the one shape rule, and :func:`gaussian`,
:func:`ambient_dim` and the coordinate maps take the shape.

Randomness comes from :class:`RngStream`, a counter-based Philox stream keyed
by (seed, stream_id).  Identical keys replay identical sequences; distinct
stream ids share no state, which is what lets ensemble chains run on
stream_id = chain index without coordination.
"""

from __future__ import annotations

import numpy as np

_TWO64 = 2**64


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Backed by the Philox counter-based bit generator, so the mapping
    (seed, stream_id) -> sequence is injective and reproducible across
    runs and platforms.  Batched draws consume the stream exactly like
    the same draws issued one at a time.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if stream_id < 0:
            raise ValueError(f"stream_id must be >= 0, got {stream_id}")
        self.seed = int(seed) % _TWO64
        self.stream_id = int(stream_id)
        key = np.array([self.seed, self.stream_id % _TWO64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

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


def check_point(x) -> np.ndarray:
    """x as a float array, checked to be a point: a vector in R^d or a
    symmetric d x d matrix, d >= 1."""
    x = np.asarray(x, dtype=float)
    if not (x.ndim == 1 or (x.ndim == 2 and x.shape[0] == x.shape[1])):
        raise ValueError(f"cannot infer state space from point of shape {x.shape}")
    if x.shape[0] < 1:
        raise ValueError(f"dimension must be >= 1, got {x.shape[0]}")
    if x.ndim == 2 and not np.array_equal(x, x.T):
        raise ValueError("symmetric-kind point has asymmetric data")
    return x


def ambient_dim(shape) -> int:
    """Number of free coordinates of a point of this shape: d for a vector,
    d(d+1)/2 for a symmetric d x d matrix."""
    d = shape[0]
    return d if len(shape) == 1 else d * (d + 1) // 2


def gaussian(rng: RngStream, shape, size: int | None = None) -> np.ndarray:
    """Standard Gaussian point(s) of the given shape.

    Vectors: iid N(0,1) coordinates.  Symmetric matrices: N(0,1) on the
    diagonal and N(0,1/2) off-diagonal, mirrored, which is the standard
    Gaussian for the trace inner product.  With ``size`` given, returns a
    leading batch axis; batch draws replay identically to repeated single
    draws.
    """
    a = rng.standard_normal(tuple(shape) if size is None else (size, *shape))
    if len(shape) == 1:
        return a
    return (a + np.swapaxes(a, -1, -2)) / 2.0


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


class EigenFailure(RuntimeError):
    """Eigendecomposition did not converge; signals numerical pathology."""


def sym_eigendecomposition(m: np.ndarray):
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    (..., d, d) stack in one LAPACK call, as numpy's (eigenvalues,
    eigenvectors) pair: eigenvalues ascending, orthonormal eigenvector
    columns, both with the stack's leading axes.

    Each matrix must be symmetric to a relative tolerance and is then
    symmetrized; exactly symmetric input, such as every chain iterate, skips
    both and reaches eigh as it is.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    if not (m == m.mT).all():
        scale = np.fmax(1.0, np.linalg.norm(m, axis=(-2, -1)))  # max(1.0, nan) is 1.0
        if (np.max(np.abs(m - m.mT), axis=(-2, -1)) > 1e-8 * scale).any():
            raise ValueError("matrix is not symmetric")
        m = (m + m.mT) / 2.0
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
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


def unflatten_point(coords: np.ndarray, shape) -> np.ndarray:
    """The point of the given shape with these free coordinates."""
    coords = np.asarray(coords, dtype=float)
    m = ambient_dim(shape)
    if coords.shape != (m,):
        raise ValueError(f"expected {m} coordinates, got shape {coords.shape}")
    if len(shape) == 1:
        return coords.copy()
    out = np.zeros(shape)
    iu, ju = np.triu_indices(shape[0])
    out[iu, ju] = coords
    out[ju, iu] = coords
    return out
