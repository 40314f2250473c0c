"""State spaces for the samplers.

Two kinds of state are supported: flat vectors in R^d and symmetric d x d
matrices equipped with the trace inner product <a, b> = tr(ab).  Points are
plain numpy arrays; the :class:`Space` descriptor carries kind and dimension
and knows how to draw standard Gaussian elements of itself.

Randomness comes from :class:`RngStream`, a counter-based Philox stream keyed
by (seed, stream_id).  Identical keys replay identical sequences; distinct
stream ids share no state, which is what lets ensemble chains run on
stream_id = chain index without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FLAT = "flat"
SYMMETRIC = "symmetric"

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


@dataclass(frozen=True)
class Space:
    """Descriptor of the state space.

    kind is "flat" (vectors in R^d) or "symmetric" (symmetric d x d
    matrices under the trace inner product).
    """

    kind: str
    d: int

    def __post_init__(self):
        if self.kind not in (FLAT, SYMMETRIC):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")

    @property
    def ambient_dim(self) -> int:
        """Number of free coordinates: d for flat, d(d+1)/2 for symmetric."""
        if self.kind == FLAT:
            return self.d
        return self.d * (self.d + 1) // 2

    def point_shape(self) -> tuple:
        return (self.d,) if self.kind == FLAT else (self.d, self.d)

    def zero(self) -> np.ndarray:
        return np.zeros(self.point_shape())

    def identity(self) -> np.ndarray:
        if self.kind != SYMMETRIC:
            raise ValueError("identity point is defined for symmetric spaces only")
        return np.eye(self.d)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.point_shape():
            raise ValueError(
                f"point shape {x.shape} does not match space {self.kind} d={self.d}"
            )
        if self.kind == SYMMETRIC and not np.array_equal(x, x.T):
            raise ValueError("symmetric-kind point has asymmetric data")
        return x

    def gaussian(self, rng: RngStream, size: int | None = None) -> np.ndarray:
        """Standard Gaussian element(s) of the space.

        Flat: iid N(0,1) coordinates.  Symmetric: N(0,1) on the diagonal and
        N(0,1/2) off-diagonal, mirrored, which is the standard Gaussian for
        the trace inner product.  With ``size`` given, returns a leading batch
        axis; batch draws replay identically to repeated single draws.
        """
        if self.kind == FLAT:
            shape = (self.d,) if size is None else (size, self.d)
            return rng.standard_normal(shape)
        shape = (self.d, self.d) if size is None else (size, self.d, self.d)
        a = rng.standard_normal(shape)
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


@dataclass
class EigenDecomposition:
    """Spectral factorization M = basis @ diag(eigenvalues) @ basis.T.

    Eigenvalues are ascending; basis columns are orthonormal.  For a stack
    of matrices both fields carry the stack's leading axes.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def apply(self, fn) -> np.ndarray:
        """Q fn(Lambda) Q^T for fn elementwise on the eigenvalue array, per
        matrix of a (..., d, d) stack; exactly symmetric (symmetrized after
        reconstruction to kill matmul roundoff)."""
        m = (self.basis * fn(self.eigenvalues)[..., None, :]) @ self.basis.mT
        return (m + m.mT) / 2.0

    def reconstruct(self) -> np.ndarray:
        return self.apply(lambda w: w)


class EigenFailure(RuntimeError):
    """Eigendecomposition did not converge; signals numerical pathology."""


def sym_eigendecomposition(m: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a
    (..., d, d) stack in one LAPACK call; eigenvalues ascending.

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
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as err:
        raise EigenFailure(f"eigendecomposition failed to converge: {err}") from err
    return EigenDecomposition(eigenvalues=w, basis=v)


def spectral_apply(fn, m: np.ndarray) -> np.ndarray:
    """Apply a scalar function to the spectrum: Q f(Lambda) Q^T.

    m is one symmetric matrix or a (..., d, d) stack of them, mapped with
    one eigendecomposition call.  fn receives the whole ascending eigenvalue
    array (shape (..., d)) in one call and must act elementwise on it,
    returning a float array of the same shape (numpy ufuncs such as np.sqrt
    qualify).  Output is exactly symmetric.
    """
    return sym_eigendecomposition(m).apply(fn)


def _upper_indices(d: int):
    return np.triu_indices(d)


def flatten_point(space: Space, x: np.ndarray) -> np.ndarray:
    """Free coordinates of a point: the vector itself, or the upper triangle
    of a symmetric matrix in row-major order (diagonal included)."""
    return flatten_points(space, space.check_point(x)[None])[0].copy()


def flatten_points(space: Space, xs: np.ndarray) -> np.ndarray:
    """Free coordinates of each point of an (R, *shape) stack, in one
    indexing operation and without flatten_point's per-point checks."""
    if space.kind == FLAT:
        return xs
    iu, ju = _upper_indices(space.d)
    return xs[:, iu, ju]


def unflatten_point(space: Space, coords: np.ndarray) -> np.ndarray:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (space.ambient_dim,):
        raise ValueError(
            f"expected {space.ambient_dim} coordinates, got shape {coords.shape}"
        )
    if space.kind == FLAT:
        return coords.copy()
    out = np.zeros((space.d, space.d))
    iu, ju = _upper_indices(space.d)
    out[iu, ju] = coords
    out[ju, iu] = coords
    return out
