"""Machine-speed calibration kernels.

On a shared machine the speed of one core drifts by tens of percent over
minutes, and the drift hits LAPACK, vectorized numpy and interpreter-bound
code by different amounts.  Each workload call is therefore bracketed by a
short fixed kernel that repeats the operation mix of that workload's hot
loop in plain numpy, with no proxlmc code, and the median call time of a
run is scaled by ``REFERENCE_S`` over the median kernel time of the run:
seconds at the speed at which the kernel takes ``REFERENCE_S``.  A change
to proxlmc cannot change a kernel.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

_RNG_KEY = np.array([20260, 1017], dtype=np.uint64)


def _spectral():
    """Spectral-prox steps at d=10: symmetric noise, eigh, a per-eigenvalue
    Python map, reconstruction."""
    gen = np.random.Generator(np.random.Philox(key=_RNG_KEY))
    x = np.eye(10)
    for _ in range(400):
        a = gen.standard_normal((10, 10))
        m = x - 0.01 * x + 0.45 * (a + a.T) / 2.0
        w, v = np.linalg.eigh((m + m.T) / 2.0)
        vals = np.array([float(np.sqrt(t * t + 4.0) + t) / 2.0 for t in w])
        x = (v * vals) @ v.T
        x = (x + x.T) / 2.0
        bool(np.linalg.eigh(x)[0][0] > 0)
    return x


def _scalar():
    """1-d chain steps with a minibatch draw, a closed-form prox, a domain
    check and one CSV row each."""
    gen = np.random.Generator(np.random.Philox(key=_RNG_KEY))
    data = gen.standard_normal(50)
    out = csv.writer(io.StringIO())
    x = np.ones(1)
    for k in range(700):
        idx = gen.integers(0, 50, size=5)
        g = np.array([50 * np.mean(data[idx] ** 2) / 2.0])
        u = x - 0.01 * g + 0.1414 * gen.standard_normal((1,)) - 0.005
        root = np.sqrt(u * u + 0.54)
        x = np.where(u > 0, (u + root) / 2.0, 0.27 / (root - u))
        bool(np.all(np.isfinite(x)) and np.all(x > 0))
        out.writerow([str(k), repr(float(x[0])), repr(float(u[0])), "1"])
    return x


def _vector():
    """Per-chain Philox streams, chunked noise draws and clamped steps over
    a 4096-chain vector."""
    gens = [np.random.Generator(np.random.Philox(key=np.array([7, c], dtype=np.uint64)))
            for c in range(1024)]
    block = np.concatenate([g.standard_normal((4, 64)) for g in gens]).T
    xs = np.zeros(4096)
    for j in range(64):
        xs = np.clip(xs - 0.1 * (xs - 0.5) + 0.4472 * block[j], -1.0, 1.0)
    return xs


KERNELS = {"spectral": _spectral, "scalar": _scalar, "vector": _vector}
# Each kernel was sized to take about this long on the machine the benchmark
# was written on (2-core Intel Xeon, OpenBLAS on one thread).
REFERENCE_S = 0.05


def kernel_seconds(kind: str) -> float:
    """Wall time of one run of the named kernel."""
    fn = KERNELS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
