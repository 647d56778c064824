"""Self-contained symmetric eigenvalue solver for the covariance-spectrum
diagnostics.  It returns eigenvalues only, and is written out longhand so
the tests can cross-check it against ``np.linalg``.

Householder reflections reduce the matrix to tridiagonal form, one
vectorised rank-2 update per column (Martin, Reinsch and Wilkinson,
``tred1``), and implicit QL with shifts, in plain Python floats, finds the
tridiagonal's eigenvalues (Bowdler, Martin, Reinsch and Wilkinson,
``tql1``; both Numer. Math. 11, 1968).

``one_blas_thread`` runs a block with numpy's bundled OpenBLAS on one
thread, for timings whose cost model must not depend on the core count.
"""

import logging
import math
import os
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError

log = logging.getLogger(__name__)

# QL iterations allowed per eigenvalue, as in LAPACK's dsterf.
_QL_MAX_ITER = 30


def _tridiagonalize(a: np.ndarray) -> tuple[list, list]:
    """Diagonal and subdiagonal of a tridiagonal matrix similar to the
    symmetric ``a``, which is overwritten.  Column k's reflection
    H = I - v vᵀ/h maps a[k+1:, k] onto a multiple of the first unit vector;
    H A H is A - v qᵀ - q vᵀ on the trailing block, with p = A v / h and
    q = p - (v·p / 2h) v.  A column that is already zero below its first
    entry is skipped, so tridiagonal input passes through as it is."""
    e = []
    for k in range(a.shape[0] - 1):
        x = a[k + 1:, k]
        if not x[1:].any():
            e.append(float(x[0]))
            continue
        # A power-of-two scale puts the column's largest entry in [0.5, 1),
        # so its squares stay normal; v's scale cancels in the reflection.
        exp = int(np.frexp(np.abs(x).max())[1])
        v = np.ldexp(x, -exp)
        sigma = math.copysign(math.sqrt(float(v @ v)), float(v[0]))
        e.append(math.ldexp(-sigma, exp))
        h = sigma * (sigma + float(v[0]))
        v[0] += sigma
        t = a[k + 1:, k + 1:]
        p = (t @ v) / h
        q = p - (float(v @ p) / (2.0 * h)) * v
        t -= np.multiply.outer(v, q) + np.multiply.outer(q, v)
    return a.diagonal().tolist(), e


def _tql(d: list, e: list) -> list:
    """Eigenvalues of the symmetric tridiagonal with diagonal ``d`` and
    subdiagonal ``e`` (e[i] couples d[i] and d[i+1]), by ``tql1``.  e[m] is
    negligible when tst1 + |e[m]| == tst1, EISPACK's absolute test, so the
    zero cluster of a rank-deficient covariance deflates at once.  tst1 is
    the largest |d[i]| + |e[i]| of the whole matrix, not of the rows done so
    far as in ``tql1``: a tiny leading row deflates, not overflows a shift."""
    n = len(d)
    e = e + [0.0]
    tst1 = max((abs(di) + abs(ei) for di, ei in zip(d, e)), default=0.0)
    f = 0.0
    for l in range(n):
        m = l
        while tst1 + abs(e[m]) != tst1:
            m += 1
        it = 0
        while tst1 + abs(e[l]) != tst1:
            if it == _QL_MAX_ITER:
                raise ContractError(
                    f"jacobi_eigh: eigenvalue {l} not converged after {_QL_MAX_ITER}"
                    f" QL iterations (off-diagonal entry {e[l]:.3e})")
            it += 1
            # Shift by the eigenvalue of the leading 2x2 block nearer d[l].
            g = d[l]
            p = (d[l + 1] - g) / (2.0 * e[l])
            d[l] = e[l] / (p + math.copysign(math.hypot(p, 1.0), p))
            h = g - d[l]
            d[l + 1:] = [di - h for di in d[l + 1:]]
            f += h
            # One QL sweep by plane rotations from m up to l.
            p = d[m]
            c, s = 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                g = c * e[i]
                h = c * p
                r = math.hypot(p, e[i])
                e[i + 1] = s * r
                s = e[i] / r
                c = p / r
                p = c * d[i] - s * g
                d[i + 1] = h + s * (c * g + s * d[i])
            e[l] = s * p
            d[l] = c * p
        d[l] += f
    return d


def jacobi_eigh(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.  The name is
    historical: the solver once ran Jacobi sweeps.

    Symmetry and finite entries are preconditions; any finite scale is
    accepted, and scaling the matrix by 2**k scales the result by 2**k
    bit for bit while both stay normal numbers.  Raises ``ContractError``
    when an eigenvalue needs more than ``_QL_MAX_ITER`` QL iterations.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"jacobi_eigh: expected square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError("jacobi_eigh: matrix has non-finite entries")
    # An exact power-of-two scaling puts the largest |entry| in [0.5, 1),
    # so the squares below neither overflow nor underflow; the reduction
    # and the eigenvalues scale with it bit for bit.
    exp = int(np.frexp(np.abs(a).max(initial=0.0))[1])
    a = np.ldexp(a, -exp)
    scale = float(np.sqrt((a * a).sum()))
    # The unscaled matrix's tolerance, max(1e-10, 1e-10 * its norm), scaled.
    if not np.allclose(a, a.T, atol=max(np.ldexp(1e-10, -exp), 1e-10 * scale)):
        raise ContractError("jacobi_eigh: matrix is not symmetric")
    a = 0.5 * (a + a.T)
    return np.ldexp(np.sort(_tql(*_tridiagonalize(a)))[::-1], exp)


def _openblas_thread_calls():
    """The get and set thread-count calls of numpy's bundled OpenBLAS;
    ``OSError`` or ``AttributeError`` when the library or a call is missing."""
    import ctypes
    import glob

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*")
    libs = glob.glob(pattern)
    lib = ctypes.CDLL(libs[0] if libs else pattern)
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread, then
    restore the thread count it found.  Where that library or its thread
    calls are missing (another numpy build), log a warning and run the
    block unpinned."""
    try:
        get, set_ = _openblas_thread_calls()
    except (OSError, AttributeError) as exc:
        log.warning("one_blas_thread: no OpenBLAS thread calls (%s); the block runs"
                    " with the BLAS's own thread count", exc)
        yield
        return
    found = get()
    set_(1)
    try:
        yield
    finally:
        set_(found)
