"""Symmetric eigenvalues for the covariance-spectrum diagnostics, and the
one-thread pin for numpy's bundled OpenBLAS.

``jacobi_eigh`` checks its input, scales it by a power of two, and takes
the eigenvalues from LAPACK (``np.linalg.eigvalsh``) on one BLAS thread,
so the same matrix gives the same bytes whatever thread count the process
runs with.

``one_blas_thread`` runs a block with numpy's bundled OpenBLAS on one
thread, for results and timings that must not depend on the core count.
"""

import logging
import os
from contextlib import contextmanager
from functools import cache

import numpy as np

from .errors import ContractError, ShapeError

log = logging.getLogger(__name__)


def jacobi_eigh(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending, from LAPACK
    under ``one_blas_thread``.  The name is historical: the solver once ran
    Jacobi sweeps, and the tracer and the tests still know it by this name.

    Symmetry and finite entries are preconditions; any finite scale is
    accepted, and scaling the matrix by 2**k scales the result by 2**k
    bit for bit while both stay normal numbers.  A LAPACK failure to
    converge is raised as ``ContractError``.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"jacobi_eigh: expected square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError("jacobi_eigh: matrix has non-finite entries")
    # An exact power-of-two scaling puts the largest |entry| in [0.5, 1),
    # so the squares below neither overflow nor underflow, and LAPACK sees
    # the same matrix at every such scale.
    exp = int(np.frexp(np.abs(a).max(initial=0.0))[1])
    a = np.ldexp(a, -exp)
    scale = float(np.sqrt((a * a).sum()))
    # The unscaled matrix's tolerance, max(1e-10, 1e-10 * its norm), scaled.
    if not np.allclose(a, a.T, atol=max(np.ldexp(1e-10, -exp), 1e-10 * scale)):
        raise ContractError("jacobi_eigh: matrix is not symmetric")
    a = 0.5 * (a + a.T)
    try:
        with one_blas_thread():
            vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ContractError(f"jacobi_eigh: LAPACK did not converge ({exc})") from exc
    return np.ldexp(vals[::-1], exp)


@cache
def _openblas_thread_calls():
    """The get and set thread-count calls of numpy's bundled OpenBLAS,
    looked up once per process; ``OSError`` or ``AttributeError`` when the
    library or a call is missing, which is not cached."""
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
