"""Self-contained symmetric eigendecomposition.

It backs the covariance-spectrum diagnostics.  It is written out longhand
so the test suite can cross-check it against ``np.linalg`` rather than
having both sides call the same LAPACK routine.
"""

import numpy as np

from .errors import ContractError, ShapeError


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def jacobi_eigh(a, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns ``(eigvals, eigvecs)`` with eigenvalues sorted descending and
    eigenvectors in the matching columns.  Symmetry is a precondition.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"jacobi_eigh: expected square matrix, got {a.shape}")
    n = a.shape[0]
    scale = float(np.sqrt((a * a).sum()))
    if not np.allclose(a, a.T, atol=max(1e-10, 1e-10 * scale)):
        raise ContractError("jacobi_eigh: matrix is not symmetric")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= tol * max(scale, 1e-300):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-300 * abs(diff):
                    # theta would overflow; its limit gives t = 1/(2 theta).
                    t = apq / diff
                elif diff == 0.0:
                    t = 1.0
                else:
                    theta = diff / (2.0 * apq)
                    if abs(theta) > 1e150:
                        t = 1.0 / (2.0 * theta)
                    else:
                        # Smaller-angle root keeps rotations stable.
                        t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vcp, vcq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vcp - s * vcq
                v[:, q] = s * vcp + c * vcq

    eigvals = a.diagonal().copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order]
