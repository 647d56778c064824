"""Self-contained symmetric eigendecomposition.

It backs the covariance-spectrum diagnostics.  It is written out longhand
so the test suite can cross-check it against ``np.linalg`` rather than
having both sides call the same LAPACK routine.

The rotations follow the parallel (round-robin) ordering of R. P. Brent
and F. T. Luk, "The solution of singular-value and symmetric eigenvalue
problems on multiprocessor arrays", SIAM J. Sci. Stat. Comput. 6(1),
1985.  A sweep is n-1 stages (odd n is padded with a bye, giving n); each
stage pairs every index with one other, so its rotations touch disjoint
rows and columns and are applied together as one vectorised update.
"""

import numpy as np

from .errors import ContractError, ShapeError


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.sqrt((off * off).sum()))


def _round_robin(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The circle-method schedule for even m, as a layout and a step.

    In a layout, positions 2i and 2i+1 hold a pair.  ``layout`` orders the
    indices for the first stage; ``layout[step]`` is the next stage's
    order, and m-1 steps pair every two indices exactly once.
    """
    players = np.arange(m)
    moved = np.concatenate((players[:1], players[-1:], players[1:-1]))
    first, second = (np.column_stack((p[: m // 2], p[::-1][: m // 2])).ravel()
                     for p in (players, moved))
    return first, np.argsort(first)[second]


def _rotation(app, aqq, apq):
    """Cosines and sines of the rotations that zero each a[p, q]."""
    diff = aqq - app
    # Every branch is evaluated for every pair and the later np.where
    # calls take precedence, so the inf and nan of overridden branches are
    # discarded.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        theta = diff / (2.0 * apq)
        # Smaller-angle root keeps rotations stable.
        t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        t = np.where(np.abs(theta) > 1e150, 1.0 / (2.0 * theta), t)
        t = np.where(diff == 0.0, 1.0, t)
        # theta would overflow; its limit gives t = 1/(2 theta).
        t = np.where(np.abs(apq) < 1e-300 * np.abs(diff), apq / diff, t)
        t = np.where(apq == 0.0, 0.0, t)
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c


def jacobi_eigh(a, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by Jacobi rotations in
    Brent-Luk parallel order.

    Returns ``(eigvals, eigvecs)`` with eigenvalues sorted descending and
    eigenvectors in the matching columns.  Symmetry and finite entries are
    preconditions.  Raises ``ContractError`` when the off-diagonal norm is
    still above ``tol`` times the Frobenius norm after ``max_sweeps``.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"jacobi_eigh: expected square matrix, got {a.shape}")
    if not np.isfinite(a).all():
        raise ContractError("jacobi_eigh: matrix has non-finite entries")
    n = a.shape[0]
    scale = float(np.sqrt((a * a).sum()))
    if not np.allclose(a, a.T, atol=max(1e-10, 1e-10 * scale)):
        raise ContractError("jacobi_eigh: matrix is not symmetric")
    a = 0.5 * (a + a.T)
    if n == 1:
        return a.diagonal().copy(), np.eye(1)

    # Odd n gets a bye: a zero row and column, whose rotations are identities.
    m = n + n % 2
    layout, step = _round_robin(m)
    # Where each position of a stage's layout lands in the next layout.
    landing = np.argsort(step)
    padded = np.zeros((m, m))
    padded[:n, :n] = a
    # a and u are held in the current stage's layout; the rows of u are the
    # eigenvector estimates in the original coordinates.
    a = padded[np.ix_(layout, layout)]
    u = np.eye(m)[layout]
    target = tol * max(scale, 1e-300)
    for sweep in range(max_sweeps + 1):
        off = _offdiag_norm(a)
        if off <= target:
            break
        if sweep == max_sweeps:
            raise ContractError(
                f"jacobi_eigh: not converged after {max_sweeps} sweeps"
                f" (off-diagonal norm {off:.3e} > target {target:.3e})")
        for _ in range(m - 1):
            d = a.diagonal()
            c, s = _rotation(d[0::2], d[1::2], a[0::2, 1::2].diagonal())
            rot = np.stack((c, -s, s, c), axis=1).reshape(m // 2, 2, 2)
            # J^T A J as two row rotations, using (J^T A)^T = A J for
            # symmetric A; the next stage's layout is applied on the way.
            b = np.matmul(rot, a.reshape(m // 2, 2, m)).reshape(m, m)
            b = np.ascontiguousarray(b[step].T)
            a = np.matmul(rot, b.reshape(m // 2, 2, m)).reshape(m, m)[step]
            # Exact zeros: the rounding residue would cost rank-deficient
            # input extra sweeps.
            a[landing[0::2], landing[1::2]] = a[landing[1::2], landing[0::2]] = 0.0
            u = np.matmul(rot, u.reshape(m // 2, 2, m)).reshape(m, m)[step]
            layout = layout[step]

    rows = np.argsort(layout)[:n]
    eigvals = a.diagonal()[rows]
    v = u[rows, :n].T
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order]
