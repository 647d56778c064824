"""Neighborhood geometry: exact kNN, orthonormal bases, in-manifold noise.

Exact kNN is answered in two steps.  One matrix-vector product gives every
squared distance by the norm expansion |v|^2 - 2 v.q + |q|^2, with a
per-row forward-error bound.  Only the rows the bound cannot rule out of
the k nearest (a shortlist, typically little more than k) are then
re-ranked by the direct formula sum((v - q)^2), so the distances and
their tie-break equal those of a full direct scan bit for bit.

The in-manifold perturbation of a vector x is built from its k nearest
neighbors in a reference point set (the token-embedding vocabulary in
training, a synthetic manifold sample in diagnostics): the neighbor
differences are orthonormalized by modified Gram-Schmidt and a random
linear combination with i.i.d. N(0, sigma^2) coefficients is returned.
The result lies in the local tangent-ish subspace by construction.

A locally-linear-embedding residual (how well x is reconstructed as a
linear combination of its neighbors) serves as the flatness diagnostic.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor

log = logging.getLogger(__name__)

DEFAULT_K = 10
# A direction whose residual after projection drops below this fraction of
# its original norm is linearly dependent on the basis so far and is dropped.
GS_DROP_RATIO = 1e-8
# Rounding allowance per floating-point step: relative, plus the absolute
# error gradual underflow can add.
_EPS = float(np.finfo(np.float64).eps)
_UNDERFLOW = 4 * float(np.finfo(np.float64).smallest_subnormal)


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True)
class NeighborIndex:
    """Immutable brute-force index over N points in R^d (squared Euclidean)."""

    vectors: np.ndarray
    n: int = field(init=False)
    d: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", self.vectors.shape[0])
        object.__setattr__(self, "d", self.vectors.shape[1])

    @cached_property
    def sq_norms(self) -> np.ndarray:
        """Squared row norms, computed on the first query and kept with the index."""
        return (self.vectors * self.vectors).sum(axis=1)


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal direction set spanning a local neighborhood."""

    basis: np.ndarray  # [m, d], rows unit length, pairwise orthogonal

    @property
    def size(self) -> int:
        return self.basis.shape[0]


def build_index(vectors) -> NeighborIndex:
    """Snapshot a [N, d] point set into an immutable exact-search index."""
    arr = np.array(_as_array(vectors), dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"build_index: expected [N, d] matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ContractError(f"build_index: need at least 2 points, got {arr.shape[0]}")
    arr.setflags(write=False)
    return NeighborIndex(vectors=arr)


def knn(index: NeighborIndex, query, k: int, exclude_exact_match: bool = True):
    """The k nearest stored points, as (vector, squared distance) pairs.

    Sorted by ascending distance with ties broken by lower row index.  With
    ``exclude_exact_match`` every stored row bitwise-equal to the query is
    removed before selection.

    The search is exact.  Each row's distance is first estimated by the
    norm expansion, which is off by at most ``(2d + 8) * eps * (|v|^2 +
    |q|^2)`` plus a few subnormal spacings; the bound also covers the
    rounding of the direct formula.  If ``cut`` is the kk-th smallest
    upper estimate (kk = k, or k + 1 when exact matches are excluded), kk
    rows certainly lie within ``cut``, so a row whose lower estimate
    exceeds ``cut`` cannot be among the k nearest.  The other rows, the
    shortlist, are re-ranked by the direct formula ``sum((v - q)^2)`` in
    ascending row order, which gives the distances and tie-break of a full
    scan bit for bit.  When exact copies of the query leave fewer than k
    shortlisted rows within ``cut``, kk grows by the number excluded and
    the search repeats.  A non-finite estimate, or kk reaching N, makes
    every row the shortlist.
    """
    q = _as_array(query).reshape(-1)
    if q.shape[0] != index.d:
        raise ShapeError(f"knn: query length {q.shape[0]} vs index dimension {index.d}")
    if k < 1:
        raise ContractError(f"knn: k must be >= 1, got {k}")
    vectors = index.vectors
    # Overflow here only sends the search to the full scan, which warns as
    # a direct scan would.
    with np.errstate(over="ignore", invalid="ignore"):
        sq, qq = index.sq_norms, q @ q
        approx = sq - 2.0 * (vectors @ q) + qq
        bound = (2 * index.d + 8) * (_EPS * (sq + qq) + _UNDERFLOW)
        lower, upper = approx - bound, approx + bound
    shortlisting = bool(np.isfinite(approx).all())
    # A query that is a stored row, as neighbourhood queries are, is its own
    # exact copy; counting it up front saves a second round.
    kk = k + 1 if exclude_exact_match else k
    while True:
        if shortlisting and kk < index.n:
            cut = np.partition(upper, kk - 1)[kk - 1]
            rows = np.flatnonzero(lower <= cut)
        else:
            rows = np.arange(index.n)
        near = vectors[rows]
        diffs = near - q[None, :]
        d2 = (diffs * diffs).sum(axis=1)
        if exclude_exact_match:
            keep = ~np.all(near == q[None, :], axis=1)
        else:
            keep = np.ones(rows.shape[0], dtype=bool)
        if rows.shape[0] == index.n or np.count_nonzero(keep & (d2 <= cut)) >= k:
            break
        kk += max(1, rows.shape[0] - int(np.count_nonzero(keep)))
    candidates = np.flatnonzero(keep)
    if k > candidates.shape[0]:
        raise ContractError(
            f"knn: k={k} exceeds the {candidates.shape[0]} available points"
            f" (N={index.n}, exclude_exact_match={exclude_exact_match})"
        )
    chosen = candidates[np.argsort(d2[candidates], kind="stable")[:k]]
    return [(vectors[rows[i]].copy(), float(d2[i])) for i in chosen]


def gram_schmidt(diffs) -> OrthoBasis:
    """Orthonormalize difference vectors by modified Gram-Schmidt.

    Directions that become (numerically) dependent on the basis built so
    far are dropped.  All-zero input is a degenerate neighborhood and a
    contract error; callers that need a fallback catch it.
    """
    mat = np.atleast_2d(np.array(_as_array(diffs), dtype=np.float64))
    if mat.size == 0:
        raise ContractError("gram_schmidt: no difference vectors given")
    kept = []
    for row in mat:
        original = float(np.linalg.norm(row))
        if original == 0.0:
            continue
        v = row.copy()
        for b in kept:
            v -= (v @ b) * b
        # Second sweep tightens orthogonality lost to cancellation.
        for b in kept:
            v -= (v @ b) * b
        residual = float(np.linalg.norm(v))
        if residual < GS_DROP_RATIO * original:
            continue
        kept.append(v / residual)
    if not kept:
        raise ContractError("gram_schmidt: degenerate neighborhood, all differences zero")
    return OrthoBasis(basis=np.array(kept))


def sample_inmanifold_noise(x, basis: OrthoBasis, sigma: float,
                            rng: np.random.Generator, mix_ratio: float | None = None) -> Tensor:
    """Random element of span(basis): sum of N(0, sigma^2) coefficients times
    the basis directions.  With ``mix_ratio`` the result is rescaled so its
    norm is ``mix_ratio`` times the norm of ``x``.
    """
    if basis.size == 0:
        raise ContractError("sample_inmanifold_noise: empty basis")
    if not sigma > 0:
        raise ContractError(f"sample_inmanifold_noise: sigma must be positive, got {sigma}")
    xd = _as_array(x).reshape(-1)
    if xd.shape[0] != basis.basis.shape[1]:
        raise ShapeError(
            f"sample_inmanifold_noise: x length {xd.shape[0]} vs basis dimension {basis.basis.shape[1]}"
        )
    coeffs = rng.normal(0.0, sigma, size=basis.size)
    eps = coeffs @ basis.basis
    if mix_ratio is not None:
        if not mix_ratio >= 0:
            raise ContractError(f"sample_inmanifold_noise: mix_ratio must be nonnegative, got {mix_ratio}")
        xnorm = float(np.linalg.norm(xd))
        enorm = float(np.linalg.norm(eps))
        if xnorm == 0.0 or enorm == 0.0:
            return Tensor(np.zeros_like(eps))
        eps = eps * (mix_ratio * xnorm / enorm)
    return Tensor(eps)


def neighborhood_basis(index: NeighborIndex, query, k: int = DEFAULT_K) -> OrthoBasis | None:
    """kNN differences around ``query`` orthonormalized; None when degenerate.

    Degenerate means fewer than k distinct neighbors remain after excluding
    exact matches, or every difference vanishes.  Callers substitute
    standard Gaussian noise in that case (the documented fallback).
    """
    q = _as_array(query).reshape(-1)
    try:
        pairs = knn(index, q, k, exclude_exact_match=True)
        diffs = np.array([vec - q for vec, _ in pairs])
        return gram_schmidt(diffs)
    except ContractError as exc:
        log.warning("degenerate neighborhood (%s); falling back to standard noise", exc)
        return None


def lle_reconstruction_error(x, neighbors) -> float:
    """Least-squares residual of reconstructing x from its neighbors.

    Minimizes |x - sum_j w_j x_j|^2 over unconstrained weights and returns
    the minimum (squared norm of the residual).
    """
    xd = _as_array(x).reshape(-1)
    nb = np.atleast_2d(_as_array(neighbors))
    if nb.size == 0:
        raise ContractError("lle_reconstruction_error: need at least one neighbor")
    if nb.shape[1] != xd.shape[0]:
        raise ShapeError(
            f"lle_reconstruction_error: neighbor dimension {nb.shape[1]} vs x {xd.shape[0]}"
        )
    w, _, _, _ = np.linalg.lstsq(nb.T, xd, rcond=None)
    resid = xd - nb.T @ w
    return float(resid @ resid)


def project_coefficients(basis: OrthoBasis, samples) -> np.ndarray:
    """Coordinates of sample rows in the basis (for coefficient-Gaussianity checks)."""
    return _as_array(samples) @ basis.basis.T
