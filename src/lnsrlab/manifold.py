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

Two paths build these bases.  ``neighborhood_bases`` serves training: it
answers all of a batch's T distinct tokens at once, with one [T, N]
estimate product, one re-rank of the shortlisted (query, row) pairs, and
both Gram-Schmidt sweeps as a loop over the k directions across all T
queries.  Every step matches the one-query path bit for bit.  The one-query
functions (``knn``, ``gram_schmidt``, ``neighborhood_basis``) stay for
single lookups, diagnostics and the CLI, where a T=1 batch costs more than
they do, and they are the batched path's test oracle.

A locally-linear-embedding residual (how well x is reconstructed as a
linear combination of its neighbors) serves as the flatness diagnostic.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractError, ShapeError
from .noise import _as_array
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


def knn(index: NeighborIndex, query, k: int):
    """The k nearest stored points other than copies of the query, as
    (vector, squared distance) pairs.

    Sorted by ascending distance with ties broken by lower row index.
    Every stored row bitwise-equal to the query is removed before
    selection, so a stored point is never its own neighbour.

    The search is exact.  Each row's distance is first estimated by the
    norm expansion, which is off by at most ``(2d + 8) * eps * (|v|^2 +
    |q|^2)`` plus a few subnormal spacings; the bound also covers the
    rounding of the direct formula.  If ``cut`` is the kk-th smallest
    upper estimate (kk = k + 1, counting one exact copy of the query), kk
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
    kk = k + 1
    while True:
        if shortlisting and kk < index.n:
            cut = np.partition(upper, kk - 1)[kk - 1]
            rows = np.flatnonzero(lower <= cut)
        else:
            rows = np.arange(index.n)
        near = vectors[rows]
        diffs = near - q[None, :]
        d2 = (diffs * diffs).sum(axis=1)
        keep = ~np.all(near == q[None, :], axis=1)
        if rows.shape[0] == index.n or np.count_nonzero(keep & (d2 <= cut)) >= k:
            break
        kk += max(1, rows.shape[0] - int(np.count_nonzero(keep)))
    candidates = np.flatnonzero(keep)
    if k > candidates.shape[0]:
        raise ContractError(
            f"knn: k={k} exceeds the {candidates.shape[0]} points that are not"
            f" copies of the query (N={index.n})"
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
                            rng: np.random.Generator) -> Tensor:
    """Random element of span(basis): sum of N(0, sigma^2) coefficients times
    the basis directions.  ``x`` is the vector perturbed; only its length is
    checked.  Relative rescaling is ``noise.rescale_relative_rows``.
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
    return Tensor(coeffs @ basis.basis)


def neighborhood_basis(index: NeighborIndex, query, k: int = DEFAULT_K) -> OrthoBasis | None:
    """kNN differences around ``query`` orthonormalized; None when degenerate.

    Degenerate means fewer than k distinct neighbors remain after excluding
    exact matches, or every difference vanishes.  Callers substitute
    standard Gaussian noise in that case (the documented fallback).
    """
    if k < 1:
        raise ContractError(f"neighborhood_basis: k must be >= 1, got {k}")
    q = _as_array(query).reshape(-1)
    try:
        pairs = knn(index, q, k)
        diffs = np.array([vec - q for vec, _ in pairs])
        return gram_schmidt(diffs)
    except ContractError as exc:
        log.warning("degenerate neighborhood (%s); falling back to standard noise", exc)
        return None


def neighborhood_bases(index: NeighborIndex, queries, k: int = DEFAULT_K):
    """``neighborhood_basis`` for each of T query rows at once.

    Returns ``(bases, sizes)``: ``bases[t, :sizes[t]]`` equals
    ``neighborhood_basis(index, queries[t], k).basis`` bit for bit and the
    rows after it are zero; ``sizes[t] == 0`` marks a degenerate
    neighborhood (where ``neighborhood_basis`` returns None).

    The kNN step bounds every (query, row) estimate as ``knn`` does and
    re-ranks only the shortlisted pairs by the direct formula, ordered by
    (exact copy, distance, row); a query whose shortlist holds fewer than
    k non-copies within its cut is re-ranked over every row, so the result
    is that of a full scan.  Memory is O(T N + T k d).  The Gram-Schmidt
    step stores a dropped direction as a zero row, which later sweeps
    subtract as an exact 0, and dots by ``np.vecdot``, which rounds as the
    one-query ``v @ b`` does.
    """
    if k < 1:
        raise ContractError(f"neighborhood_bases: k must be >= 1, got {k}")
    q = np.atleast_2d(_as_array(queries))
    if q.ndim != 2 or q.shape[1] != index.d:
        raise ShapeError(f"neighborhood_bases: queries shape {q.shape} vs index dimension {index.d}")
    rows, found = _knn_rows(index, q, k)
    # Direction-major [k, T, d], so each direction is one contiguous block.
    diffs = (index.vectors[rows] - q[:, None, :]).transpose(1, 0, 2)
    basis = np.zeros_like(diffs)
    live = np.zeros((q.shape[0], k), dtype=bool)
    for j in range(k):
        v = diffs[j].copy()
        original = np.sqrt(np.vecdot(v, v))
        # Two sweeps over the directions so far, as in ``gram_schmidt``.
        for _ in range(2):
            for b in basis[:j]:
                v -= np.vecdot(v, b)[:, None] * b
        residual = np.sqrt(np.vecdot(v, v))
        live[:, j] = found & (original != 0.0) & ~(residual < GS_DROP_RATIO * original)
        np.divide(v, residual[:, None], out=basis[j], where=live[:, j, None])
    sizes = live.sum(axis=1)
    # Kept directions first, in their order; dropped (zero) rows after them.
    order = np.argsort(~live, axis=1, kind="stable")
    bases = np.take_along_axis(basis.transpose(1, 0, 2), order[:, :, None], axis=1)
    if not sizes.all():
        log.warning("%d degenerate neighborhood(s); falling back to standard noise",
                    int((sizes == 0).sum()))
    return bases, sizes


def _knn_rows(index: NeighborIndex, q: np.ndarray, k: int):
    """[T, k] index rows of each query's k nearest stored points, exact
    copies excluded, ordered by (distance, row), and a [T] mask of the
    queries that have k such points (the other queries' rows are filler)."""
    vectors, n, t = index.vectors, index.n, q.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        sq, qq = index.sq_norms, np.vecdot(q, q)[:, None]
        approx = sq - 2.0 * (q @ vectors.T) + qq
        bound = (2 * index.d + 8) * (_EPS * (sq + qq) + _UNDERFLOW)
        lower, upper = approx - bound, approx + bound
    # As in ``knn``: a query that is a stored row is its own exact copy, so
    # the cut is the (k+1)-th smallest upper estimate.  A query with more
    # copies than that finds fewer than k others within it and re-ranks
    # every row.
    kk = k + 1
    if kk < n:
        cut = np.partition(upper, kk - 1, axis=1)[:, kk - 1]
        short = lower <= cut[:, None]
        short[~np.isfinite(approx).all(axis=1)] = True
    else:
        cut = np.full(t, np.inf)
        short = np.ones((t, n), dtype=bool)
    while True:
        who, rows = np.nonzero(short)
        near = vectors[rows]
        diffs = near - q[who]
        d2 = (diffs * diffs).sum(axis=1)
        copy = np.all(near == q[who], axis=1)
        within = np.bincount(who[~copy & (d2 <= cut[who])], minlength=t)
        rescan = (within < k) & ~short.all(axis=1)
        if not rescan.any():
            break
        short[rescan] = True
    ranked = np.lexsort((rows, d2, copy, who))
    starts = np.searchsorted(who, np.arange(t))
    pick = np.minimum(starts[:, None] + np.arange(k), rows.shape[0] - 1)
    found = np.bincount(who[~copy], minlength=t) >= k
    return rows[ranked[pick]], found


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
