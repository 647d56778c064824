"""Neighborhood geometry: exact kNN, orthonormal bases, in-manifold noise.

Exact kNN is one search, ``_knn_rows``, for one query (``knn``) or a
batch of T queries.  A float32 matrix product, over a float32 copy of the
index made on the first query, estimates every squared distance by the norm
expansion |v|^2 - 2 v.q + |q|^2 with a per-row error bound; only the rows
the bound cannot rule out of the k nearest are re-ranked by the direct
formula sum((v - q)^2) in float64, so the distances and their tie-break
equal those of a full direct scan bit for bit.

The in-manifold perturbation of a vector x is built from its k nearest
neighbors in a reference point set (the token-embedding vocabulary in
training, a synthetic manifold sample in diagnostics): the neighbor
differences are orthonormalized by modified Gram-Schmidt and a random
linear combination with i.i.d. N(0, sigma^2) coefficients is returned.
The result lies in the local tangent-ish subspace by construction.

One modified Gram-Schmidt, ``_mgs``, builds every basis: for the k
differences of one point set (``gram_schmidt``) or of each of T queries
at once (``neighborhood_bases``, which serves training); the one-query
``neighborhood_basis`` is its T = 1 case.
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
# The same for the float32 distance estimate: unit roundoff, and the
# smallest subnormal (twice the absolute error of one underflowing rounding).
_U32 = float(np.finfo(np.float32).eps) / 2
_TINY32 = float(np.finfo(np.float32).smallest_subnormal)


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

    @cached_property
    def vectors32(self) -> np.ndarray:
        """Read-only float32 copy of ``vectors`` for the distance estimate,
        made on the first query; a component beyond float32's range is inf."""
        with np.errstate(over="ignore"):
            copy = self.vectors.astype(np.float32)
        copy.setflags(write=False)
        return copy


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal direction set spanning a local neighborhood."""

    basis: np.ndarray  # [m, d], rows unit length, pairwise orthogonal

    @property
    def size(self) -> int:
        return self.basis.shape[0]


def build_index(vectors) -> NeighborIndex:
    """Snapshot a [N, d] point set into an immutable exact-search index."""
    arr = np.array(vectors, dtype=np.float64)
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
    selection, so a stored point is never its own neighbour.  The search
    is exact: it is ``_knn_rows`` for one query, which describes how.
    """
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.shape[0] != index.d:
        raise ShapeError(f"knn: query length {q.shape[0]} vs index dimension {index.d}")
    if k < 1:
        raise ContractError(f"knn: k must be >= 1, got {k}")
    # A k above N cannot be met: capping it keeps the [1, k] result small,
    # and the search still scans every row and counts the non-copies.
    rows, dists, count = _knn_rows(index, q[None, :], min(k, index.n))
    if count[0] < k:
        raise ContractError(
            f"knn: k={k} exceeds the {count[0]} points that are not"
            f" copies of the query (N={index.n})"
        )
    return [(index.vectors[r].copy(), float(d2)) for r, d2 in zip(rows[0], dists[0])]


def gram_schmidt(diffs) -> OrthoBasis:
    """Orthonormalize difference vectors by modified Gram-Schmidt.

    Directions that become (numerically) dependent on the basis built so
    far are dropped, as are directions whose norm overflows.  A set with
    no direction left is a degenerate neighborhood and a contract error;
    callers that need a fallback catch it.
    """
    mat = np.atleast_2d(np.array(diffs, dtype=np.float64))
    if mat.size == 0:
        raise ContractError("gram_schmidt: no difference vectors given")
    basis, size = _mgs(mat, True)
    if not size:
        raise ContractError("gram_schmidt: degenerate neighborhood, all differences zero")
    return OrthoBasis(basis=basis[:size])


def _mgs(diffs: np.ndarray, found):
    """Two-sweep modified Gram-Schmidt over direction-major differences.

    ``diffs`` is [k, ..., d]: k difference vectors for each query on the
    middle axes (none for a single set).  Each direction is projected off
    the unit directions before it, in order, twice (the second sweep
    restores orthogonality lost to cancellation), and kept when its
    residual norm is finite and at least ``GS_DROP_RATIO`` times its
    original norm.  Every direction of a query where ``found`` (broadcast
    against [..., 1, 1]) is False is dropped.  Returns ``(basis, sizes)``:
    each query's kept unit directions in input order, then zero rows
    ([..., k, d]), and their number.

    A new unit direction is projected off all later directions at once
    (the first sweep), so each direction meets the same projections in
    the same order as in a loop over one direction at a time.  A dropped
    direction is a zero row, which subtracts an exact 0, so a query's
    basis does not depend on the rest of the batch.  Dots are
    [1, d] @ [d, 1] matmuls, which numpy computes as the 1-D ``v @ b``.
    """
    k, d = diffs.shape[0], diffs.shape[-1]
    work = diffs[:, ..., None, :].copy()
    norms = np.sqrt(work @ work.mT)
    # A direction is kept where its residual norm reaches its threshold.  No
    # residual reaches NaN, the threshold of a zero, NaN or overflowing
    # direction and of every direction of a query not ``found``.
    thresh = np.where(found & (norms > 0) & (norms < np.inf), GS_DROP_RATIO * norms, np.nan)
    units = np.zeros(diffs.shape[1:-1] + (k, d))
    swept = []  # (row [..., 1, d], column [..., d, 1]) views of the unit directions
    for j, (v, floor) in enumerate(zip(work, thresh)):
        for b, col in swept:
            v -= (v @ col) * b
        residual = np.sqrt(v @ v.mT)
        b = units[..., j:j + 1, :]
        # An inf residual (only at the edge of float64's range) gives a
        # zero row here, which ``keep`` below drops.
        np.divide(v, residual, out=b, where=floor <= residual)
        col = b.mT
        swept.append((b, col))
        rest = work[j + 1:]
        rest -= (rest @ col) * b
    keep = units.any(axis=-1)
    sizes = keep.sum(axis=-1)
    basis = np.zeros_like(units)
    basis[np.arange(k) < sizes[..., None]] = units[keep]
    return basis, sizes


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
    xd = np.asarray(x, dtype=np.float64).reshape(-1)
    if xd.shape[0] != basis.basis.shape[1]:
        raise ShapeError(
            f"sample_inmanifold_noise: x length {xd.shape[0]} vs basis dimension {basis.basis.shape[1]}"
        )
    coeffs = rng.normal(0.0, sigma, size=basis.size)
    return Tensor(coeffs @ basis.basis)


def neighborhood_basis(index: NeighborIndex, query, k: int = DEFAULT_K) -> OrthoBasis | None:
    """kNN differences around ``query`` orthonormalized; None when degenerate.

    Degenerate means fewer than k distinct neighbors remain after excluding
    exact matches, or no difference survives Gram-Schmidt.  Callers
    substitute standard Gaussian noise in that case (the documented
    fallback).  This is ``neighborhood_bases`` for one query.
    """
    if k < 1:
        raise ContractError(f"neighborhood_basis: k must be >= 1, got {k}")
    bases, sizes = neighborhood_bases(index, np.reshape(query, (1, -1)), k)
    return OrthoBasis(basis=bases[0, :sizes[0]]) if sizes[0] else None


def neighborhood_bases(index: NeighborIndex, queries, k: int = DEFAULT_K):
    """The orthonormalized kNN differences of each of T query rows.

    Returns ``(bases, sizes)``: ``bases[t, :sizes[t]]`` is query t's basis
    and the rows after it are zero; ``sizes[t] == 0`` marks a degenerate
    neighborhood (where ``neighborhood_basis`` returns None).

    The kNN step is one ``_knn_rows`` call and the Gram-Schmidt step one
    ``_mgs`` call for all T queries.  Memory is O(T N + T k d).
    """
    if k < 1:
        raise ContractError(f"neighborhood_bases: k must be >= 1, got {k}")
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.ndim != 2 or q.shape[1] != index.d:
        raise ShapeError(f"neighborhood_bases: queries shape {q.shape} vs index dimension {index.d}")
    rows, _, count = _knn_rows(index, q, k)
    bases, sizes = _mgs(index.vectors[rows.T] - q, (count >= k)[:, None, None])
    if not sizes.all():
        log.warning("%d degenerate neighborhood(s); falling back to standard noise",
                    int((sizes == 0).sum()))
    return bases, sizes


def _knn_rows(index: NeighborIndex, q: np.ndarray, k: int):
    """Exact kNN for each of T query rows ([T, d]); ``knn`` is its T = 1 case.

    Returns ``(rows, dists, count)``.  ``rows[t]`` ([T, k]) are the index
    rows of the k nearest stored points that are not bitwise copies of
    query t, ordered by (squared distance, row); ``dists[t]`` are their
    squared distances by the direct formula ``sum((v - q)^2)``, bit for bit
    those of a full direct scan.  ``count[t]`` is the number of non-copies
    re-ranked; when it is below k, query t has only that many non-copies
    in all, and its rows and distances from ``count[t]`` on are filler.

    Each row's distance is first estimated by the norm expansion
    ``|v|^2 - 2 v.q + |q|^2``: the squared norms in float64, v.q in float32
    on ``index.vectors32``, which reads half the bytes of the float64 rows.
    With Q = |v|^2 + |q|^2 >= 2 |v||q| and u float32's unit roundoff, the
    estimate is off from the direct formula by at most the sum of
      * ``(2d + 8) * (eps * Q + 4 float64 subnormals)``: the float64 steps,
        and the rounding of the direct formula itself;
      * ``gamma_{d+2} * Q``, gamma_m = m u / (1 - m u) (Higham 2002, sec.
        3.1): rounding v and q into float32 is 2 roundings per product, and
        the float32 dot product d more, in any summation order;
      * ``4d`` float32 subnormals: what gradual underflow adds, to the
        rounded inputs and to the products (a relative part of one float32
        subnormal times Q lies far inside the float64 term's slack).
    A component beyond float32's range makes the estimate non-finite.  If
    ``cut`` is the (k+1)-th smallest upper estimate (one more than k, for
    the query's own copy when it is a stored row), k + 1 rows certainly lie
    within ``cut``, so a row whose lower estimate exceeds ``cut`` cannot be
    among the k nearest.  The other rows, the shortlist (typically little
    more than k), are re-ranked by the direct formula.  A query whose
    shortlist holds fewer than k non-copies within ``cut`` (it has more
    copies than that) is re-ranked over every row, as is a query with a
    non-finite estimate or an index of at most k + 1 rows, so NaN, inf and
    float32-overflowing inputs give the full scan's result.
    """
    vectors, n, d, t = index.vectors, index.n, index.d, q.shape[0]
    # Overflow here only sends a query to the full scan, which warns as a
    # direct scan would.
    with np.errstate(over="ignore", invalid="ignore"):
        sq, qq = index.sq_norms, np.vecdot(q, q)[:, None]
        # Doubling in float32 is exact, or overflows to inf.
        approx = sq - 2.0 * (q.astype(np.float32) @ index.vectors32.T) + qq
        gamma = (d + 2) * _U32 / (1 - (d + 2) * _U32)
        bound = (((2 * d + 8) * _EPS + gamma) * (sq + qq)
                 + ((2 * d + 8) * _UNDERFLOW + 4 * d * _TINY32))
        lower, upper = approx - bound, approx + bound
    kk = k + 1
    if kk < n:
        cut = np.partition(upper, kk - 1, axis=1)[:, kk - 1]
        short = lower <= cut[:, None]
        short[~np.isfinite(approx).all(axis=1)] = True
    else:
        cut = np.full(t, np.inf)
        short = np.ones((t, n), dtype=bool)
    while True:
        who, rows = np.divmod(np.flatnonzero(short), n)
        near, qw = vectors[rows], q[who]
        diffs = near - qw
        d2 = (diffs * diffs).sum(axis=1)
        copy = np.all(near == qw, axis=1)
        within = np.bincount(who[~copy & (d2 <= cut[who])], minlength=t)
        rescan = (within < k) & ~short.all(axis=1)
        if not rescan.any():
            break
        short[rescan] = True
    ranked = np.lexsort((rows, d2, copy, who))
    starts = np.searchsorted(who, np.arange(t))
    pick = ranked[np.minimum(starts[:, None] + np.arange(k), rows.shape[0] - 1)]
    return rows[pick], d2[pick], np.bincount(who[~copy], minlength=t)


def project_coefficients(basis: OrthoBasis, samples) -> np.ndarray:
    """Coordinates of sample rows in the basis (for coefficient-Gaussianity checks)."""
    return np.asarray(samples, dtype=np.float64) @ basis.basis.T
