"""Neighborhood geometry: exact kNN, orthonormal bases, in-manifold noise.

Exact kNN is one search, ``_knn_rows``, for one query (``knn``) or a
batch of T queries.  On the first query the index builds its range frame
(``RangeFrame``): an orthonormal basis P of the p-dimensional numerical
range of its rows (p = 20 of d = 128 for the benchmark's manifold; P = I
when the rows span all d dimensions), each row's float32 coordinates in
P, and the largest distance r_max of a row from span(P).  One float32
product over the p coordinates then gives every row a proven lower bound
on its squared distance, from the norm expansion |Pv|^2 - 2 Pv.Pq + |Pq|^2
plus the part of q's distance from the span that r_max cannot cancel
(``_knn_rows`` lists each term).  A row whose lower bound exceeds
the exact distance of k + 1 rows cannot be among the k nearest; the rest
are re-ranked by the direct formula sum((v - q)^2) in float64, so the
distances and their tie-break equal those of a full direct scan bit for
bit, whatever p is.

The in-manifold perturbation of a vector x is built from its k nearest
neighbors in a reference point set (the token-embedding vocabulary in
training, a synthetic manifold sample in diagnostics): the neighbor
differences are orthonormalized by Gram-Schmidt and a random
linear combination with i.i.d. N(0, sigma^2) coefficients is returned.
The result lies in the local tangent-ish subspace by construction.

One block classical Gram-Schmidt applied twice (CGS2), ``_cgs2``, builds
every basis: for the k differences of one point set (``gram_schmidt``) or
of each of T queries at once (``neighborhood_bases``, which serves
training); the one-query ``neighborhood_basis`` is its T = 1 case.  Each
direction is projected off all earlier unit directions in one matrix
product, twice, and dropped when its residual falls below
``GS_DROP_RATIO`` times its original norm.
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
# A norm whose squares underflow is off by at most sqrt(d * _UNDERFLOW).
_ROOT_UNDERFLOW = float(np.sqrt(_UNDERFLOW))
# Rows per block when the range frame measures residuals.
_FRAME_BLOCK = 1024


@dataclass(frozen=True)
class RangeFrame:
    """An orthonormal basis P of an index's numerical range, each row's
    float32 coordinates in it, and the row parts of ``_lower_estimates``.

    ``basis`` None stands for P = I: the coordinates are the rows
    themselves and no query is rotated.
    """

    basis: np.ndarray | None  # [p, d] rows, or None for P = I
    coords: np.ndarray  # [p, N] float32, read-only: the product reads it by rows
    base: np.ndarray  # [N]: (1 - rate_c) |c_v|^2 - rate_x |v|^2
    rate_c: float  # per unit of |c_v|^2 + |c_q|^2
    rate_x: float  # per unit of |v|^2 + |q|^2
    floor: float  # absolute, for gradual underflow
    r_max: float  # no row lies farther than this from span(P)
    drift: float  # r_q's error per unit of |q|


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
    def frame(self) -> RangeFrame:
        """The range frame of the distance estimate, built on the first query."""
        return _range_frame(self.vectors, self.sq_norms)


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
    """Orthonormalize difference vectors by classical Gram-Schmidt applied twice.

    Directions that become (numerically) dependent on the basis built so
    far (residual below ``GS_DROP_RATIO`` times the original norm) are
    dropped, as are directions whose norm overflows.  A set with no
    direction left is a degenerate neighborhood and a contract error;
    callers that need a fallback catch it.
    """
    mat = np.atleast_2d(np.array(diffs, dtype=np.float64))
    if mat.size == 0:
        raise ContractError("gram_schmidt: no difference vectors given")
    basis, size = _cgs2(mat)
    if not size:
        raise ContractError("gram_schmidt: degenerate neighborhood, all differences zero")
    return OrthoBasis(basis=basis[:size])


def _cgs2(diffs: np.ndarray):
    """Block classical Gram-Schmidt, applied twice, over direction-major differences.

    ``diffs`` is [k, ..., d]: k difference vectors for each query on the
    middle axes (none for a single set).  Direction j is projected off
    the block of unit directions before it, ``v -= (v @ U.T) @ U``, twice
    (one pass loses orthogonality to cancellation; a second restores it
    to rounding level, Giraud et al., Numer. Math. 101, 2005), and kept
    when its residual norm is finite and at least ``GS_DROP_RATIO`` times
    its original norm, so a zero direction is always dropped.  Returns
    ``(basis, sizes)``: each query's kept unit directions in input order,
    then zero rows ([..., k, d]), and their number.

    A dropped direction stays a zero row of the block, which adds exact
    zeros to every later projection, so a query's basis does not depend
    on the rest of the batch.
    """
    k, d = diffs.shape[0], diffs.shape[-1]
    work = diffs[:, ..., None, :].copy()
    norms = np.sqrt(work @ work.mT)
    # A direction is kept where its residual norm reaches its threshold.  No
    # residual reaches NaN, the threshold of a zero, NaN or overflowing direction.
    thresh = np.where((norms > 0) & (norms < np.inf), GS_DROP_RATIO * norms, np.nan)
    units = np.zeros(diffs.shape[1:-1] + (k, d))
    for j, (v, floor) in enumerate(zip(work, thresh)):
        block = units[..., :j, :]
        for _ in range(2):
            v -= (v @ block.mT) @ block
        residual = np.sqrt(v @ v.mT)
        # An inf residual (only at the edge of float64's range) gives a
        # zero row here, which ``keep`` below drops.
        np.divide(v, residual, out=units[..., j:j + 1, :], where=floor <= residual)
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
    exact matches, or no difference survives CGS2's drop rule.  Callers
    substitute standard Gaussian noise in that case (the documented
    fallback).  This is ``neighborhood_bases`` for one query.
    """
    bases, sizes = neighborhood_bases(index, np.reshape(query, (1, -1)), k)
    return OrthoBasis(basis=bases[0, :sizes[0]]) if sizes[0] else None


def neighborhood_bases(index: NeighborIndex, queries, k: int = DEFAULT_K):
    """The orthonormalized kNN differences of each of T query rows.

    Returns ``(bases, sizes)``: ``bases[t, :sizes[t]]`` is query t's basis
    and the rows after it are zero; ``sizes[t] == 0`` marks a degenerate
    neighborhood (where ``neighborhood_basis`` returns None).

    The kNN step is one ``_knn_rows`` call and the Gram-Schmidt step one
    ``_cgs2`` call (block classical Gram-Schmidt applied twice) for all T
    queries.  A query with fewer than k non-copies has its differences
    zeroed, which ``_cgs2`` drops, so its size is 0.
    Memory is O(T N + T k d).
    """
    if k < 1:
        raise ContractError(f"neighborhood_bases: k must be >= 1, got {k}")
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if q.ndim != 2 or q.shape[1] != index.d:
        raise ShapeError(f"neighborhood_bases: queries shape {q.shape} vs index dimension {index.d}")
    rows, _, count = _knn_rows(index, q, k)
    diffs = index.vectors[rows.T] - q
    diffs[:, count < k] = 0.0
    bases, sizes = _cgs2(diffs)
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

    ``_lower_estimates`` gives every row a lower bound on its direct-formula
    distance D = fl(sum((v - q)^2)), from the p float32 coordinates of
    ``index.frame``.  The k + 1 rows with the smallest lower estimates (all
    N rows when N <= k + 1) are measured by the direct formula, and
    ``cut``, the largest of those distances, has k + 1 rows within it (one
    more than k, for the query's own copy when it is a stored row).  A row
    whose lower estimate exceeds ``cut`` is farther than all of them, so it
    cannot be among the k nearest (the lemma behind GEMINI filtering,
    Faloutsos, Ranganathan and Manolopoulos, SIGMOD 1994).  The other rows,
    the shortlist (typically little more than k), are re-ranked by the
    direct formula; on an index of at most k + 1 rows that is every row,
    as each lower estimate is at most its distance.  A query whose shortlist
    holds fewer than k non-copies within ``cut`` (it has more copies than
    that) is re-ranked over every row, as is a query with a NaN or +inf
    lower estimate (which a NaN distance always has), so NaN, inf and
    overflowing inputs give the full scan's result.

    The lower estimate.  With c_v = fl(P v) and c_q = fl(P q) in float64,
    |P(v - q)|^2 is estimated by the norm expansion |c_v|^2 - 2 c_v.c_q +
    |c_q|^2, the dot product in float32 on the frame's coordinates (-2 c_q
    is rounded to float32; doubling in float64 is exact, and a c_q beyond
    float32's range gives inf).  Added is rho^2, rho = max(0, r_q - r_max):
    no row lies farther than r_max from span(P), and q lies at least r_q
    from it, so |(I - Pi)(v - q)| >= |(I - Pi) q| - |(I - Pi) v| >= rho,
    with Pi the orthogonal projection onto span(P), and Pythagoras adds
    rho^2 to the part inside the span.  Let Q_c = |c_v|^2 + |c_q|^2 and
    Q_x = |v|^2 + |q|^2, gamma_m = m eps / (1 - m eps) (Higham 2002, sec.
    3.1), u float32's unit roundoff, eta a bound on |P P^T - I| (2-norm,
    measured when the frame is built, at most 1/2) and kappa =
    2 sqrt(p) gamma_d.  Subtracted are:
      * ``rate_c * Q_c``, rate_c = (2p + 8) eps + gamma_{p+2}(u), plus
        (2p + 8) float64 and 4p float32 subnormals: the float32 estimate on
        p coordinates.  Q_c >= 2 |c_v||c_q|; (2p + 8) eps and the float64
        subnormals cover the norm expansion's float64 steps; rounding c_v
        and c_q into float32 is 2 roundings per product, and the float32
        dot product p more, in any summation order (gamma_{p+2}(u)); the
        float32 subnormals are what gradual underflow adds, to the rounded
        inputs and to the products;
      * ``10 kappa * Q_x``, plus one subnormal: c_v and c_q are off P v and
        P q by at most kappa |v| and kappa |q| (and underflow), so
        |P(v - q)| >= a - delta with a = |c_v - c_q| <= 1.3 (|v| + |q|) and
        delta = kappa (|v| + |q|); a^2 - 2 a delta, bounded by 2ab <=
        a^2 + b^2, loses at most this;
      * ``3 eta * Q_x``: P's departure from orthonormality, as
        |Pi x|^2 >= |P x|^2 / (1 + eta) >= |P x|^2 - 1.5 eta |x|^2 and
        |x|^2 <= 2 Q_x;
      * ``2 gamma_{d+2} * Q_x``, plus d subnormals: D itself rounds d + 2
        times, so D >= (1 - gamma_{d+2}) |v - q|^2;
      * ``32 eps * Q_x``: the float64 steps that compute Q_x and rho^2 and
        assemble the bound, each off by at most eps times a partial result
        below 2 (Q_c + Q_x).
    r_max and r_q come from computed residual norms, which round by at
    most gamma_{d+3} relative plus d sqrt(4 subnormals) where squares
    underflow; both take gamma_{d+6}, for the 3 roundings of their own
    arithmetic.  r_max adds, per row, kappa |v| for the rounding of
    c_v^T P; r_q subtracts ``drift`` = 3 kappa + 3 eta times |q|: kappa |q|
    for c_q^T P, 1.3 kappa |q| for c_q itself, and 3 eta |q|, by which
    |q - Pi q| can fall short of |q - P^T P q|.  The float32 term is at
    least 10^5 times each of the others at p = 20, d = 128; they carry the
    bound only for a query far off the span, where Q_x outgrows Q_c.  For
    P = I the frame is exact: c_v = v, r_max = r_q = 0, kappa = eta = 0.
    """
    vectors, n, t = index.vectors, index.n, q.shape[0]
    # Overflow here only sends a query to the full scan, which warns as a
    # direct scan would.
    with np.errstate(over="ignore", invalid="ignore"):
        lower = _lower_estimates(index.frame, q)
    first = np.argpartition(lower, min(k, n - 1), axis=1)[:, :k + 1]
    diffs = vectors[first] - q[:, None]
    cut = (diffs * diffs).sum(axis=2).max(axis=1)
    short = lower <= cut[:, None]
    short[~np.isfinite(lower.max(axis=1))] = True
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


def _gamma(m: int, unit: float = _EPS) -> float:
    """Higham's gamma_m = m u / (1 - m u): the relative error of m roundings."""
    return m * unit / (1 - m * unit)


def _lower_estimates(frame: RangeFrame, q: np.ndarray) -> np.ndarray:
    """[T, N] lower bounds on each row's direct-formula squared distance
    from each query row of ``q`` ([T, d]); ``_knn_rows`` lists the terms."""
    qq = np.vecdot(q, q)
    if frame.basis is None:
        cq, cqq, rho2 = q, qq, 0.0
    else:
        basis, d = frame.basis, q.shape[1]
        cq = q @ basis.T
        res = q - cq @ basis
        cqq = np.vecdot(cq, cq)
        r_q = (np.sqrt(np.vecdot(res, res)) * (1 - _gamma(d + 6))
               - frame.drift * np.sqrt(qq) - d * _ROOT_UNDERFLOW)
        rho2 = np.square(np.maximum(r_q - frame.r_max, 0.0))
    const = (1 - frame.rate_c) * cqq - frame.rate_x * qq - frame.floor + rho2
    lower = (-2.0 * cq).astype(np.float32) @ frame.coords + const[:, None]
    lower += frame.base
    return lower


def _range_frame(vectors: np.ndarray, sq: np.ndarray) -> RangeFrame:
    """The frame of ``_lower_estimates`` for an index's rows and squared norms.

    P holds the eigenvectors of the uncentred V^T V whose eigenvalues
    exceed numpy's ``matrix_rank`` tolerance, largest * max(N, d) * eps;
    V^T V's rounding puts the eigenvalues of its null space near eps times
    the largest, so this finds the numerical rank p of V.  P = I when p = d,
    when V^T V is not finite, or when ``eigh`` fails; its measured departure
    from orthonormality, eta, must stay below 1/2, which the bound assumes.
    r_max is measured over every row, in blocks of ``_FRAME_BLOCK`` rows to
    keep the transient memory small.  Whatever P leaves out, r_max covers,
    so p decides the speed of a query and never its result.
    """
    n, d = vectors.shape
    basis = None
    with np.errstate(over="ignore", invalid="ignore"):
        gram = vectors.T @ vectors
    if np.isfinite(gram).all():
        try:
            lam, vecs = np.linalg.eigh(gram)
        except np.linalg.LinAlgError:
            pass
        else:
            keep = lam > lam[-1] * max(n, d) * _EPS
            if keep.sum() < d:
                basis = np.ascontiguousarray(vecs[:, keep].T)
    eta = kappa = r_max = 0.0
    if basis is not None:
        p = basis.shape[0]
        eta = 2 * float(np.linalg.norm(basis @ basis.T - np.eye(p))) + 2 * p * _gamma(d)
        if not eta <= 0.5:
            basis, eta = None, 0.0
    if basis is None:
        p, coords, cn = d, vectors, sq
    else:
        coords = vectors @ basis.T
        cn = np.vecdot(coords, coords)
        kappa = 2 * np.sqrt(p) * _gamma(d)
        largest = 0.0
        for lo in range(0, n, _FRAME_BLOCK):
            res = vectors[lo:lo + _FRAME_BLOCK] - coords[lo:lo + _FRAME_BLOCK] @ basis
            largest = max(largest, float(np.vecdot(res, res).max()))
        r_max = ((1 + _gamma(d + 6)) * np.sqrt(largest) + kappa * np.sqrt(sq.max())
                 + d * _ROOT_UNDERFLOW)
    rate_c = (2 * p + 8) * _EPS + _gamma(p + 2, _U32)
    rate_x = 10 * kappa + 3 * eta + 2 * _gamma(d + 2) + 32 * _EPS
    with np.errstate(over="ignore", invalid="ignore"):
        base = (1 - rate_c) * cn - rate_x * sq
        coords32 = coords.T.astype(np.float32, order="C")
    coords32.setflags(write=False)
    return RangeFrame(basis=basis, coords=coords32, base=base, rate_c=rate_c, rate_x=rate_x,
                      floor=(2 * p + d + 9) * _UNDERFLOW + 4 * p * _TINY32,
                      r_max=float(r_max), drift=3 * kappa + 3 * eta)


def project_coefficients(basis: OrthoBasis, samples) -> np.ndarray:
    """Coordinates of sample rows in the basis (for coefficient-Gaussianity checks)."""
    return np.asarray(samples, dtype=np.float64) @ basis.basis.T
