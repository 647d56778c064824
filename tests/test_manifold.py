"""Tests for kNN search, Gram-Schmidt bases, and in-manifold noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnsrlab.data import synth_manifold
from lnsrlab.encoder import EncoderConfig, build_encoder
from lnsrlab.errors import ContractError, ShapeError
from lnsrlab.manifold import (
    GS_DROP_RATIO,
    _knn_rows,
    _lower_estimates,
    build_index,
    gram_schmidt,
    knn,
    neighborhood_bases,
    neighborhood_basis,
    project_coefficients,
    sample_inmanifold_noise,
)
from lnsrlab.noise import rescale_relative_rows
from lnsrlab.rng import stream_rng


def line_index():
    return build_index(np.array([[0.0], [1.0], [2.0], [10.0]]))


def test_build_index_contracts():
    idx = line_index()
    assert idx.n == 4 and idx.d == 1
    with pytest.raises(ContractError):
        build_index(np.ones((1, 3)))
    # Duplicate rows are allowed and retrievable.
    dup = build_index(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]))
    got = knn(dup, [2.0, 0.0], 2)
    assert np.array_equal(got[0][0], [1.0, 0.0])
    assert np.array_equal(got[1][0], [1.0, 0.0])


def test_knn_forced_ordering():
    got = knn(line_index(), [1.5], 2)
    vals = sorted(v[0] for v, _ in got)
    assert vals == [1.0, 2.0]
    # Squared Euclidean distances.
    assert got[0][1] == pytest.approx(0.25)


def test_knn_tie_break_by_row_index():
    idx = build_index(np.array([[1.0], [-1.0], [3.0]]))
    got = knn(idx, [0.0], 2)
    # 1.0 (row 0) and -1.0 (row 1) tie at distance 1; row 0 first.
    assert got[0][0][0] == 1.0
    assert got[1][0][0] == -1.0


def test_knn_exclusion_and_k_contract():
    idx = line_index()
    got = knn(idx, [1.0], 3)
    assert all(v[0] != 1.0 for v, _ in got)
    with pytest.raises(ContractError, match=r"k=4 exceeds the 3 points that are not"
                                            r" copies of the query \(N=4\)"):
        knn(idx, [1.0], 4)
    assert len(knn(idx, [1.5], 4)) == 4


def test_knn_excludes_all_duplicates_of_query():
    idx = build_index(np.array([[2.0], [2.0], [5.0], [7.0]]))
    got = knn(idx, [2.0], 2)
    assert [v[0][0] for v in got] == [5.0, 7.0]


def test_gram_schmidt_axis_aligned():
    basis = gram_schmidt([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    assert basis.size == 2
    assert np.allclose(basis.basis[0], [1.0, 0.0, 0.0])
    assert np.allclose(basis.basis[1], [0.0, 1.0, 0.0])


def test_gram_schmidt_drops_dependent():
    basis = gram_schmidt([[1.0, 0.0], [2.0, 0.0]])
    assert basis.size == 1
    assert np.allclose(np.abs(basis.basis[0]), [1.0, 0.0])


def test_gram_schmidt_degenerate_raises():
    with pytest.raises(ContractError):
        gram_schmidt(np.zeros((3, 4)))


def test_gram_schmidt_orthonormality_random():
    rng = stream_rng(11, "theory")
    basis = gram_schmidt(rng.normal(size=(10, 32)))
    g = basis.basis @ basis.basis.T
    assert np.max(np.abs(g - np.eye(basis.size))) <= 1e-10


def test_sample_spans_basis_only():
    basis = gram_schmidt([[1.0, 0.0, 0.0]])
    rng = stream_rng(12, "noise")
    for _ in range(20):
        eps = sample_inmanifold_noise(np.ones(3), basis, 0.5, rng).data
        assert eps[1] == 0.0 and eps[2] == 0.0


def test_sample_projection_residual_bound():
    rng = stream_rng(13, "noise")
    basis = gram_schmidt(rng.normal(size=(6, 24)))
    x = rng.normal(size=24)
    for _ in range(200):
        eps = sample_inmanifold_noise(x, basis, 0.3, rng).data
        proj = project_coefficients(basis, eps) @ basis.basis
        assert np.linalg.norm(eps - proj) <= 1e-10 * max(np.linalg.norm(eps), 1e-30)


def test_sample_rescaled_norm():
    """Relative magnitude is applied by the shared row rescale, and the
    rescaled draw stays in the basis span."""
    rng = stream_rng(14, "noise")
    basis = gram_schmidt(rng.normal(size=(5, 16)))
    x = rng.normal(size=16)
    for ratio in (0.10, 0.12, 0.15, 0.20):
        raw = sample_inmanifold_noise(x, basis, 1.0, rng).data
        eps = rescale_relative_rows(raw, x, ratio)
        assert np.linalg.norm(eps) == pytest.approx(ratio * np.linalg.norm(x), rel=1e-10)
        proj = project_coefficients(basis, eps) @ basis.basis
        assert np.linalg.norm(eps - proj) <= 1e-10 * np.linalg.norm(eps)


def test_sample_contracts():
    rng = stream_rng(15, "noise")
    basis = gram_schmidt([[1.0, 0.0]])
    with pytest.raises(ContractError):
        sample_inmanifold_noise([1.0, 0.0], basis, 0.0, rng)


def test_coefficients_recover_gaussian_moments():
    """Projections of sampled noise onto the basis are N(0, sigma^2)."""
    rng = stream_rng(16, "noise")
    basis = gram_schmidt(rng.normal(size=(4, 12)))
    sigma = 0.3
    ns = 10 ** 5
    coeffs = rng.normal(0.0, sigma, size=(ns, basis.size))
    samples = coeffs @ basis.basis
    recovered = project_coefficients(basis, samples)
    assert np.allclose(recovered, coeffs, atol=1e-12)
    assert np.max(np.abs(recovered.mean(axis=0))) < 4 * sigma / np.sqrt(ns)
    assert np.allclose(recovered.var(axis=0, ddof=1), sigma * sigma, rtol=0.05)


def test_neighborhood_basis_and_fallback():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    basis = neighborhood_basis(build_index(pts), [0.0, 0.0], k=2)
    assert basis is not None and basis.size == 2
    # All neighbors identical to the query: degenerate, falls back to None.
    same = build_index(np.array([[1.0, 1.0]] * 3))
    assert neighborhood_basis(same, [1.0, 1.0], k=2) is None


def test_neighborhood_basis_rejects_bad_k():
    # A bad k is the caller's error, not a degenerate neighbourhood.
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ContractError, match="k must be >= 1, got 0"):
        neighborhood_basis(build_index(pts), [0.0, 0.0], k=0)


# ------------------------------------------ bases against a reference loop

def reference_cgs2(diffs):
    """Classical Gram-Schmidt applied twice, as a loop over one direction at
    a time.  ``rows`` holds a unit row for each kept direction and a zero
    row for each dropped one, as the batched block does; a direction whose
    residual norm is not finite is dropped as a dependent one is.  Returns
    the kept rows, None if none is kept."""
    rows = []
    for row in np.atleast_2d(np.array(diffs, dtype=np.float64)):
        original = float(np.linalg.norm(row))
        v = row.copy()
        if rows:
            u = np.array(rows)
            for _ in range(2):
                v -= (u @ v) @ u
        residual = float(np.linalg.norm(v))
        dropped = (original == 0.0 or not math.isfinite(residual)
                   or residual < GS_DROP_RATIO * original)
        rows.append(np.zeros_like(v) if dropped else v / residual)
    kept = [r for r in rows if r.any()]
    return np.array(kept) if kept else None


def reference_mgs(diffs):
    """Two-sweep modified Gram-Schmidt as a loop over one direction at a
    time, with a list of kept unit rows and the same drop rule: a second,
    independent oracle, equal to ``reference_cgs2`` up to rounding."""
    kept = []
    for row in np.atleast_2d(np.array(diffs, dtype=np.float64)):
        original = float(np.linalg.norm(row))
        if original == 0.0:
            continue
        v = row.copy()
        for b in kept:
            v -= (v @ b) * b
        for b in kept:
            v -= (v @ b) * b
        residual = float(np.linalg.norm(v))
        if residual < GS_DROP_RATIO * original or not math.isfinite(residual):
            continue
        kept.append(v / residual)
    return np.array(kept) if kept else None


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_bases_match_reference(table, k, queries=None):
    """``gram_schmidt`` on each query's kNN differences, ``neighborhood_basis``
    and each row of one ``neighborhood_bases`` call equal ``reference_cgs2``
    bit for bit, and the batched rows after the basis are zero; a query
    with fewer than k non-copies, or with no direction kept, is degenerate
    on every path.  ``reference_mgs`` keeps as many directions, within
    1e-13 of them.  Returns the batch's sizes."""
    index = build_index(table)
    queries = index.vectors if queries is None else np.asarray(queries, dtype=np.float64)
    bases, sizes = neighborhood_bases(index, queries, k)
    assert bases.shape == (len(queries), k, index.d) and sizes.shape == (len(queries),)
    for q, basis, size in zip(queries, bases, sizes):
        one = neighborhood_basis(index, q, k)
        try:
            diffs = np.array([vec - q for vec, _ in knn(index, q, k)])
        except ContractError:
            assert size == 0 and one is None
            continue
        want, mgs = reference_cgs2(diffs), reference_mgs(diffs)
        if want is None:
            assert size == 0 and one is None and mgs is None
            with pytest.raises(ContractError, match="degenerate neighborhood"):
                gram_schmidt(diffs)
        else:
            assert same_bits(basis[:size], want) and same_bits(one.basis, want)
            assert same_bits(gram_schmidt(diffs).basis, want)
            assert mgs.shape == want.shape and np.abs(mgs - want).max() <= 1e-13
        assert not basis[size:].any()
    return sizes


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_bases_match_on_the_gap_vocabulary(seed):
    """The token table of the benchmark's training shape, at init."""
    cfg = EncoderConfig(vocab_size=30, embed_dim=16, num_layers=2, num_heads=2,
                        ffn_dim=32, max_seq_len=8)
    table = build_encoder(cfg, seed).tok_emb.data
    assert (assert_bases_match_reference(table, 10) == 10).all()


def test_bases_match_with_duplicated_rows():
    """Exact copies of the query are excluded, and a row with more than k
    copies makes its query re-rank every row.  Copies that are neighbours
    of another row give equal differences, so its basis loses directions."""
    rng = np.random.default_rng(7)
    table = rng.normal(size=(40, 6))
    table[[3, 9, 21]] = table[0]
    table[[11, 12, 13, 14, 15, 16, 30]] = table[5]
    sizes = assert_bases_match_reference(table, 4)
    assert sizes[0] == sizes[5] == 4 and sizes.min() < 4


def test_bases_match_when_directions_are_dependent():
    """Points in a plane through the origin: every third direction drops."""
    rng = np.random.default_rng(8)
    table = rng.normal(size=(25, 2)) @ rng.normal(size=(2, 6))
    assert (assert_bases_match_reference(table, 5) == 2).all()


def test_bases_all_equal_table_is_degenerate():
    sizes = assert_bases_match_reference(np.full((12, 5), 0.25), 4)
    assert not sizes.any()


def test_bases_match_on_a_tie_lattice():
    """Many exactly equal distances at the k-th cut, for stored rows and for
    queries between them."""
    axis = np.arange(5.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    assert_bases_match_reference(grid, 10)
    assert_bases_match_reference(grid, 10, queries=grid[::7] + 0.5)


def test_bases_match_on_a_mixed_batch():
    """One table holding each case above in its own block, far from the
    others, and one batch of queries from every block, between the lattice
    points, and a NaN query, whose differences are all NaN."""
    rng = np.random.default_rng(10)
    d = 16
    vocab = build_encoder(EncoderConfig(vocab_size=30, embed_dim=d, num_layers=2, num_heads=2,
                                        ffn_dim=32, max_seq_len=8), 1).tok_emb.data
    dup = rng.normal(size=(40, d))
    dup[[3, 9, 21]] = dup[0]
    dup[[11, 12, 13, 14, 15, 16, 30]] = dup[5]
    plane = rng.normal(size=(25, 2)) @ rng.normal(size=(2, d))
    equal = np.full((12, d), 0.25)
    axis = np.arange(5.0)
    grid = np.zeros((125, d))
    grid[:, :3] = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    blocks = [vocab, dup, plane, equal, grid]
    for i, block in enumerate(blocks[1:], start=1):
        block[:, d - i] += 1e3
    table = np.concatenate(blocks)
    nan = np.full(d, np.nan)
    queries = np.concatenate([table, grid[::7] + 0.5, nan[None]])
    with np.errstate(invalid="ignore"):
        sizes = assert_bases_match_reference(table, 5, queries)
    # Degenerate, plane, full, and the duplicates' lost directions.
    assert {0, 2, 5} < set(sizes.tolist()) and sizes[-1] == 0


def test_overflowing_directions_are_dropped():
    """A direction whose norm overflows float64 is dropped as a dependent
    one is, so no basis holds a zero row in place of a unit direction; a
    neighbourhood of such directions only is degenerate."""
    points = synth_manifold(400, 16, 3, 1e157, 0).points
    index = build_index(points)
    with np.errstate(over="ignore", invalid="ignore"):
        assert neighborhood_basis(index, points[0], k=10) is None
        bases, sizes = neighborhood_bases(index, points[:3], k=10)
        with pytest.raises(ContractError, match="degenerate neighborhood"):
            gram_schmidt([[1e200, 0.0], [0.0, 1e200]])
        mixed = [[1e200, 0.0, 0.0], [0.0, 2.0, 0.0], [1.0, 1.0, 1.0]]
        basis = gram_schmidt(mixed).basis
        assert same_bits(basis, reference_cgs2(mixed))
    assert not sizes.any() and not bases.any()
    assert basis.shape == (2, 3) and np.allclose(np.linalg.norm(basis, axis=1), 1.0)


def test_second_projection_restores_orthogonality():
    """Ten directions 1e-6 apart around one unit vector: one classical
    projection leaves the basis about 1e-5 from orthogonal, and the second
    brings it to rounding level, with every direction kept."""
    rng = np.random.default_rng(12)
    diffs = np.ones(32) / np.sqrt(32) + 1e-6 * rng.normal(size=(10, 32))
    b = gram_schmidt(diffs).basis
    assert b.shape == (10, 32)
    assert np.abs(b @ b.T - np.eye(10)).max() <= 1e-14


def test_bases_contracts():
    index = build_index(np.random.default_rng(9).normal(size=(8, 3)))
    with pytest.raises(ContractError, match="k must be >= 1, got 0"):
        neighborhood_bases(index, index.vectors, k=0)
    with pytest.raises(ShapeError):
        neighborhood_bases(index, np.zeros((2, 4)), k=2)


def rescan(pts, q, k):
    """Reference kNN: a full direct scan over the rows that are not copies
    of the query, ordered by (squared distance, row)."""
    d2 = ((pts - q) ** 2).sum(axis=1)
    rows = np.flatnonzero(~np.all(pts == q, axis=1))
    order = rows[np.lexsort((rows, d2[rows]))][:k]
    return order, d2[order]


def assert_knn_matches_rescan(pts, q, k):
    """knn returns the rescan's rows and distances bit for bit."""
    got = knn(build_index(pts), q, k)
    rows, d2 = rescan(pts, q, k)
    assert len(got) == len(rows)
    for (vec, dist), row, want in zip(got, rows, d2):
        assert np.array_equal(vec, pts[row])
        assert dist == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(100, 400), st.integers(1, 12),
       st.integers(2, 16), st.sampled_from(["fresh", "row", "near"]))
def test_property_knn_matches_rescan(seed, n, k, d, where):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    q = {"fresh": rng.normal(size=d),
         "row": pts[rng.integers(n)],
         "near": pts[rng.integers(n)] + 1e-9 * rng.normal(size=d)}[where]
    assert_knn_matches_rescan(pts, q, k)


@pytest.mark.parametrize("offset, spread",
                         [(1e6, 1e-3), (0.0, 1e-160), (0.0, 2.0 ** -537), (0.0, 1e154)])
def test_knn_scaled_clouds_match_rescan(offset, spread):
    """A tight cluster far from the origin, where the norm expansion cancels
    worst; clouds whose squares underflow (at 2^-537 they are subnormal and
    the rounding error is absolute); one whose squares overflow."""
    rng = np.random.default_rng(3)
    pts = offset + spread * rng.normal(size=(300, 8))
    queries = [pts[7], pts[150], offset + spread * rng.normal(size=8)]
    with np.errstate(over="ignore"):
        for q in queries:
            assert_knn_matches_rescan(pts, q, 10)


def test_knn_more_than_k_copies_of_query():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 4))
    copies = [5, 17, 40, 41, 42, 90, 91, 120, 150, 151, 160, 170, 180, 190, 199]
    pts[copies] = pts[5]
    assert_knn_matches_rescan(pts, pts[5], 10)


def test_knn_ties_at_the_cut_on_a_lattice():
    axis = np.arange(5.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    for q in np.concatenate([grid[::11], grid[::13] + 0.5]):
        assert_knn_matches_rescan(grid, q, 10)


def test_knn_n_equals_k_plus_one():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(11, 3))
    for q in (pts[4], rng.normal(size=3)):
        assert_knn_matches_rescan(pts, q, 10)


def test_knn_nan_query_takes_the_first_rows():
    """Every distance is NaN, so the stable order keeps rows 0..k-1."""
    pts = np.random.default_rng(6).normal(size=(50, 3))
    q = np.array([np.nan, 0.0, 1.0])
    got = knn(build_index(pts), q, 4)
    assert all(np.array_equal(vec, pts[i]) for i, (vec, _) in enumerate(got))
    assert all(np.isnan(dist) for _, dist in got)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
def test_property_gram_schmidt_invariants(seed, m):
    rng = np.random.default_rng(seed)
    basis = gram_schmidt(rng.normal(size=(m, 10)))
    b = basis.basis
    assert b.shape[0] <= m
    assert np.max(np.abs(b @ b.T - np.eye(b.shape[0]))) <= 1e-10
    assert np.allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-10)


# ------------------------------------------------- batched search vs rescan

def assert_knn_rows_match_rescan(pts, queries, k):
    """One ``_knn_rows`` call gives every query the rescan's rows and
    distances bit for bit; a query with fewer than k non-copies has a count
    of exactly that many."""
    queries = np.asarray(queries, dtype=np.float64)
    rows, dists, count = _knn_rows(build_index(pts), queries, k)
    assert rows.shape == dists.shape == (len(queries), k) and count.shape == (len(queries),)
    for q, got_rows, got_d2, n_others in zip(queries, rows, dists, count):
        want_rows, want_d2 = rescan(pts, q, k)
        m = len(want_rows)
        assert n_others >= k if m == k else n_others == m
        assert np.array_equal(got_rows[:m], want_rows)
        assert np.array_equal(got_d2[:m], want_d2, equal_nan=True)
    return rows


@pytest.mark.parametrize("offset, spread",
                         [(1e6, 1e-3), (0.0, 1e-160), (0.0, 2.0 ** -537), (0.0, 1e154)])
def test_knn_rows_scaled_clouds_match_rescan(offset, spread):
    rng = np.random.default_rng(3)
    pts = offset + spread * rng.normal(size=(300, 8))
    queries = [pts[7], pts[150], offset + spread * rng.normal(size=8)]
    with np.errstate(over="ignore"):
        assert_knn_rows_match_rescan(pts, queries, 10)


def test_knn_rows_mixed_batch_with_copies_ties_and_nan():
    """A row with more than k copies, a query with fewer than k non-copies,
    lattice ties at the cut, a NaN query, and a nearest row whose estimate
    overflows while the others' do not, each beside ordinary queries in one
    batch."""
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 4))
    copies = [5, 17, 40, 41, 42, 90, 91, 120, 150, 151, 160, 170, 180, 190, 199]
    pts[copies] = pts[5]
    assert_knn_rows_match_rescan(pts, [pts[0], pts[5], rng.normal(size=4), pts[17]], 10)
    few = np.array([[0.0, 0.0]] * 5 + [[1.0, 0.0], [0.0, 1.0]])
    assert_knn_rows_match_rescan(few, [[0.0, 0.0], [1.0, 1.0]], 3)

    axis = np.arange(5.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    assert_knn_rows_match_rescan(grid, np.concatenate([grid[::11], grid[::13] + 0.5]), 10)

    pts = np.random.default_rng(6).normal(size=(50, 3))
    finite = [pts[3], np.array([0.5, -0.5, 0.0]), pts[40]]
    mixed = [finite[0], [np.nan, 0.0, 1.0], finite[1], finite[2]]
    rows = assert_knn_rows_match_rescan(pts, mixed, 4)
    alone = assert_knn_rows_match_rescan(pts, finite, 4)
    assert np.array_equal(rows[[0, 2, 3]], alone)

    pts = np.concatenate([[[1.35e154]], np.random.default_rng(7).normal(size=(20, 1))])
    with np.errstate(over="ignore"):
        assert_knn_rows_match_rescan(pts, [[1.33e154], [0.0], pts[5]], 3)


@pytest.mark.parametrize("n", [11, 10, 6])
def test_knn_rows_small_index_matches_rescan(n):
    """An index of at most k + 1 rows (k = 10), where every row is on the
    shortlist: a copy of a stored row, a fresh and a NaN query, then the
    same with a NaN row in the index."""
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(n, 3))
    queries = [pts[2], rng.normal(size=3), [np.nan, 0.0, 1.0]]
    assert_knn_rows_match_rescan(pts, queries, 10)
    pts[1] = np.nan
    assert_knn_rows_match_rescan(pts, queries, 10)


# ------------------------------------------- the float32 distance estimate

@pytest.mark.parametrize("offset, spread", [
    (0.0, 1e38), (1e38, 1e37), (-1e38, 1e38), (1.5e19, 1e18),  # near float32's maximum
    (4e-40, 1e-40), (0.0, 1e-40),  # float32 subnormals
    (4e-46, 1e-46), (0.0, 1e-46)])  # below float32's smallest subnormal
def test_knn_float32_range_edges_match_rescan(offset, spread):
    """Clouds whose float32 products overflow, and clouds that float32 holds
    only as subnormals or zeros, while their float64 squares stay finite.
    Off the origin, the tiny clouds' float32 products underflow to zero, so
    an estimate without the underflow allowance ranks rows by |v|^2 alone."""
    rng = np.random.default_rng(8)
    pts = offset + spread * rng.normal(size=(300, 8))
    queries = [pts[7], pts[150], offset + spread * rng.normal(size=8)]
    for q in queries:
        assert_knn_matches_rescan(pts, q, 10)
    assert_knn_rows_match_rescan(pts, queries, 10)
    assert_lower_estimates_hold(build_index(pts), queries, beyond_float32=True)


def test_knn_rows_beyond_float32_range_match_rescan():
    """A component past float32's maximum is inf in the estimate.  A query
    holding one takes the full scan alone, beside finite queries in the
    same batch; a stored row holding one sends every query there."""
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(200, 4))
    finite = [pts[3], rng.normal(size=4), pts[40]]
    mixed = [finite[0], [1e39, 0.0, 0.0, 1.0], finite[1], [0.5, -1e39, 3e38, 0.0], finite[2]]
    rows = assert_knn_rows_match_rescan(pts, mixed, 10)
    alone = assert_knn_rows_match_rescan(pts, finite, 10)
    assert np.array_equal(rows[[0, 2, 4]], alone)
    for q in mixed:
        assert_knn_matches_rescan(pts, q, 10)

    pts[[5, 60]] = [[1e39, -1e38, 0.0, 0.0], [0.0, 3e38, -1e39, 2.0]]
    assert_knn_rows_match_rescan(pts, [pts[5], pts[6], [1e38, -1e38, 0.0, 0.0], finite[1]], 10)


@pytest.mark.parametrize("d, offset, spread", [(1, 1.3, 1e-5), (16, 0.9, 1e-4)])
def test_knn_rows_float32_rounding_clouds_match_rescan(d, offset, spread):
    """Clouds whose spread lies near float32's resolution at their offset, so
    the estimate's rounding error is as large as the distances between
    points: at d = 1 it comes mostly from rounding v and q into float32, at
    d = 16 mostly from the float32 dot product."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = offset + spread * rng.normal(size=(300, d))
        queries = np.concatenate([pts[:10], offset + spread * rng.normal(size=(10, d))])
        assert_knn_rows_match_rescan(pts, queries, 10)
        assert_lower_estimates_hold(build_index(pts), queries)


# ------------------------------------------------- the range frame's filter

def rotated_cloud(rank, d, offset, spread, seed, n=300):
    """n points of a rank-``rank`` Gaussian cloud, scaled by ``spread``,
    rotated into R^d and moved ``offset`` along one more direction; also a
    unit direction orthogonal to all of them, and fresh points of the cloud."""
    rng = np.random.default_rng(seed)
    axes = np.linalg.qr(rng.normal(size=(d, rank + 2)))[0].T

    def draw(m):
        return offset * axes[rank] + spread * (rng.normal(size=(m, rank)) @ axes[:rank])
    return draw(n), axes[rank + 1], draw(3)


def assert_lower_estimates_hold(index, queries, beyond_float32=False):
    """No lower estimate exceeds the row's direct-formula distance.  With
    ``beyond_float32`` the float32 product may overflow: a NaN or +inf
    estimate then counts as not exceeding, as either sends its query to
    the full scan."""
    queries = np.asarray(queries, dtype=np.float64)
    ignore = "ignore" if beyond_float32 else "warn"
    with np.errstate(over=ignore, invalid=ignore):
        lower = _lower_estimates(index.frame, queries)
    for q, low in zip(queries, lower):
        diffs = index.vectors - q
        holds = low <= (diffs * diffs).sum(axis=1)
        if beyond_float32:
            holds |= np.isnan(low) | np.isposinf(low)
        assert holds.all()


def assert_filter_matches_rescan(pts, queries, k=10):
    """Through ``knn`` and one ``_knn_rows`` call, every query gets the
    rescan's rows and distances bit for bit; the lower estimates hold."""
    for q in queries:
        assert_knn_matches_rescan(pts, q, k)
    assert_knn_rows_match_rescan(pts, queries, k)
    assert_lower_estimates_hold(build_index(pts), queries)


@pytest.mark.parametrize("curvature, rank", [(0.0, 4), (0.05, 8)])
def test_filter_on_synthetic_manifolds(curvature, rank):
    """A flat patch spans k_true directions, a bent one 2 k_true: the frame
    finds that rank and the search stays exact, for stored rows and for
    queries off the manifold."""
    pts = synth_manifold(2000, 32, 4, curvature, 3).points
    index = build_index(pts)
    assert index.frame.basis.shape == (rank, 32)
    off = np.random.default_rng(1).normal(size=(3, 32))
    assert_filter_matches_rescan(pts, np.concatenate([pts[:5], pts[5:8] + 0.1 * off]))


@pytest.mark.parametrize("offset, spread", [(0.0, 1.0), (1e6, 1e-3), (1e6, 1.0),
                                            (0.0, 1e-40), (0.0, 1e-150)])
@pytest.mark.parametrize("d", [8, 24, 64])
@pytest.mark.parametrize("rank", [1, 3, 5])
def test_filter_on_rotated_low_rank_clouds(rank, d, offset, spread):
    """Clouds far from the origin, where the norm expansion cancels worst;
    clouds that float32 holds only as subnormals; clouds whose squares are
    near float64's underflow.  Queries are stored rows, fresh points of the
    cloud, and fresh points moved off its span by 1, 1e3 and 1e8 spreads;
    far off the span, |q|^2 outweighs the float32 term, and the bound rests
    on its float64 terms and on r_q's rounding."""
    pts, away, fresh = rotated_cloud(rank, d, offset, spread, seed=rank * 100 + d)
    index = build_index(pts)
    assert index.frame.basis is not None and index.frame.basis.shape[0] <= rank + 1
    queries = np.concatenate([pts[[0, 7, 150]], fresh, fresh + spread * away,
                              fresh + 1e3 * spread * away, fresh + 1e8 * spread * away])
    assert_filter_matches_rescan(pts, queries)


def test_filter_on_a_tie_lattice_in_16_dimensions():
    """Exactly equal distances at the cut, in a 3-dimensional range."""
    axis = np.arange(5.0)
    grid = np.zeros((125, 16))
    grid[:, [2, 9, 13]] = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                                   axis=-1).reshape(-1, 3)
    assert build_index(grid).frame.basis.shape == (3, 16)
    away = np.zeros(16)
    away[0] = 0.5
    assert_filter_matches_rescan(grid, np.concatenate([grid[::11], grid[::13] + 0.5,
                                                       grid[::17] + away]))


def test_filter_with_off_span_residuals_below_the_rank_tolerance():
    """Lattice rows moved by +-tau along a direction the frame leaves out
    (tau lies below the rank tolerance), and queries h = 100 along it.  A
    row on the query's side is nearer by 2 h tau than its tie inside the
    span; only r_max keeps its lower estimate below its distance."""
    axis = np.arange(5.0)
    grid = np.zeros((125, 16))
    grid[:, :3] = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                           axis=-1).reshape(-1, 3)
    tau = 5e-7
    grid[:, 15] = tau * np.where(np.arange(125) % 2, 1.0, -1.0)
    index = build_index(grid)
    assert index.frame.basis.shape == (3, 16) and index.frame.r_max >= tau
    queries = grid[::9].copy()
    queries[:, 15] = 100.0
    assert_filter_matches_rescan(grid, queries)


def test_filter_with_more_than_k_copies_in_a_low_rank_index():
    pts, _, _ = rotated_cloud(3, 16, 1.0, 1.0, seed=5, n=200)
    copies = [5, 17, 40, 41, 42, 90, 91, 120, 150, 151, 160, 170, 180, 190, 199]
    pts[copies] = pts[5]
    assert build_index(pts).frame.basis.shape[0] == 4
    assert_filter_matches_rescan(pts, pts[[5, 6, 17]])


@pytest.mark.parametrize("kind", ["nan", "inf", "overflow"])
def test_non_finite_and_overflowing_indexes_take_the_identity_frame(kind):
    """An index whose V^T V is not finite gets the identity as its basis,
    and the search falls back to the full scan wherever its estimate is
    not finite."""
    pts, _, fresh = rotated_cloud(3, 16, 1.0, 1.0, seed=6)
    if kind == "overflow":
        pts, fresh = 1e155 * pts, 1e155 * fresh
    else:
        pts[40, 2] = {"nan": np.nan, "inf": np.inf}[kind]
    index = build_index(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(index.frame.basis, np.eye(16))
        queries = np.concatenate([pts[[0, 7]], fresh])
        for q in queries:
            assert_knn_matches_rescan(pts, q, 10)
        assert_knn_rows_match_rescan(pts, queries, 10)


def test_full_rank_index_frame_has_d_orthonormal_rows():
    """A token vocabulary spans all 16 dimensions: its frame keeps every
    eigenvector of V^T V, a rotation rather than the identity."""
    cfg = EncoderConfig(vocab_size=30, embed_dim=16, num_layers=2, num_heads=2,
                        ffn_dim=32, max_seq_len=8)
    index = build_index(build_encoder(cfg, 1).tok_emb.data)
    basis = index.frame.basis
    assert basis.shape == (16, 16) and index.frame.coords.shape == (16, 30)
    assert np.allclose(basis @ basis.T, np.eye(16), rtol=0.0, atol=1e-14)
    assert not np.array_equal(basis, np.eye(16))
    assert_lower_estimates_hold(index, index.vectors)


def test_frame_is_built_on_the_first_query():
    pts = synth_manifold(500, 16, 3, 0.0, 2).points
    index = build_index(pts)
    assert "frame" not in vars(index)
    knn(index, pts[0], 5)
    assert vars(index)["frame"].basis.shape == (3, 16)
    assert not vars(index)["frame"].coords.flags.writeable
