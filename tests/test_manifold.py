"""Tests for kNN search, Gram-Schmidt bases, in-manifold noise, and the
locally-linear reconstruction diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnsrlab.errors import ContractError
from lnsrlab.manifold import (
    build_index,
    gram_schmidt,
    knn,
    lle_reconstruction_error,
    neighborhood_basis,
    project_coefficients,
    sample_inmanifold_noise,
)
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
    got = knn(dup, [2.0, 0.0], 2, exclude_exact_match=False)
    assert np.array_equal(got[0][0], [1.0, 0.0])
    assert np.array_equal(got[1][0], [1.0, 0.0])


def test_knn_forced_ordering():
    got = knn(line_index(), [1.5], 2, exclude_exact_match=False)
    vals = sorted(v[0] for v, _ in got)
    assert vals == [1.0, 2.0]
    # Squared Euclidean distances.
    assert got[0][1] == pytest.approx(0.25)


def test_knn_tie_break_by_row_index():
    idx = build_index(np.array([[1.0], [-1.0], [3.0]]))
    got = knn(idx, [0.0], 2, exclude_exact_match=False)
    # 1.0 (row 0) and -1.0 (row 1) tie at distance 1; row 0 first.
    assert got[0][0][0] == 1.0
    assert got[1][0][0] == -1.0


def test_knn_exclusion_and_k_contract():
    idx = line_index()
    got = knn(idx, [1.0], 3, exclude_exact_match=True)
    assert all(v[0] != 1.0 for v, _ in got)
    with pytest.raises(ContractError, match=r"k=4 exceeds the 3 available points"
                                            r" \(N=4, exclude_exact_match=True\)"):
        knn(idx, [1.0], 4, exclude_exact_match=True)
    knn(idx, [1.0], 4, exclude_exact_match=False)


def test_knn_excludes_all_duplicates_of_query():
    idx = build_index(np.array([[2.0], [2.0], [5.0], [7.0]]))
    got = knn(idx, [2.0], 2, exclude_exact_match=True)
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


def test_sample_mix_ratio_norm():
    rng = stream_rng(14, "noise")
    basis = gram_schmidt(rng.normal(size=(5, 16)))
    x = rng.normal(size=16)
    for ratio in (0.10, 0.12, 0.15, 0.20):
        eps = sample_inmanifold_noise(x, basis, 1.0, rng, mix_ratio=ratio).data
        assert np.linalg.norm(eps) == pytest.approx(ratio * np.linalg.norm(x), rel=1e-10)


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


def test_lle_exact_affine_combination():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    mid = 0.5 * (a + b)
    assert lle_reconstruction_error(mid, [a, b]) <= 1e-12


def test_lle_orthogonal_residual():
    x = np.array([0.0, 0.0, 3.0])
    nb = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
    assert lle_reconstruction_error(x, nb) == pytest.approx(9.0, abs=1e-10)


def test_lle_planar_patch():
    rng = stream_rng(17, "theory")
    # Points on a 2-dim plane in R^8.
    plane = np.linalg.qr(rng.normal(size=(8, 2)))[0].T
    z = rng.normal(size=(6, 2))
    pts = z @ plane
    x = np.array([0.3, -0.2]) @ plane
    assert lle_reconstruction_error(x, pts) <= 1e-10


def rescan(pts, q, k, exclude_exact_match):
    """Reference kNN: a full direct scan ordered by (squared distance, row)."""
    d2 = ((pts - q) ** 2).sum(axis=1)
    rows = np.arange(pts.shape[0])
    if exclude_exact_match:
        rows = rows[~np.all(pts == q, axis=1)]
    order = rows[np.lexsort((rows, d2[rows]))][:k]
    return order, d2[order]


def assert_knn_matches_rescan(pts, q, k, exclude_exact_match):
    """knn returns the rescan's rows and distances bit for bit."""
    got = knn(build_index(pts), q, k, exclude_exact_match=exclude_exact_match)
    rows, d2 = rescan(pts, q, k, exclude_exact_match)
    assert len(got) == len(rows)
    for (vec, dist), row, want in zip(got, rows, d2):
        assert np.array_equal(vec, pts[row])
        assert dist == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(100, 400), st.integers(1, 12),
       st.integers(2, 16), st.sampled_from(["fresh", "row", "near"]), st.booleans())
def test_property_knn_matches_rescan(seed, n, k, d, where, exclude):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    q = {"fresh": rng.normal(size=d),
         "row": pts[rng.integers(n)],
         "near": pts[rng.integers(n)] + 1e-9 * rng.normal(size=d)}[where]
    assert_knn_matches_rescan(pts, q, k, exclude)


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
            for exclude in (True, False):
                assert_knn_matches_rescan(pts, q, 10, exclude)


def test_knn_more_than_k_copies_of_query():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 4))
    copies = [5, 17, 40, 41, 42, 90, 91, 120, 150, 151, 160, 170, 180, 190, 199]
    pts[copies] = pts[5]
    for exclude in (True, False):
        assert_knn_matches_rescan(pts, pts[5], 10, exclude)


def test_knn_ties_at_the_cut_on_a_lattice():
    axis = np.arange(5.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    for q in np.concatenate([grid[::11], grid[::13] + 0.5]):
        for exclude in (True, False):
            assert_knn_matches_rescan(grid, q, 10, exclude)


def test_knn_n_equals_k_plus_one():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(11, 3))
    for q in (pts[4], rng.normal(size=3)):
        for exclude in (True, False):
            assert_knn_matches_rescan(pts, q, 10, exclude)


def test_knn_nan_query_takes_the_first_rows():
    """Every distance is NaN, so the stable order keeps rows 0..k-1."""
    pts = np.random.default_rng(6).normal(size=(50, 3))
    q = np.array([np.nan, 0.0, 1.0])
    for exclude in (True, False):
        got = knn(build_index(pts), q, 4, exclude_exact_match=exclude)
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
