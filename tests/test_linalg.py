"""Jacobi eigensolver and the matrix-free power iteration
(``theory.spectral_norm_estimate``) against np.linalg oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnsrlab.errors import ContractError, ShapeError
from lnsrlab.linalg import _rotation, _round_robin, jacobi_eigh
from lnsrlab.theory import spectral_norm_estimate

RNG = np.random.default_rng(7)


def random_symmetric(n, rng):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def test_hand_2x2():
    vals = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)


def test_matches_numpy_eigh():
    for n in (1, 2, 3, 5, 8, 12, 127, 128):
        a = random_symmetric(n, RNG)
        vals = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert vals.shape == (n,)
        assert np.allclose(vals, ref, atol=1e-9)
        assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


def test_descending_order_and_repeated_eigenvalues():
    vals = jacobi_eigh(np.eye(4) * 2.0)
    assert np.allclose(vals, 2.0)
    a = np.diag([1.0, 5.0, 3.0])
    vals = jacobi_eigh(a)
    assert np.allclose(vals, [5.0, 3.0, 1.0])


def test_rejects_nonsymmetric_and_nonsquare():
    with pytest.raises(ContractError):
        jacobi_eigh([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ShapeError):
        jacobi_eigh(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_before_symmetry(bad):
    a = np.eye(3)
    a[0, 1] = bad
    with pytest.raises(ContractError, match="non-finite entries"):
        jacobi_eigh(a)


def test_raises_when_sweeps_run_out():
    a = random_symmetric(20, np.random.default_rng(20))
    with pytest.raises(ContractError, match=r"not converged after 1 sweeps \(off-diagonal norm"
                                            r" \S+ > target \S+\)"):
        jacobi_eigh(a, max_sweeps=1)
    vals = jacobi_eigh(a)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[::-1], atol=1e-9)


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_power_of_two_scaling_is_exact(k, n):
    # At 2**600 the entries' squares overflow float64, at 2**-600 they
    # underflow; the spectrum must still scale with the matrix bit for bit.
    x = np.random.default_rng(n).normal(size=(3 * n, n))
    a = x.T @ x / (3 * n - 1)
    assert np.array_equal(jacobi_eigh(np.ldexp(a, k)), np.ldexp(jacobi_eigh(a), k))


@pytest.mark.parametrize("a", [np.diag([1.0, 5.0, 3.0, -2.0, 0.0]), np.zeros((4, 4))])
def test_diagonal_input_needs_no_sweep(a):
    vals = jacobi_eigh(a, max_sweeps=0)
    assert np.array_equal(vals, np.sort(a.diagonal())[::-1])


def test_round_robin_pairs_every_two_indices_once():
    for m in (2, 4, 6, 16, 128):
        layout, step = _round_robin(m)
        pairs = []
        for _ in range(m - 1):
            pairs += [tuple(sorted(p)) for p in layout.reshape(-1, 2).tolist()]
            layout = layout[step]
        assert len(pairs) == len(set(pairs)) == m * (m - 1) // 2
        assert np.array_equal(layout, _round_robin(m)[0])


def test_rank_deficient_covariance():
    """The in-manifold spectrum's shape: a rank-10 covariance in 128 dims."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1000, 10)) @ rng.normal(size=(10, 128))
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    vals = jacobi_eigh(cov)
    ref = np.linalg.eigvalsh(cov)[::-1]
    assert np.abs(vals - ref).max() <= 1e-10 * ref[0]
    assert np.abs(vals[10:]).max() <= 1e-10 * ref[0]


@pytest.mark.parametrize("apq", [1e-310, 1e-160])
def test_tiny_off_diagonal_keeps_its_rotation(apq):
    """Against a unit diagonal gap, theta = 1 / (2 apq) overflows
    (apq = 1e-310) or its square does (apq = 1e-160).  Each overflow guard
    must still give the rotation its limit t = apq / diff, not zero; the
    (1, 2) block of the matrix keeps it from converging at once."""
    c, s = _rotation(np.array([0.0]), np.array([1.0]), np.array([apq]))
    assert abs(s[0] / c[0] - apq) <= 1e-6 * apq
    a = np.array([[0.0, 0.0, 0.0, apq],
                  [0.0, 2.0, 1.0, 0.0],
                  [0.0, 1.0, 2.0, 0.0],
                  [apq, 0.0, 0.0, 1.0]])
    assert np.allclose(jacobi_eigh(a), [3.0, 1.0, 1.0, 0.0], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 7))
def test_property_reconstruction(seed, n):
    """The spectrum reconstructs the matrix's invariants: its trace and its
    squared Frobenius norm, and numpy's eigenvalues."""
    rng = np.random.default_rng(seed)
    a = random_symmetric(n, rng)
    vals = jacobi_eigh(a)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.sum() == pytest.approx(np.trace(a), abs=1e-8)
    assert (vals * vals).sum() == pytest.approx((a * a).sum(), rel=1e-10)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[::-1], atol=1e-8)


def _spectral_norm(j, **kw):
    return spectral_norm_estimate(lambda v: j @ v, lambda u: j.T @ u, j.shape[1], **kw)


def test_power_iteration_matches_svd():
    for n in (2, 4, 9):
        j = RNG.normal(size=(n, n + 1))
        est, hist = _spectral_norm(j, iters=500, v0=RNG.normal(size=n + 1),
                                   return_history=True)
        top = np.linalg.svd(j, compute_uv=False)[0]
        assert est == pytest.approx(top, rel=1e-6)
        assert np.all(np.diff(hist) >= -1e-9), "Rayleigh quotients must not decrease"


def test_power_iteration_zero_matrix():
    est, hist = _spectral_norm(np.zeros((3, 3)), v0=[1.0, 0.0, 0.0], return_history=True)
    assert est == 0.0
    assert len(hist) == 1


def test_power_iteration_rejects_zero_start():
    with pytest.raises(ContractError):
        _spectral_norm(np.eye(2), v0=[0.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 6))
def test_property_power_iteration_monotone_on_psd(seed, n):
    rng = np.random.default_rng(seed)
    j = rng.normal(size=(n, n))
    est, hist = _spectral_norm(j, iters=300, v0=rng.normal(size=n), return_history=True)
    assert np.all(np.diff(hist) >= -1e-8 * max(hist[-1], 1.0))
    assert est <= np.linalg.svd(j, compute_uv=False)[0] * (1 + 1e-9) + 1e-12
