"""Tests for Gaussian sampling and relative rescaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnsrlab.errors import ContractError, ValidationError
from lnsrlab.noise import (
    NoiseSpec,
    rescale_relative_rows,
    sample_standard_noise,
)
from lnsrlab.rng import stream_rng


def test_spec_validation():
    NoiseSpec(mode="none")
    NoiseSpec(mode="in_manifold", rel_magnitude=0.12)
    with pytest.raises(ValidationError, match="mode"):
        NoiseSpec(mode="adversarial")
    with pytest.raises(ValidationError, match="sigma"):
        NoiseSpec(sigma=0.0)
    with pytest.raises(ValidationError, match="rel_magnitude"):
        NoiseSpec(rel_magnitude=-0.05)
    # The injection layer is the regularizer's field alone.
    with pytest.raises(TypeError):
        NoiseSpec(injection_layer=1)
    for field in ("sigma", "rel_magnitude"):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValidationError, match=field):
                NoiseSpec(**{field: bad})


def test_standard_noise_moments_million_draws():
    rng = stream_rng(0, "noise")
    eps = sample_standard_noise((1000, 1000), 1.0, rng).data
    assert abs(eps.mean()) < 0.005
    assert abs(eps.var() - 1.0) < 0.01


def test_standard_noise_small_sigma_variance():
    rng = stream_rng(1, "noise")
    eps = sample_standard_noise((500, 500), 0.05, rng).data
    assert eps.var() == pytest.approx(0.0025, rel=0.02)


def test_standard_noise_determinism_and_contract():
    a = sample_standard_noise((4, 3), 0.3, stream_rng(7, "noise")).data
    b = sample_standard_noise((4, 3), 0.3, stream_rng(7, "noise")).data
    assert np.array_equal(a, b)
    with pytest.raises(ContractError):
        sample_standard_noise((2,), 0.0, stream_rng(0, "noise"))


def test_cross_moment_identities():
    """Empirical E[e_i e_j] = sigma^2 delta_ij and E[e_i e_j e_k] = 0."""
    n = 10 ** 5
    sigma = 0.7
    rng = stream_rng(2, "noise")
    eps = rng.normal(0.0, sigma, size=(n, 4))
    second = eps.T @ eps / n
    se2 = sigma * sigma / np.sqrt(n)
    assert np.allclose(np.diag(second), sigma * sigma, atol=5 * np.sqrt(2) * se2)
    off = second - np.diag(np.diag(second))
    assert np.max(np.abs(off)) < 5 * se2
    third = (eps[:, 0] * eps[:, 1] * eps[:, 2]).mean()
    third_se = (eps[:, 0] * eps[:, 1] * eps[:, 2]).std(ddof=1) / np.sqrt(n)
    assert abs(third) < 4 * third_se


# The rescaling tests run on a single [1, d] row and on an [n, d] matrix.

def test_rescale_norm_is_exact_fraction():
    rng = stream_rng(3, "noise")
    for n in (1, 5):
        x = np.zeros((n, 8))
        x[:, 0] = 10.0
        out = rescale_relative_rows(rng.normal(size=(n, 8)), x, 0.05)
        assert np.allclose(np.linalg.norm(out, axis=1), 0.5, rtol=0.0, atol=1e-12)


def test_rescale_zero_x_and_zero_noise():
    for n in (1, 4):
        out = rescale_relative_rows(np.ones((n, 3)), np.zeros((n, 3)), 0.05)
        assert np.array_equal(out, np.zeros((n, 3)))
        with pytest.raises(ContractError):
            rescale_relative_rows(np.zeros((n, 3)), np.ones((n, 3)), 0.05)


def test_rescale_preserves_direction():
    rng = stream_rng(4, "noise")
    for n in (1, 6):
        noise = rng.normal(size=(n, 16))
        x = rng.normal(size=(n, 16))
        out = rescale_relative_rows(noise, x, 0.3)
        cos = (out * noise).sum(axis=1) / (np.linalg.norm(out, axis=1)
                                           * np.linalg.norm(noise, axis=1))
        assert np.allclose(cos, 1.0, rtol=0.0, atol=1e-12)


def test_rescale_idempotent():
    rng = stream_rng(5, "noise")
    for n in (1, 7):
        noise = rng.normal(size=(n, 10))
        x = rng.normal(size=(n, 10))
        once = rescale_relative_rows(noise, x, 0.05)
        twice = rescale_relative_rows(once, x, 0.05)
        assert np.allclose(once, twice, rtol=1e-12)


def test_rowwise_rescaling_per_token():
    rng = stream_rng(6, "noise")
    x = rng.normal(size=(5, 8))
    x[3] = 0.0
    noise = rng.normal(size=(5, 8))
    out = rescale_relative_rows(noise, x, 0.05)
    for i in range(5):
        want = 0.05 * np.linalg.norm(x[i])
        assert np.linalg.norm(out[i]) == pytest.approx(want, abs=1e-12)
    assert np.array_equal(out[3], np.zeros(8))
    # Whole-matrix Frobenius ratio collapses to rho as well.
    assert np.linalg.norm(out) / np.linalg.norm(x) == pytest.approx(0.05, abs=1e-12)


def test_rescale_acts_on_the_last_axis_of_any_shape():
    rng = stream_rng(8, "noise")
    x = rng.normal(size=(3, 4, 6))
    x[1, 2] = 0.0
    noise = rng.normal(size=(3, 4, 6))
    out = rescale_relative_rows(noise, x, 0.2)
    flat = rescale_relative_rows(noise.reshape(-1, 6), x.reshape(-1, 6), 0.2)
    assert np.array_equal(out, flat.reshape(3, 4, 6))
    row = rescale_relative_rows(noise[0, 0], x[0, 0], 0.2)
    assert np.array_equal(row, out[0, 0])
    assert np.array_equal(rescale_relative_rows(noise[1, 2], x[1, 2], 0.2), np.zeros(6))
    with pytest.raises(ContractError):
        rescale_relative_rows(np.zeros(6), x[0, 0], 0.2)
    with pytest.raises(ContractError):
        rescale_relative_rows(noise, x[0], 0.2)


def test_rowwise_zero_noise_row_contract():
    x = np.ones((2, 3))
    noise = np.ones((2, 3))
    noise[1] = 0.0
    with pytest.raises(ContractError):
        rescale_relative_rows(noise, x, 0.1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 0.9))
def test_property_rescaled_norm(seed, rho):
    rng = np.random.default_rng(seed)
    for n in (1, 3):
        x = rng.normal(size=(n, 12))
        noise = rng.normal(size=(n, 12))
        out = rescale_relative_rows(noise, x, rho)
        assert np.allclose(np.linalg.norm(out, axis=1), rho * np.linalg.norm(x, axis=1),
                           rtol=1e-10, atol=0.0)
