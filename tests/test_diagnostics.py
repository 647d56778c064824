"""Tests for error-ratio curves, PCA spectra, and benchmarks.

Curves are cross-checked against a per-probe reference loop, an
independent oracle for the batched curve; spectra are checked against
numpy's eigenvalues of the same covariance.
"""

import copy
import math
import warnings

import numpy as np
import pytest

from lnsrlab import diagnostics, linalg
from lnsrlab.data import synth_classification
from lnsrlab.diagnostics import (
    _PROBE_BLOCK,
    BenchReport,
    ErrorRatioCurve,
    SpectrumReport,
    bench_complexity,
    error_ratio_curve,
    pca_noise_spectrum,
)
from lnsrlab.encoder import EncoderConfig, build_encoder, forward_with_taps
from lnsrlab.errors import ContractError
from lnsrlab.noise import rescale_relative_rows


@pytest.fixture(scope="module")
def probe_setup():
    train, dev = synth_classification(16, 2, 8, 30, 0.6, seed=0)
    mcfg = EncoderConfig(vocab_size=30, embed_dim=8, num_layers=3, num_heads=2,
                         ffn_dim=16, max_seq_len=8)
    model = build_encoder(mcfg, init_seed=0)
    return model, train, dev


def reference_curve(model, probes, b, rho, seed):
    """Per-probe reference for ``error_ratio_curve``: each probe through the
    encoder alone, then one np.linalg.norm of its [M, d] deviation and one
    of its clean input per layer, and an fsum mean per layer."""
    model = model.frozen()
    layers = list(range(b, model.config.num_layers + 1))
    columns = [[] for _ in layers]
    for ids, _label in probes:
        _, clean = forward_with_taps(model, [ids])
        x_b = clean.layers[b - 1].data
        # The noise contract: one Gaussian draw keyed on the seed and the tokens.
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed] + list(ids))))
        noise = rescale_relative_rows(gen.normal(size=x_b.shape[1:])[None], x_b, rho)
        _, pert = forward_with_taps(model, [ids], injection=(b, noise))
        for col, r in zip(columns, layers):
            x = clean.layers[r - 1].data[0]
            xhat = x + noise[0] if r == b else pert.layers[r - 1].data[0]
            col.append(float(np.linalg.norm(xhat - x)) / float(np.linalg.norm(x)))
    return layers, [math.fsum(col) / len(col) for col in columns]


def _varied_probes(train, n):
    """n probes whose lengths vary, so the probes of one block have
    different pad masks, and a shuffled copy of them."""
    probes = [(ids[:1 + i % len(ids)], label)
              for i, (ids, label) in enumerate(train.examples[:n])]
    return probes, [probes[i] for i in np.random.default_rng(n).permutation(n)]


_BLOCK_EDGES = sorted({1, _PROBE_BLOCK - 1, _PROBE_BLOCK, _PROBE_BLOCK + 1,
                       2 * _PROBE_BLOCK + 1} - {0})


# -------------------------------------------------------- error_ratio_curve

def test_curve_first_entry_equals_rho(probe_setup):
    model, _, dev = probe_setup
    curve = error_ratio_curve(model, dev.examples[:8], b=1, rho=0.05, rng=7)
    assert abs(curve.ratios[0] - 0.05) <= 1e-6
    assert all(r >= 0 for r in curve.ratios)
    assert curve.n_probes == 8


def test_curve_length_matches_layer_window(probe_setup):
    model, _, dev = probe_setup
    for b in (1, 2, 3):
        curve = error_ratio_curve(model, dev.examples[:4], b=b, rho=0.05, rng=7)
        assert curve.layers == list(range(b, 4))
        assert len(curve.ratios) == 3 - b + 1


def test_curve_zero_rho_is_all_zero(probe_setup):
    model, _, dev = probe_setup
    curve = error_ratio_curve(model, dev.examples[:4], b=1, rho=0.0, rng=7)
    assert curve.ratios == [0.0] * 3


def test_curve_probe_order_invariance(probe_setup):
    model, _, dev = probe_setup
    probes = list(dev.examples[:8])
    a = error_ratio_curve(model, probes, b=2, rho=0.05, rng=11)
    b = error_ratio_curve(model, list(reversed(probes)), b=2, rho=0.05, rng=11)
    assert a.ratios == b.ratios


def test_curve_deterministic_per_seed(probe_setup):
    model, _, dev = probe_setup
    a = error_ratio_curve(model, dev.examples[:4], b=1, rho=0.05, rng=3)
    b = error_ratio_curve(model, dev.examples[:4], b=1, rho=0.05, rng=3)
    c = error_ratio_curve(model, dev.examples[:4], b=1, rho=0.05, rng=4)
    assert a.ratios == b.ratios
    assert a.ratios != c.ratios


@pytest.mark.parametrize("n", _BLOCK_EDGES)
@pytest.mark.parametrize("rho", [0.05, 0.0])
def test_blocked_curve_equals_fsum_of_one_probe_curves(probe_setup, n, rho):
    # Probes run in batched blocks; around every block boundary the curve
    # must equal the mean of one-probe curves bit for bit, so a dropped
    # tail block or rows leaking between probes of a block both show.
    model, train, _ = probe_setup
    probes, shuffled = _varied_probes(train, n)
    for b in (1, 2, 3):
        singles = [error_ratio_curve(model, [p], b=b, rho=rho, rng=5).ratios for p in probes]
        expected = [math.fsum(col) / n for col in zip(*singles)]
        for probe_list in (probes, shuffled):
            curve = error_ratio_curve(model, probe_list, b=b, rho=rho, rng=5)
            assert curve.ratios == expected
            assert curve.n_probes == n


@pytest.mark.parametrize("n", _BLOCK_EDGES)
@pytest.mark.parametrize("rho", [0.05, 0.0])
def test_curve_equals_per_probe_reference(probe_setup, n, rho):
    # The whole-block arrays must give the per-probe norms bit for bit: the
    # injected layer's (x + eps) - x, each probe's own rows, every layer.
    model, train, _ = probe_setup
    probes, shuffled = _varied_probes(train, n)
    for b in (1, 2, 3):
        layers, expected = reference_curve(model, probes, b, rho, 5)
        for probe_list in (probes, shuffled):
            curve = error_ratio_curve(model, probe_list, b=b, rho=rho, rng=5)
            assert curve.layers == layers
            assert curve.ratios == expected


def test_zero_norm_error_names_the_probe(probe_setup):
    model, _, dev = probe_setup
    # Block 1's output is all zeros when its last layernorm has zero gain
    # and bias, so the first probe meets a zero-norm input at block 2.
    dead = copy.deepcopy(model)
    dead.blocks[0].ln2_gain.data[:] = 0.0
    dead.blocks[0].ln2_bias.data[:] = 0.0
    with pytest.raises(ContractError,
                       match=r"probe 0 .*clean input of block 2 has zero norm"):
        error_ratio_curve(dead, dev.examples[:3], b=1, rho=0.05, rng=0)
    # With zero positional embeddings and zero rows for tokens 0 (pad) and
    # 2, a probe made of token 2 alone has a zero block-1 input; placed in
    # the second block of probes, it is the one the error names.
    blank = copy.deepcopy(model)
    blank.pos_emb.data[:] = 0.0
    blank.tok_emb.data[[0, 2]] = 0.0
    probes = [([3, 4, 5], 0)] * (_PROBE_BLOCK + 1) + [([2, 2], 1), ([3], 0)]
    with pytest.raises(ContractError, match=rf"probe {_PROBE_BLOCK + 1} .*"
                                            r"clean input of block 1 has zero norm"):
        error_ratio_curve(blank, probes, b=1, rho=0.05, rng=0)


def test_non_finite_ratio_error_names_the_probe(probe_setup):
    model, _, dev = probe_setup
    # The squared deviation overflows float64, so no ratio is finite.
    with pytest.raises(ContractError, match=r"probe 0 .*block 1 is not finite"):
        error_ratio_curve(model, dev.examples[:3], b=1, rho=1e200, rng=0)
    # Eight rows of token 7, each of squared norm 7.2e307, overflow the
    # clean norm but not the deviation's; the probe sits in the second
    # block of probes, and its block-1 ratio would read a finite 0.
    huge = copy.deepcopy(model)
    huge.tok_emb.data[7] = 3e153
    probes = [([3, 4, 5], 0)] * (_PROBE_BLOCK + 1) + [([7] * 8, 1), ([3], 0)]
    with pytest.raises(ContractError, match=rf"probe {_PROBE_BLOCK + 1} .*"
                                            r"block 1 is not finite"):
        error_ratio_curve(huge, probes, b=1, rho=1e-3, rng=0)


def test_huge_rho_error_comes_without_floating_point_warnings(probe_setup):
    """The perturbed pass overflows at rho=1e200; the error that names the
    probe and block is raised, not a numpy RuntimeWarning before it."""
    model, _, dev = probe_setup
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"probe 0 .*block 1 is not finite"):
            error_ratio_curve(model, dev.examples[:3], b=1, rho=1e200, rng=0)


def test_curve_contracts(probe_setup):
    model, _, dev = probe_setup
    with pytest.raises(ContractError):
        error_ratio_curve(model, [], b=1, rho=0.05, rng=0)
    with pytest.raises(ContractError):
        error_ratio_curve(model, dev.examples[:2], b=0, rho=0.05, rng=0)
    with pytest.raises(ContractError):
        error_ratio_curve(model, dev.examples[:2], b=4, rho=0.05, rng=0)
    with pytest.raises(ContractError):
        error_ratio_curve(model, dev.examples[:2], b=1, rho=-0.1, rng=0)


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
def test_non_finite_rho_is_rejected_before_any_pass(probe_setup, monkeypatch, rho):
    """A non-finite rho raises with the other argument checks: no forward
    pass runs and no floating-point warning is printed."""
    model, _, dev = probe_setup
    calls = []
    monkeypatch.setattr("lnsrlab.diagnostics.forward_with_taps",
                        lambda *args, **kwargs: calls.append(args))
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"rho must be nonnegative and finite"):
            error_ratio_curve(model, dev.examples[:3], b=1, rho=rho, rng=0)
    assert calls == []


# ------------------------------------------------------- pca_noise_spectrum

def test_spectrum_matches_numpy_oracle():
    rng = np.random.default_rng(5)
    batch = rng.normal(size=(300, 12)) * np.linspace(0.2, 2.0, 12)
    rep = pca_noise_spectrum(batch)
    centered = batch - batch.mean(axis=0)
    # The covariance's eigenvalues are the centred batch's squared singular
    # values over n - 1, here normalised.
    ref = np.linalg.svd(centered, compute_uv=False) ** 2
    ref /= ref.sum()
    assert np.abs(rep.sorted_eigenvalues - ref).max() <= 1e-8


def test_spectrum_does_not_depend_on_the_batch_scale():
    # The covariance of a batch scaled by 1e150 (1e-150) has entries near
    # 1e300 (1e-300), whose squares overflow (underflow) float64.
    rng = np.random.default_rng(4)
    batch = rng.normal(size=(300, 16)) * np.linspace(0.3, 2.0, 16)
    ref = pca_noise_spectrum(batch).sorted_eigenvalues
    for scale in (1e150, 1e-150):
        ev = pca_noise_spectrum(batch * scale).sorted_eigenvalues
        assert np.abs(ev - ref).max() <= 1e-14


def test_spectrum_is_normalized_and_sorted():
    rng = np.random.default_rng(1)
    rep = pca_noise_spectrum(rng.normal(size=(128, 6)))
    ev = rep.sorted_eigenvalues
    assert abs(ev.sum() - 1.0) <= 1e-10
    assert np.all(np.diff(ev) <= 1e-15)
    assert np.all(ev >= 0.0)


def test_two_dim_subspace_gives_two_nonzero_eigenvalues():
    rng = np.random.default_rng(2)
    basis = np.zeros((2, 5))
    basis[0, 1] = 1.0
    basis[1, 3] = 1.0
    batch = rng.normal(size=(20000, 2)) @ basis
    rep = pca_noise_spectrum(batch, source="in_manifold")
    ev = rep.sorted_eigenvalues
    assert np.all(ev[2:] <= 1e-12)
    # isotropic within the plane: both halves approach 1/2
    assert ev[0] == pytest.approx(0.5, abs=0.05)
    assert ev[1] == pytest.approx(0.5, abs=0.05)


def test_rank_one_batch_has_unit_top_eigenvalue():
    mu = np.array([1.0, 2.0, 3.0])
    v = np.array([0.5, -0.5, 0.0])
    batch = np.array([mu + v, mu - v, mu + v, mu - v])
    rep = pca_noise_spectrum(batch)
    assert rep.sorted_eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.top_mass(1) == pytest.approx(1.0, abs=1e-12)


def test_isotropic_highdim_mass_is_spread_out():
    rng = np.random.default_rng(3)
    rep = pca_noise_spectrum(rng.normal(size=(2000, 128)))
    assert rep.top_mass(10) <= 0.2


def test_zero_variance_batch_warns_and_zeroes(caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="lnsrlab.diagnostics"):
        rep = pca_noise_spectrum(np.ones((6, 4)))
    assert np.array_equal(rep.sorted_eigenvalues, np.zeros(4))
    assert any("zero-variance" in r.message for r in caplog.records)


def test_spectrum_contracts():
    with pytest.raises(ContractError):
        pca_noise_spectrum(np.ones((1, 4)))
    with pytest.raises(ContractError):
        pca_noise_spectrum(np.ones((4, 4)), source="other")
    with pytest.raises(ContractError):
        pca_noise_spectrum(np.ones((4, 4))).top_mass(0)


def test_spectrum_rejects_a_batch_without_features():
    with pytest.raises(ContractError, match=r"d>=1\] batch, got shape \(5, 0\)"):
        pca_noise_spectrum(np.zeros((5, 0)))


# --------------------------------------------------------- bench_complexity

def test_bench_produces_all_stages():
    rep = bench_complexity(standard_rows=(64, 128, 256), k_values=(4, 8),
                           index_sizes=(64, 128), reps=5)
    kinds = {r.kind for r in rep.records}
    assert kinds == {"standard", "inmanifold_sample", "knn_query", "gram_schmidt"}
    assert all(r.median_seconds > 0 for r in rep.records)
    assert set(rep.exponents) == kinds


def test_bench_standard_grows_with_size():
    rep = bench_complexity(standard_rows=(128, 4096), k_values=(4, 8),
                           index_sizes=(64, 128), reps=5)
    std = {r.size: r.median_seconds for r in rep.records if r.kind == "standard"}
    # 32x the elements must cost measurably more than the smallest size
    assert std[4096 * 64] > std[128 * 64]


def test_bench_times_at_one_blas_thread_and_restores_the_count(monkeypatch):
    get, set_ = linalg._openblas_thread_calls()
    found = get()
    timed_at = []
    real = diagnostics._median_time
    monkeypatch.setattr(diagnostics, "_median_time",
                        lambda fn, reps: timed_at.append(get()) or real(fn, reps))
    try:
        set_(2)
        bench_complexity(standard_rows=(64,), k_values=(4,), index_sizes=(16,), reps=5)
        assert timed_at == [1, 1, 1, 1]
        assert get() == 2
    finally:
        set_(found)


def test_bench_contracts():
    with pytest.raises(ContractError):
        bench_complexity(reps=3)
    with pytest.raises(ContractError):
        bench_complexity(standard_rows=())
    with pytest.raises(ContractError):
        bench_complexity(k_values=(4, 999))
    with pytest.raises(ContractError):
        bench_complexity(index_sizes=(0,))
    with pytest.raises(ContractError, match="index_sizes entries must be >= 10"):
        bench_complexity(index_sizes=(5,))
