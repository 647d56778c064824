"""Finite-difference derivatives, Monte-Carlo stability estimates, and the
closed-form Taylor terms checking each other."""

import numpy as np
import pytest

from lnsrlab import tensor as T
from lnsrlab.cli import write_csv
from lnsrlab.encoder import EncoderConfig, build_encoder, forward_with_taps
from lnsrlab.errors import ContractError
from lnsrlab.rng import stream_rng
from lnsrlab.theory import (
    TAYLOR_CSV_COLUMNS,
    cross_term_mc,
    fd_hessian,
    fd_jacobian,
    make_taylor_report,
    mc_noise_stability,
    taylor_terms,
)


def test_fd_jacobian_linear_and_quadratic():
    a = np.array([3.0, 4.0])
    assert np.allclose(fd_jacobian(lambda x: a @ x, [0.7, -1.2]), a, atol=1e-8)
    g = fd_jacobian(lambda x: x @ x, [1.0, 2.0])
    assert np.allclose(g, [2.0, 4.0], atol=1e-6)


def test_fd_hessian_hand_cases():
    h = fd_hessian(lambda x: x[0] ** 2 * x[1], [1.0, 1.0])
    assert np.allclose(h, [[2.0, 2.0], [2.0, 0.0]], atol=1e-4)
    lin = fd_hessian(lambda x: 3.0 * x[0] - x[1], [0.3, 0.4])
    assert np.allclose(lin, np.zeros((2, 2)), atol=1e-6)
    b = np.array([[2.0, 0.5], [0.5, 1.0]])
    quad = fd_hessian(lambda x: 0.5 * x @ b @ x, [0.1, -0.2])
    assert np.allclose(quad, b, atol=1e-6)
    assert np.array_equal(quad, quad.T)


def test_fd_agrees_with_autodiff_on_encoder_loss():
    """Cross-oracle: finite differences vs the tape, through the encoder."""
    cfg = EncoderConfig(vocab_size=10, embed_dim=4, num_layers=1, num_heads=2,
                        ffn_dim=6, max_seq_len=4)
    model = build_encoder(cfg, init_seed=0)
    tokens = [2, 3]
    base = model.tok_emb.data[2].copy()

    def f(row):
        model.tok_emb.data[2] = row
        logits, _ = forward_with_taps(model, tokens)
        out = T.cross_entropy(logits, 0).item()
        model.tok_emb.data[2] = base
        return out

    fd = fd_jacobian(f, base)
    logits, _ = forward_with_taps(model, tokens)
    grads = T.backward(T.cross_entropy(logits, 0))
    ad = grads[model.tok_emb].data[2]
    denom = np.maximum(np.maximum(np.abs(ad), np.abs(fd)), 1.0)
    assert np.max(np.abs(ad - fd) / denom) <= 1e-5


def test_mc_linear_closed_form():
    a = np.array([3.0, 4.0])
    rng = stream_rng(0, "theory")
    est, se = mc_noise_stability(lambda x: a @ x, [0.0, 0.0], 0.1, 50_000, rng,
                                 f_batch=lambda pts: pts @ a)
    assert abs(est - 0.25) <= 3 * se


def test_mc_constant_function_is_zero():
    rng = stream_rng(1, "theory")
    est, se = mc_noise_stability(lambda x: 7.0, np.zeros(3), 0.5, 2000, rng,
                                 f_batch=lambda pts: np.full(len(pts), 7.0))
    assert est == 0.0 and se == 0.0


def test_mc_quadratic_exact_fourth_moment():
    """H=diag(2,4), x=0, sigma=0.1: the exact value is 19 sigma^4 = 1.9e-3,
    NOT the off-diagonal-only form's 9e-4."""
    h = np.diag([2.0, 4.0])
    rng = stream_rng(2, "theory")
    est, se = mc_noise_stability(
        lambda x: 0.5 * x @ h @ x, [0.0, 0.0], 0.1, 200_000, rng,
        f_batch=lambda pts: 0.5 * ((pts @ h) * pts).sum(axis=1))
    assert abs(est - 1.9e-3) <= 3 * se
    assert abs(est - 9e-4) > 3 * se


def test_taylor_terms_hand_values():
    terms = taylor_terms([2.0, 0.0], np.zeros((2, 2)), 0.1)
    assert terms["r_j"] == pytest.approx(0.04, abs=1e-15)
    assert terms["r_h_paper"] == 0.0 and terms["r_h_exact"] == 0.0

    h = np.diag([2.0, 4.0])
    terms = taylor_terms([0.0, 0.0], h, 0.1)
    assert terms["r_h_paper"] == pytest.approx(9e-4, rel=1e-12)
    assert terms["r_h_exact"] == pytest.approx(1.9e-3, rel=1e-12)
    # claim14_value at sigma=0.1: (0.01/4)*(0 + 36 + 0) = 0.09.
    assert terms["claim14_value"] == pytest.approx(0.09, rel=1e-12)


def test_taylor_terms_contracts():
    with pytest.raises(ContractError):
        taylor_terms([1.0, 0.0], np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1)
    with pytest.raises(ContractError):
        taylor_terms([1.0], np.zeros((2, 2)), 0.1)


def test_r_h_paper_and_r_h_exact_differ_iff_h_nonzero():
    rng = stream_rng(3, "theory")
    for _ in range(5):
        m = rng.normal(size=(4, 4))
        h = 0.5 * (m + m.T)
        terms = taylor_terms(rng.normal(size=4), h, 0.05)
        assert terms["r_h_exact"] > terms["r_h_paper"]
        gap = terms["r_h_exact"] - terms["r_h_paper"]
        # The gap is exactly sigma^4/4 * (2|H|_F^2 - offdiag^2) = sigma^4/4 *
        # (|H|_F^2 + sum_i H_ii^2), always positive for H != 0.
        fro2 = (h * h).sum()
        diag2 = (np.diag(h) ** 2).sum()
        assert gap == pytest.approx(0.25 * 0.05 ** 4 * (fro2 + diag2), rel=1e-10)


def test_cross_term_vanishes():
    rng = stream_rng(4, "theory")
    for _ in range(20):
        j = rng.normal(size=5)
        m = rng.normal(size=(5, 5))
        h = 0.5 * (m + m.T)
        mean, se = cross_term_mc(j, h, 0.1, 100_000, rng)
        assert abs(mean) <= 3 * se


def test_cross_term_degenerate_cases():
    rng = stream_rng(5, "theory")
    mean, se = cross_term_mc(np.zeros(3), np.eye(3), 0.0, 10_000, rng)
    assert mean == 0.0 and se == 0.0
    mean, se = cross_term_mc(np.zeros(3), np.eye(3), 0.2, 10_000, rng)
    assert abs(mean) <= 3 * se


def test_quadratic_identity_mc_equals_rj_plus_rh_exact():
    """For exactly quadratic f there is no truncation error: MC must match
    r_j + r_h_exact at every sigma."""
    rng = stream_rng(6, "theory")
    d = 6
    j = rng.normal(size=d)
    m = rng.normal(size=(d, d))
    h = 0.5 * (m + m.T)
    x0 = np.zeros(d)

    def f(x):
        return j @ x + 0.5 * x @ h @ x

    def f_batch(pts):
        return pts @ j + 0.5 * ((pts @ h) * pts).sum(axis=1)

    for sigma in (0.2, 0.05):
        terms = taylor_terms(j, h, sigma)
        est, se = mc_noise_stability(f, x0, sigma, 200_000, rng, f_batch=f_batch)
        want = terms["r_j"] + terms["r_h_exact"]
        assert abs(est - want) <= 3 * se


def test_small_sigma_jacobian_limit():
    """Relative gap between MC and the Jacobian term shrinks with sigma."""
    rng = stream_rng(7, "theory")
    d = 4
    w1 = rng.normal(size=(d, d))
    w2 = rng.normal(size=d)

    def f(x):
        return float(np.tanh(x @ w1) @ w2)

    def f_batch(pts):
        return np.tanh(pts @ w1) @ w2

    x0 = rng.normal(size=d) * 0.5
    jac = fd_jacobian(f, x0)
    base = rng.normal(size=(300_000, d))
    gaps = []
    for sigma in (0.1, 0.05, 0.01):
        pts = x0[None, :] + sigma * base
        vals = f_batch(pts)
        est = float(((vals - f(x0)) ** 2).mean())
        r_j = sigma * sigma * float(jac @ jac)
        gaps.append(abs(est - r_j) / est)
    assert gaps[0] > gaps[1] > gaps[2]


def test_report_and_csv_roundtrip(tmp_path):
    rng = stream_rng(9, "theory")
    rep = make_taylor_report(lambda x: float(np.sin(x).sum()), np.zeros(3),
                             0.05, 2000, rng, f_batch=lambda pts: np.sin(pts).sum(axis=1))
    assert np.isfinite(rep.mc_estimate) and rep.mc_se > 0
    path = tmp_path / "report.csv"
    write_csv(path, TAYLOR_CSV_COLUMNS, [rep.csv_row()])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TAYLOR_CSV_COLUMNS)
    fields = lines[1].split(",")
    assert float(fields[0]) == 0.05
    assert float(fields[1]) == rep.mc_estimate  # repr() round-trips exactly


def test_mc_contracts():
    rng = stream_rng(10, "theory")

    def zeros(pts):
        return np.zeros(len(pts))

    with pytest.raises(ContractError):
        mc_noise_stability(lambda x: 0.0, np.zeros(2), 0.1, 10, rng, zeros)
    with pytest.raises(ContractError):
        mc_noise_stability(lambda x: float("nan"), np.zeros(2), 0.1, 2000, rng, zeros)
    with pytest.raises(ContractError, match="f_batch returned 1999 values for 2000 points"):
        mc_noise_stability(lambda x: 0.0, np.zeros(2), 0.1, 2000, rng,
                           lambda pts: np.zeros(len(pts) - 1))
