"""Penalty arithmetic, ablation-mode assembly, and gradient-flow contracts."""

import numpy as np
import pytest

from lnsrlab import tensor as T
from lnsrlab.encoder import EncoderConfig, build_encoder, forward_with_taps
from lnsrlab.errors import ContractError, ValidationError
from lnsrlab.objective import (
    ObjectiveBreakdown,
    RegularizerConfig,
    assemble_objective,
    lnsr_term,
    task_loss,
)
from lnsrlab.rng import stream_rng


def model_and_traces(noise_scale=0.1, num_layers=2, seed=0, b=1):
    cfg = EncoderConfig(vocab_size=20, embed_dim=8, num_layers=num_layers,
                        num_heads=2, ffn_dim=12, max_seq_len=6)
    model = build_encoder(cfg, init_seed=seed)
    tokens = [2, 3, 4]
    rng = stream_rng(seed, "noise")
    noise = rng.normal(0, noise_scale, size=(6, 8))
    noise[3:] = 0.0  # keep pad rows clean
    _, clean = forward_with_taps(model, tokens)
    _, pert = forward_with_taps(model, tokens, injection=(b, noise))
    return model, clean, pert


def test_identical_traces_give_zero():
    model, clean, _ = model_and_traces()
    r, per_layer = lnsr_term(clean, clean, RegularizerConfig(injection_layer=1))
    assert r.item() == 0.0
    assert per_layer == [0.0, 0.0]


def test_single_layer_term_is_squared_norm():
    model, clean, pert = model_and_traces(num_layers=1)
    cfg = RegularizerConfig(lambda_weights=1.0, injection_layer=1)
    r, per_layer = lnsr_term(clean, pert, cfg)
    mask = clean.token_mask
    diff = (pert.layers[1].data - clean.layers[1].data)[mask]
    assert r.item() == pytest.approx(float((diff * diff).sum()), rel=1e-12)
    assert per_layer[0] == pytest.approx(r.item(), rel=1e-12)


def test_weighted_sum_arithmetic():
    """Deviations with squared norms 2 and 4 under lambda (0.5, 0.5) give 3."""
    model, clean, pert = model_and_traces()
    mask = clean.token_mask
    # Overwrite perturbed entries to force exact deviation norms.
    for r_idx, want in ((1, 2.0), (2, 4.0)):
        delta = np.zeros((6, 8))
        delta[0, 0] = np.sqrt(want)
        pert.layers[r_idx] = T.Tensor(clean.layers[r_idx].data + delta)
    cfg = RegularizerConfig(lambda_weights=(0.5, 0.5), injection_layer=1)
    r, per_layer = lnsr_term(clean, pert, cfg)
    assert r.item() == pytest.approx(3.0, abs=1e-12)
    assert per_layer == pytest.approx([2.0, 4.0], abs=1e-12)


def test_lambda_linearity():
    _, clean, pert = model_and_traces()
    r1, _ = lnsr_term(clean, pert, RegularizerConfig(lambda_weights=1.0))
    r2, _ = lnsr_term(clean, pert, RegularizerConfig(lambda_weights=2.0))
    assert r2.item() == pytest.approx(2.0 * r1.item(), rel=1e-12)


def test_injection_layer_window():
    _, clean, pert = model_and_traces(num_layers=3, b=2)
    r_b2, per_b2 = lnsr_term(clean, pert, RegularizerConfig(injection_layer=2))
    assert len(per_b2) == 2  # layers 2 and 3
    r_b3, per_b3 = lnsr_term(clean, pert, RegularizerConfig(injection_layer=3))
    assert len(per_b3) == 1
    assert per_b2[1] == pytest.approx(per_b3[0], rel=1e-12)


def test_pad_rows_excluded_from_deviation():
    _, clean, pert = model_and_traces(num_layers=1)
    cfg = RegularizerConfig(injection_layer=1)
    r_before, _ = lnsr_term(clean, pert, cfg)
    # Corrupt a pad row of the perturbed trace: the norm must not move.
    hacked = pert.layers[1].data.copy()
    hacked[5] += 100.0
    pert.layers[1] = T.Tensor(hacked)
    r_after, _ = lnsr_term(clean, pert, cfg)
    assert r_after.item() == r_before.item()


def test_lambda_vector_length_contract():
    _, clean, pert = model_and_traces()
    with pytest.raises(ContractError, match="lambda"):
        lnsr_term(clean, pert, RegularizerConfig(lambda_weights=(1.0,), injection_layer=1))


def test_config_validation():
    with pytest.raises(ValidationError):
        RegularizerConfig(mode="dropout")
    with pytest.raises(ValidationError):
        RegularizerConfig(lambda_weights=-0.5)
    with pytest.raises(ValidationError):
        RegularizerConfig(injection_layer=0)
    for bad in (float("nan"), float("inf"), (1.0, float("nan"))):
        with pytest.raises(ValidationError, match="lambda_weights"):
            RegularizerConfig(lambda_weights=bad)


def test_gradient_flows_through_both_traces():
    model, clean, pert = model_and_traces()
    r, _ = lnsr_term(clean, pert, RegularizerConfig())
    grads = T.backward(r)
    assert model.tok_emb in grads
    # The penalty alone produces nonzero parameter gradients.
    assert np.linalg.norm(grads[model.tok_emb].data) > 0


def test_assemble_modes():
    logits_c = T.Tensor([1.0, -1.0])
    logits_p = T.Tensor([-1.0, 1.0])
    r = T.Tensor(0.3)

    obj, bd = assemble_objective(logits_c, logits_p, 0, r, "ft")
    assert obj.item() == pytest.approx(task_loss(logits_c, 0, False).item())
    assert bd.reg_term == 0.0

    obj, bd = assemble_objective(logits_c, logits_p, 0, r, "ft_noise_only")
    assert obj.item() == pytest.approx(task_loss(logits_p, 0, False).item())

    obj, bd = assemble_objective(logits_c, logits_p, 0, r, "lnsr_standard")
    want = task_loss(logits_c, 0, False).item() + 0.3
    assert obj.item() == pytest.approx(want, rel=1e-12)
    assert bd.reg_term == pytest.approx(0.3)
    assert bd.task_loss + bd.reg_term == pytest.approx(obj.item(), rel=1e-12)


def test_assemble_addition_example():
    """Task 1.2 plus penalty 0.3 totals 1.5 under a regularized mode."""
    logits = T.Tensor([0.0, 0.0])
    base = task_loss(logits, 0, False).item()
    r = T.Tensor(0.3)
    obj, _ = assemble_objective(logits, None, 0, r, "lnsr_inmanifold")
    assert obj.item() == pytest.approx(base + 0.3, rel=1e-12)


def test_assemble_contracts():
    logits = T.Tensor([0.0, 0.0])
    with pytest.raises(ValidationError):
        assemble_objective(logits, None, 0, None, "bogus")
    with pytest.raises(ContractError):
        assemble_objective(logits, None, 0, None, "ft_noise_only")


def test_regression_task_loss():
    pred = T.Tensor([2.0])
    assert task_loss(pred, 0.5, True).item() == pytest.approx(2.25)


def test_zero_noise_collapse_gradients():
    """With zero noise the regularized objective and plain fine-tuning agree
    in value and in every parameter gradient."""
    cfg = EncoderConfig(vocab_size=20, embed_dim=8, num_layers=2, num_heads=2,
                        ffn_dim=12, max_seq_len=6)
    tokens = [2, 3, 4]

    def run(mode):
        model = build_encoder(cfg, init_seed=3)
        logits_c, clean = forward_with_taps(model, tokens)
        if mode == "ft":
            obj, _ = assemble_objective(logits_c, None, 1, None, "ft")
        else:
            logits_p, pert = forward_with_taps(model, tokens,
                                               injection=(1, np.zeros((6, 8))))
            r, per = lnsr_term(clean, pert, RegularizerConfig(lambda_weights=1.0))
            obj, _ = assemble_objective(logits_c, logits_p, 1, r, mode, per_layer_terms=per)
        grads = T.backward(obj)
        return obj.item(), {id(p): g.data.copy() for p, g in grads.items()}, model

    v_ft, g_ft, m_ft = run("ft")
    v_reg, g_reg, m_reg = run("lnsr_standard")
    assert v_ft == v_reg
    for p_ft, p_reg in zip(m_ft.parameters(), m_reg.parameters()):
        assert np.allclose(g_ft[id(p_ft)], g_reg[id(p_reg)], atol=1e-12)


def test_per_example_average_equals_joint():
    """Averaging per-example penalties matches accumulating with 1/n seeds."""
    model, clean_a, pert_a = model_and_traces(seed=4)
    _, clean_b, pert_b = model_and_traces(seed=4, noise_scale=0.2)
    cfg = RegularizerConfig()
    ra, _ = lnsr_term(clean_a, pert_a, cfg)
    rb, _ = lnsr_term(clean_b, pert_b, cfg)
    joint = 0.5 * (ra.item() + rb.item())
    avg = T.scale(T.add(ra, rb), 0.5)
    assert avg.item() == pytest.approx(joint, rel=1e-12)


# ------------------------------------------------------------------ batches

BATCH = [[2, 3, 4], [5, 6], [7, 8, 9, 10, 11, 12]]
LABELS = np.array([1, 0, 1])


def _batched_traces(model, noise):
    _, clean = forward_with_taps(model, BATCH)
    _, pert = forward_with_taps(model, BATCH, injection=(1, noise), clean=clean)
    return clean, pert


def test_batched_term_is_sum_of_per_example_terms():
    model, _, _ = model_and_traces(num_layers=3)
    noise = stream_rng(8, "noise").normal(0, 0.1, size=(len(BATCH), 6, 8))
    clean, pert = _batched_traces(model, noise)
    cfg = RegularizerConfig(lambda_weights=(0.5, 1.0, 2.0))
    r, per_layer = lnsr_term(clean, pert, cfg)
    r_sum, per_sum = 0.0, np.zeros(3)
    for j, tokens in enumerate(BATCH):
        _, c = forward_with_taps(model, tokens)
        _, p = forward_with_taps(model, tokens, injection=(1, noise[j]))
        rj, pj = lnsr_term(c, p, cfg)
        r_sum += rj.item()
        per_sum += pj
    assert r.item() == pytest.approx(r_sum, rel=1e-12)
    assert per_layer == pytest.approx(per_sum.tolist(), rel=1e-12)


def test_batched_step_gradient_is_mean_of_per_example_gradients():
    model, _, _ = model_and_traces(num_layers=2)
    noise = stream_rng(9, "noise").normal(0, 0.1, size=(len(BATCH), 6, 8))
    cfg = RegularizerConfig(lambda_weights=0.7)
    params = model.parameters()

    def objective(tokens, eps, labels, clean_reuse):
        logits_c, clean = forward_with_taps(model, tokens)
        logits_p, pert = forward_with_taps(model, tokens, injection=(1, eps),
                                           clean=clean if clean_reuse else None)
        r, per = lnsr_term(clean, pert, cfg)
        obj, bd = assemble_objective(logits_c, logits_p, labels, r, "lnsr_standard",
                                     per_layer_terms=per)
        return obj, bd

    obj, bd = objective(BATCH, noise, LABELS, True)
    T.backward(obj, seed_grad=1.0 / len(BATCH))
    batched = [p.grad.data.copy() for p in params]
    T.zero_grads(params)
    total = 0.0
    for j, tokens in enumerate(BATCH):
        obj_j, _ = objective(tokens, noise[j], LABELS[j], False)
        total += obj_j.item()
        T.backward(obj_j, seed_grad=1.0 / len(BATCH))
    for p, g in zip(params, batched):
        assert np.allclose(g, p.grad.data, rtol=0, atol=1e-12)
    assert obj.item() == pytest.approx(total, rel=1e-12)
    assert bd.task_loss + bd.reg_term == pytest.approx(obj.item(), rel=1e-12)
