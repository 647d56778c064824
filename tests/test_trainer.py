"""Optimizer, schedule, and training-loop tests.

The closed-form Adam and schedule values are worked by hand; the loop-level
checks compare whole training runs (plain fine-tuning vs. regularized modes)
at the bit level where the algebra says they must coincide.
"""

import dataclasses

import numpy as np
import pytest

from lnsrlab import trainer
from lnsrlab.data import PAD_ID, DataConfig, synth_classification
from lnsrlab.encoder import EncoderConfig, build_encoder, forward_with_taps
from lnsrlab.errors import ContractError, ValidationError
from lnsrlab.manifold import build_index, neighborhood_basis
from lnsrlab.noise import NoiseSpec, rescale_relative_rows
from lnsrlab.objective import RegularizerConfig
from lnsrlab.rng import substream_rng
from lnsrlab.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    WARMUP_RATIO,
    RunResult,
    TrainConfig,
    _noise_batch,
    adam_step,
    evaluate,
    lr_at,
    multi_seed,
    run_training,
)


def _cfg(**over):
    base = dict(lr=2e-3, batch_size=8, epochs=2, seed=3,
                noise=NoiseSpec(mode="none"), reg=RegularizerConfig(mode="ft"))
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def toy_task():
    train, dev = synth_classification(16, 2, 8, 30, 0.6, seed=0)
    mcfg = EncoderConfig(vocab_size=30, embed_dim=8, num_layers=2, num_heads=2,
                         ffn_dim=16, max_seq_len=8)
    return mcfg, train, dev


# ---------------------------------------------------------------- adam_step

def _moments(store):
    return np.zeros_like(store), np.zeros_like(store)


def test_adam_first_step_closed_form():
    # t=1 bias correction makes mhat = g and vhat = g^2, so the update is
    # lr * g / (|g| + eps) regardless of g's magnitude.
    store = np.array([1.0])
    adam_step(store, np.array([1.0]), *_moments(store), 1, 0.1)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + ADAM_EPS))
    assert store[0] == pytest.approx(expected, abs=1e-15)


def test_adam_zero_grad_zero_decay_is_identity():
    vals = np.array([0.5, -2.0, 3.0, 0.0])
    store = vals.copy()
    adam_step(store, np.zeros(4), *_moments(store), 1, 0.1)
    assert np.array_equal(store, vals)


def test_adam_descends_random_quadratic_bowls():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        a = rng.normal(size=(dim, dim))
        h = a @ a.T + dim * np.eye(dim)          # strictly positive definite
        x0 = rng.normal(size=dim)
        store = x0.copy()
        loss0 = float(x0 @ h @ x0)
        adam_step(store, 2.0 * h @ x0, *_moments(store), 1, 1e-3)
        loss1 = float(store @ h @ store)
        assert loss1 < loss0


def test_adam_contracts():
    store = np.ones(4)
    with pytest.raises(ContractError):
        adam_step(store, np.ones(4), *_moments(store), 0, 1e-3)
    with pytest.raises(ContractError):
        adam_step(store, np.ones(6), *_moments(store), 1, 1e-3)
    with pytest.raises(ContractError):
        adam_step(store, np.ones(4), np.zeros(4), np.zeros(3), 1, 1e-3)


def test_adam_step_writes_the_model_store_in_place(toy_task):
    """Every parameter stays a view of the store it updates, and the
    update equals the textbook per-tensor formula bit for bit."""
    mcfg, _, _ = toy_task
    model = build_encoder(mcfg, init_seed=0)
    store = model.store
    before = [p.data.copy() for p in model.parameters()]
    grad = np.random.default_rng(1).normal(size=store.shape)
    m, v = _moments(store)
    lr = 0.1
    adam_step(store, grad, m, v, 1, lr)
    assert model.store is store
    offset = 0
    for p, old in zip(model.parameters(), before):
        assert np.shares_memory(p.data, store)
        g = grad[offset:offset + old.size].reshape(old.shape)
        offset += old.size
        mhat = ((1.0 - ADAM_BETA1) * g) / (1.0 - ADAM_BETA1)
        vhat = ((1.0 - ADAM_BETA2) * g * g) / (1.0 - ADAM_BETA2)
        want = old - lr * (mhat / (np.sqrt(vhat) + ADAM_EPS))
        assert np.array_equal(p.data, want)


# -------------------------------------------------------------------- lr_at

def test_lr_schedule_shape():
    base = 0.5
    # warmup: ceil(WARMUP_RATIO * 100) = 6 steps
    assert WARMUP_RATIO == 0.06
    assert lr_at(0, 100, base) == 0.0
    assert lr_at(3, 100, base) == pytest.approx(base * 3 / 6)
    assert lr_at(6, 100, base) == pytest.approx(base)
    # decay side is linear to zero
    assert lr_at(7, 100, base) == pytest.approx(base * 93 / 94)
    assert lr_at(100, 100, base) == 0.0
    # continuity at the warmup/decay joint
    left = lr_at(6, 100, base)
    right = base * (100 - 6) / (100 - 6)
    assert left == pytest.approx(right)


def test_lr_schedule_contracts():
    with pytest.raises(ContractError):
        lr_at(-1, 10, 1.0)
    with pytest.raises(ContractError):
        lr_at(11, 10, 1.0)


def test_lr_schedule_short_runs_warm_up_for_one_step():
    """ceil(WARMUP_RATIO * total) is 1 for any run under 1 / WARMUP_RATIO
    steps: step 1 is at the peak, and a one-step run trains at rate 0."""
    assert lr_at(0, 1, 1.0) == 0.0 and lr_at(1, 1, 1.0) == 0.0
    assert lr_at(1, 10, 1.0) == 1.0
    assert lr_at(5, 10, 1.0) == pytest.approx(5 / 9)


def test_lr_schedule_peak_never_exceeds_base():
    for step in range(0, 201):
        assert lr_at(step, 200, 0.3) <= 0.3 + 1e-15


# ------------------------------------------------------------ config checks

def test_config_validation():
    with pytest.raises(ValidationError):
        _cfg(lr=0.0)
    with pytest.raises(ValidationError):
        _cfg(batch_size=0)
    with pytest.raises(ValidationError):
        _cfg(epochs=0)
    with pytest.raises(ValidationError):
        _cfg(knn_k=0)
    with pytest.raises(ValidationError, match="TrainConfig.seed"):
        _cfg(seed=-1)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValidationError, match="TrainConfig.lr"):
            _cfg(lr=bad)


def test_config_rejects_contradictory_mode_noise_pairs():
    with pytest.raises(ValidationError, match="^lnsr_standard pairs with standard or none noise$"):
        _cfg(noise=NoiseSpec(mode="in_manifold"),
             reg=RegularizerConfig(mode="lnsr_standard"))
    with pytest.raises(ValidationError,
                       match="^lnsr_inmanifold pairs with in_manifold or none noise$"):
        _cfg(noise=NoiseSpec(mode="standard"),
             reg=RegularizerConfig(mode="lnsr_inmanifold"))
    # Vocabulary neighbourhoods say nothing about a hidden state above block 1.
    with pytest.raises(ValidationError, match="injection_layer 1"):
        _cfg(noise=NoiseSpec(mode="in_manifold"),
             reg=RegularizerConfig(mode="lnsr_inmanifold", injection_layer=2))
    # Standard noise goes to any block.
    _cfg(noise=NoiseSpec(mode="standard"),
         reg=RegularizerConfig(mode="lnsr_standard", injection_layer=2))


def test_configs_are_checked_once_and_frozen():
    """A config is checked when built and cannot change afterwards;
    ``replace`` builds a new one and checks it."""
    for config, name in ((EncoderConfig(), "num_heads"), (NoiseSpec(), "sigma"),
                         (RegularizerConfig(), "mode"), (TrainConfig(), "seed"),
                         (DataConfig(), "train_path")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, getattr(config, name))
    with pytest.raises(ValidationError, match="num_heads must divide embed_dim"):
        dataclasses.replace(EncoderConfig(), num_heads=3)
    with pytest.raises(ValidationError, match="pairs with"):
        dataclasses.replace(TrainConfig(), noise=NoiseSpec(mode="in_manifold"))


def test_inmanifold_requires_enough_real_tokens(toy_task):
    mcfg, train, dev = toy_task
    cfg = _cfg(knn_k=40,
               noise=NoiseSpec(mode="in_manifold", sigma=0.05),
               reg=RegularizerConfig(mode="lnsr_inmanifold"))
    # vocab has only 28 non-reserved rows; k=40 neighbors cannot exist
    with pytest.raises(ValidationError):
        run_training(mcfg, train, dev, cfg)


# ------------------------------------------------------------ training loop

def test_training_is_deterministic(toy_task):
    mcfg, train, dev = toy_task
    a = run_training(mcfg, train, dev, _cfg())
    b = run_training(mcfg, train, dev, _cfg())
    assert a.epoch_train_loss == b.epoch_train_loss
    assert a.epoch_dev_metric == b.epoch_dev_metric
    assert all(np.array_equal(x, y) for x, y in zip(a.final_params, b.final_params))


def test_training_seed_changes_trajectory(toy_task):
    mcfg, train, dev = toy_task
    a = run_training(mcfg, train, dev, _cfg(seed=3))
    b = run_training(mcfg, train, dev, _cfg(seed=4))
    assert a.epoch_train_loss != b.epoch_train_loss


def test_separable_task_reaches_high_train_accuracy():
    train, dev = synth_classification(40, 2, 8, 30, 1.0, seed=0)
    mcfg = EncoderConfig(vocab_size=30, embed_dim=16, num_layers=2,
                         num_heads=2, ffn_dim=32, max_seq_len=8)
    cfg = _cfg(lr=5e-3, batch_size=16, epochs=3, seed=1)
    res = run_training(mcfg, train, dev, cfg)
    assert res.final_train_metric > 0.95


def test_lambda_zero_with_real_noise_matches_plain_ft(toy_task):
    # With zero penalty weight the perturbed pass contributes exactly zero
    # gradient, so the parameter trajectory must be bitwise unchanged.
    mcfg, train, dev = toy_task
    ft = run_training(mcfg, train, dev, _cfg())
    lz = run_training(mcfg, train, dev, _cfg(
        noise=NoiseSpec(mode="standard", sigma=0.05, rel_magnitude=None),
        reg=RegularizerConfig(mode="lnsr_standard", lambda_weights=0.0)))
    assert ft.epoch_train_loss == lz.epoch_train_loss
    assert all(np.array_equal(a, b)
               for a, b in zip(ft.final_params, lz.final_params))


def test_zero_noise_lnsr_matches_plain_ft(toy_task):
    # eps = 0 makes perturbed and clean traces identical, so the penalty and
    # its gradients vanish exactly.
    mcfg, train, dev = toy_task
    ft = run_training(mcfg, train, dev, _cfg())
    ez = run_training(mcfg, train, dev, _cfg(
        noise=NoiseSpec(mode="none"),
        reg=RegularizerConfig(mode="lnsr_standard", lambda_weights=1.0)))
    assert ft.epoch_train_loss == ez.epoch_train_loss
    assert all(np.array_equal(a, b)
               for a, b in zip(ft.final_params, ez.final_params))


def test_active_regularizer_changes_trajectory(toy_task):
    mcfg, train, dev = toy_task
    ft = run_training(mcfg, train, dev, _cfg())
    ln = run_training(mcfg, train, dev, _cfg(
        noise=NoiseSpec(mode="standard", sigma=0.05, rel_magnitude=None),
        reg=RegularizerConfig(mode="lnsr_standard", lambda_weights=1.0)))
    assert ft.epoch_train_loss != ln.epoch_train_loss
    assert any(not np.array_equal(a, b)
               for a, b in zip(ft.final_params, ln.final_params))


def test_noise_only_mode_trains_on_perturbed_logits(toy_task):
    mcfg, train, dev = toy_task
    ft = run_training(mcfg, train, dev, _cfg())
    no = run_training(mcfg, train, dev, _cfg(
        noise=NoiseSpec(mode="standard", sigma=0.5, rel_magnitude=None),
        reg=RegularizerConfig(mode="ft_noise_only")))
    assert ft.epoch_train_loss != no.epoch_train_loss


def test_inmanifold_training_runs(toy_task):
    mcfg, train, dev = toy_task
    cfg = _cfg(epochs=1, knn_k=4,
               noise=NoiseSpec(mode="in_manifold", sigma=0.05, rel_magnitude=0.05),
               reg=RegularizerConfig(mode="lnsr_inmanifold", lambda_weights=0.5))
    res = run_training(mcfg, train, dev, cfg)
    assert len(res.epoch_train_loss) == 1
    assert np.isfinite(res.epoch_train_loss[0])
    assert res.mode == "lnsr_inmanifold"


def _record_injections(monkeypatch):
    """Route the trainer's forward passes through a recorder; returns the
    list that collects (model weights' token table, clean trace, noise) per
    injected pass."""
    import lnsrlab.trainer as trainer_module

    seen = []
    original = trainer_module.forward_with_taps

    def recording(model, tokens, injection=None, clean=None):
        if injection is not None:
            seen.append((model.tok_emb.data.copy(), clean, np.array(injection[1])))
        return original(model, tokens, injection=injection, clean=clean)

    monkeypatch.setattr(trainer_module, "forward_with_taps", recording)
    return seen


def _batches(cfg, train, n_seen):
    """(epoch, start, dataset indices) of each recorded step."""
    steps = len(train.examples) // cfg.batch_size
    assert n_seen == cfg.epochs * steps
    for step in range(n_seen):
        epoch, start = divmod(step, steps)
        start *= cfg.batch_size
        order = substream_rng(cfg.seed, "order", epoch).permutation(len(train.examples))
        yield epoch, start, order[start:start + cfg.batch_size]


def test_batch_noise_is_keyed_by_epoch_and_position(toy_task, monkeypatch):
    """Each sequence of a batch gets the draw of its own (epoch, position)
    substream, zeroed on pad rows, as it did when examples ran one by one."""
    mcfg, train, dev = toy_task
    seen = _record_injections(monkeypatch)
    cfg = _cfg(epochs=2, noise=NoiseSpec(mode="standard", sigma=0.3, rel_magnitude=None),
               reg=RegularizerConfig(mode="lnsr_standard", lambda_weights=0.5))
    run_training(mcfg, train, dev, cfg)
    for (epoch, start, batch), (_, _, eps) in zip(_batches(cfg, train, len(seen)), seen):
        for j, ex in enumerate(batch):
            want = substream_rng(cfg.seed, "noise", epoch, start + j).normal(
                0.0, 0.3, size=(mcfg.max_seq_len, mcfg.embed_dim))
            want[len(train.examples[ex][0]):] = 0.0
            assert np.array_equal(eps[j], want)


def _inmanifold_cfg(rel_magnitude, knn_k=4):
    return _cfg(epochs=1, knn_k=knn_k,
                noise=NoiseSpec(mode="in_manifold", sigma=0.3, rel_magnitude=rel_magnitude),
                reg=RegularizerConfig(mode="lnsr_inmanifold", lambda_weights=0.5))


def test_inmanifold_noise_rows_are_rescaled_in_their_token_span(toy_task, monkeypatch):
    """Pad rows are zero; each live row has norm rel_magnitude times its clean
    row and lies in the span of its token's basis from that step's table."""
    mcfg, train, dev = toy_task
    seen = _record_injections(monkeypatch)
    cfg = _inmanifold_cfg(0.05)
    run_training(mcfg, train, dev, cfg)
    for (_, _, batch), (table, clean, eps) in zip(_batches(cfg, train, len(seen)), seen):
        index = build_index(table)
        clean_input = clean.layers[0].data
        for j, ex in enumerate(batch):
            ids = train.examples[ex][0]
            assert not eps[j, len(ids):].any()
            for pos, tok in enumerate(ids):
                row = eps[j, pos]
                assert abs(np.linalg.norm(row) - 0.05 * np.linalg.norm(clean_input[j, pos])) \
                    <= 1e-12
                basis = neighborhood_basis(index, table[tok], k=cfg.knn_k).basis
                assert np.linalg.norm(row - (basis @ row) @ basis) <= 1e-12 * np.linalg.norm(row)


def _projected_draw(cfg, index, table, ids, epoch, position, shape):
    """The oracle for one sequence's raw in-manifold noise: the standard
    [M, d] block of its (epoch, position) substream, each live row times
    its token's projector B^T B (the identity for a degenerate one)."""
    eps = substream_rng(cfg.seed, "noise", epoch, position).normal(0.0, 0.3, size=shape)
    for pos, tok in enumerate(ids):
        basis = neighborhood_basis(index, table[tok], k=cfg.knn_k)
        eps[pos] = eps[pos] @ (np.eye(shape[1]) if basis is None else basis.basis.T @ basis.basis)
    eps[len(ids):] = 0.0
    return eps


def test_inmanifold_noise_without_rescale_is_the_substream_draw(toy_task, monkeypatch):
    """With rel_magnitude None each live row is the standard draw of the
    (epoch, position) substream projected onto its token's basis span."""
    mcfg, train, dev = toy_task
    seen = _record_injections(monkeypatch)
    cfg = _inmanifold_cfg(None)
    run_training(mcfg, train, dev, cfg)
    for (epoch, start, batch), (table, _, eps) in zip(_batches(cfg, train, len(seen)), seen):
        index = build_index(table)
        for j, ex in enumerate(batch):
            want = _projected_draw(cfg, index, table, train.examples[ex][0], epoch, start + j,
                                   eps.shape[1:])
            assert np.array_equal(eps[j], want)


def test_inmanifold_rescaled_noise_equals_the_per_row_reference(toy_task, monkeypatch):
    """The batched noise equals, bit for bit, the per-sequence projected
    draws rescaled by ``rescale_relative_rows``."""
    mcfg, train, dev = toy_task
    seen = _record_injections(monkeypatch)
    cfg = _inmanifold_cfg(0.05)
    run_training(mcfg, train, dev, cfg)
    for (epoch, start, batch), (table, clean, eps) in zip(_batches(cfg, train, len(seen)), seen):
        index = build_index(table)
        raw = np.stack([_projected_draw(cfg, index, table, train.examples[ex][0], epoch,
                                        start + j, eps.shape[1:])
                        for j, ex in enumerate(batch)])
        mask = clean.token_mask[..., None]
        want = rescale_relative_rows(raw, np.where(mask, clean.layers[0].data, 0.0), 0.05)
        assert np.array_equal(eps, want)


def test_inmanifold_degenerate_fallback_is_rescaled_gaussian(toy_task, monkeypatch):
    """An all-equal token table leaves no neighbourhood: every live row is a
    Gaussian draw from the substream, rescaled like any other row."""
    import lnsrlab.trainer as trainer_module

    mcfg, train, dev = toy_task
    original = trainer_module.build_encoder

    def flat_table(config, init_seed):
        model = original(config, init_seed)
        model.tok_emb.data[:] = 0.25
        return model

    monkeypatch.setattr(trainer_module, "build_encoder", flat_table)
    seen = _record_injections(monkeypatch)
    cfg = _inmanifold_cfg(0.05)
    run_training(mcfg, train, dev, cfg)
    (epoch, start, batch), (_, clean, eps) = next(zip(_batches(cfg, train, len(seen)), seen))
    clean_input = clean.layers[0].data
    for j, ex in enumerate(batch):
        n = len(train.examples[ex][0])
        raw = substream_rng(cfg.seed, "noise", epoch, start + j).normal(
            0.0, 0.3, size=(n, mcfg.embed_dim))
        want = rescale_relative_rows(raw, clean_input[j, :n], 0.05)
        assert np.array_equal(eps[j, :n], want)
        assert not eps[j, n:].any()


def test_inmanifold_noise_skips_a_pad_inside_a_sequence(toy_task):
    """A PAD_ID inside a sequence gets zero noise, and the rows after it
    keep their own tokens' projectors: rows follow the sequence, not the
    pad mask."""
    mcfg, _, _ = toy_task
    model = build_encoder(mcfg, 3)
    ids = [[5, PAD_ID, 7, 3], [2, 9]]
    _, clean = forward_with_taps(model, ids)
    cfg = _inmanifold_cfg(None)
    rngs = [substream_rng(cfg.seed, "noise", 0, j) for j in range(len(ids))]
    eps = _noise_batch(model, ids, clean.layers[0].data, clean.token_mask, cfg, rngs)
    table = model.tok_emb.data
    want = np.stack([_projected_draw(cfg, build_index(table), table, seq, 0, j, eps.shape[1:])
                     for j, seq in enumerate(ids)])
    want[0, 1] = 0.0
    assert not eps[0, 1].any() and eps[0, 2].any()
    assert np.array_equal(eps, want)


def test_non_finite_values_name_epoch_step_and_example(toy_task):
    mcfg, train, dev = toy_task
    order = substream_rng(3, "order", 0).permutation(len(train.examples))
    # Step 1 moves every weight by ~1e200, so step 2's first block overflows.
    with pytest.warns(RuntimeWarning), pytest.raises(ContractError) as exc:
        run_training(mcfg, train, dev, _cfg(lr=1e200))
    assert str(exc.value) == (f"non-finite clean trace entry 1 at epoch 0, step 2,"
                              f" example {order[8]}")
    # A finite trace whose penalty overflows names the batch it sums over.
    with pytest.warns(RuntimeWarning), \
            pytest.raises(ContractError, match=r"non-finite loss at epoch 0, step 1, examples \["
                                            + ", ".join(str(i) for i in order[:8])):
        run_training(mcfg, train, dev, _cfg(
            noise=NoiseSpec(mode="standard", sigma=1.0, rel_magnitude=None),
            reg=RegularizerConfig(mode="lnsr_standard", lambda_weights=1e308)))
    # Noise that overflows the perturbed pass names its first example, with
    # no numpy RuntimeWarning first (the suite turns those into errors).
    with pytest.raises(ContractError) as exc:
        run_training(mcfg, train, dev, _cfg(
            noise=NoiseSpec(mode="standard", sigma=1e300, rel_magnitude=None),
            reg=RegularizerConfig(mode="lnsr_standard")))
    assert str(exc.value) == (f"non-finite perturbed trace entry 1 at epoch 0, step 1,"
                              f" example {order[0]}")


def _capture_model(monkeypatch):
    """Route the trainer's build_encoder through a recorder; returns the
    list that collects each model it builds."""
    import lnsrlab.trainer as trainer_module

    built = []
    original = trainer_module.build_encoder

    def recording(config, init_seed):
        built.append(original(config, init_seed))
        return built[-1]

    monkeypatch.setattr(trainer_module, "build_encoder", recording)
    return built


def test_training_keeps_weights_in_the_store_and_returns_copies(toy_task, monkeypatch):
    mcfg, train, dev = toy_task
    built = _capture_model(monkeypatch)
    res = run_training(mcfg, train, dev, _cfg(epochs=1))
    (model,) = built
    params = model.parameters()
    assert len(res.final_params) == len(params)
    for p, final in zip(params, res.final_params):
        assert np.shares_memory(p.data, model.store)
        assert not np.shares_memory(final, model.store)
        assert np.array_equal(final, p.data)


def test_non_finite_gradient_names_parameter_and_batch(toy_task, monkeypatch):
    import lnsrlab.trainer as trainer_module

    mcfg, train, dev = toy_task
    built = _capture_model(monkeypatch)
    original = trainer_module.T.backward

    def poisoned(loss, seed_grad=1.0):
        out = original(loss, seed_grad=seed_grad)
        built[0].blocks[0].w1.grad.data[0, 0] = np.nan
        return out

    monkeypatch.setattr(trainer_module.T, "backward", poisoned)
    order = substream_rng(3, "order", 0).permutation(len(train.examples))
    with pytest.raises(ContractError) as exc:
        run_training(mcfg, train, dev, _cfg())
    # tok_emb, pos_emb, then block 1's wq, bq, wk, bk, wv, bv, wo, bo,
    # ln1_gain, ln1_bias: w1 is parameter 12, and its first entry is the
    # first offset past parameter 11.
    assert str(exc.value) == ("non-finite gradient of parameter 12 (8, 16) at epoch 0,"
                              f" step 1, examples {order[:8].tolist()}")


# ----------------------------------------------------------------- evaluate

def test_evaluate_names_first_example_with_non_finite_logits(toy_task):
    from lnsrlab.encoder import build_encoder
    mcfg, train, dev = toy_task
    model = build_encoder(mcfg, init_seed=0)
    token = dev.examples[-1][0][-1]
    first = next(i for i, (ids, _) in enumerate(dev.examples) if token in ids)
    clean = dataclasses.replace(train, examples=[ex for ex in train.examples
                                                 if token not in ex[0]])
    model.tok_emb.data[token] = np.inf
    # The index counts within the named set, wherever the set sits in the pass.
    for sets, name in (({"train": clean, "dev": dev}, "dev"),
                       ({"train": dev, "dev": clean}, "train")):
        with pytest.raises(ContractError,
                           match=f"non-finite logits at evaluation of {name}, example {first}$"):
            with np.errstate(invalid="ignore"):
                evaluate(model, **sets)


def test_evaluate_on_untrained_model_is_finite(toy_task):
    from lnsrlab.encoder import build_encoder
    mcfg, train, dev = toy_task
    model = build_encoder(mcfg, init_seed=0)
    metrics = evaluate(model, train=train, dev=dev)
    assert len(metrics) == 2
    assert all(0.0 <= m <= 1.0 for m in metrics)


def _row_metrics(model, sets):
    """Each set's accuracy from its own rows of one frozen pass over all sets."""
    logits, _ = forward_with_taps(model.frozen(), [ids for ds in sets for ids, _ in ds.examples])
    out, start = [], 0
    for ds in sets:
        rows = logits.data[start:start + len(ds.examples)]
        start += len(ds.examples)
        labels = np.array([label for _, label in ds.examples])
        out.append(float(np.mean(np.argmax(rows, axis=-1) == labels)))
    return out


@pytest.mark.parametrize("n_per_class, max_seq_len", [(16, 8), (24, 8), (13, 7), (17, 9)])
def test_one_evaluation_pass_scores_each_set_on_its_own_rows(n_per_class, max_seq_len):
    train, dev = synth_classification(n_per_class, 2, 7, 30, 0.6, seed=n_per_class)
    mcfg = EncoderConfig(vocab_size=30, embed_dim=8, num_layers=2, num_heads=2, ffn_dim=16,
                         max_seq_len=max_seq_len)
    model = build_encoder(mcfg, init_seed=1)
    model.store += np.random.default_rng(2).normal(0.0, 0.3, model.store.shape)
    one = evaluate(model, train=train, dev=dev)
    assert one == _row_metrics(model, [train, dev])
    assert evaluate(model, dev=dev, train=train) == _row_metrics(model, [dev, train])
    separate = evaluate(model, train=train) + evaluate(model, dev=dev)
    if max_seq_len == 8 and len(train.examples) % 8 == 0:
        # The lab's shapes: every matmul of the joint pass is split into the
        # same row blocks as in the separate passes, so the bits agree.
        assert one == separate
    else:
        # Elsewhere BLAS may round a row by its place in the matrix (the
        # rows of a final partial block take another kernel): the logits
        # then agree to rounding, and accuracy unless a top-2 margin is a
        # few ulps.
        assert one == pytest.approx(separate, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------- multi-seed

def _fake_run(dev, gap):
    return RunResult(seed=0, mode="ft", epoch_train_loss=[], epoch_train_metric=[],
                     epoch_dev_metric=[], final_train_metric=dev + gap,
                     final_dev_metric=dev, generalization_gap=gap,
                     wall_time_seconds=0.0)


def test_summary_statistics_worked_example(monkeypatch):
    # dev accuracies 70, 72, 74 -> mean 72, sample std 2, max 74
    runs = {0: _fake_run(70.0, 0.0), 1: _fake_run(72.0, 0.0), 2: _fake_run(74.0, 0.0)}
    monkeypatch.setattr(trainer, "run_training", lambda m, t, d, cfg: runs[cfg.seed])
    s = multi_seed(None, None, None, _cfg(), seeds=[0, 1, 2])
    assert s.per_seed == list(runs.values())
    assert s.dev_mean == pytest.approx(72.0)
    assert s.dev_std == pytest.approx(2.0)
    assert s.dev_max == pytest.approx(74.0)


def test_gap_is_train_minus_dev(toy_task):
    mcfg, train, dev = toy_task
    res = run_training(mcfg, train, dev, _cfg(epochs=1))
    assert res.generalization_gap == pytest.approx(
        res.final_train_metric - res.final_dev_metric)
    # worked example: train 95.89, dev 70.13 -> gap 25.76
    r = _fake_run(70.13, 95.89 - 70.13)
    assert r.final_train_metric - r.final_dev_metric == pytest.approx(25.76)


def test_multi_seed_runs_each_seed(toy_task):
    mcfg, train, dev = toy_task
    s = multi_seed(mcfg, train, dev, _cfg(epochs=1), seeds=[3, 4])
    assert len(s.per_seed) == 2
    assert [r.seed for r in s.per_seed] == [3, 4]
    with pytest.raises(ContractError):
        multi_seed(mcfg, train, dev, _cfg(epochs=1), seeds=[3])
