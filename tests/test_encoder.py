"""Encoder construction, tapped forward passes, injection locality, checkpoints."""

import numpy as np
import pytest

from lnsrlab import tensor as T
from lnsrlab.encoder import (
    ATTN_MASK_VALUE,
    ActivationTrace,
    EncoderConfig,
    _block,
    build_encoder,
    encoder_from_store,
    forward_with_taps,
    load_checkpoint,
    save_checkpoint,
)
from lnsrlab.errors import ContractError, ShapeError, ValidationError
from lnsrlab.rng import stream_rng


def small_config(**kw):
    base = dict(vocab_size=50, embed_dim=8, num_layers=2, num_heads=2,
                ffn_dim=16, max_seq_len=12)
    base.update(kw)
    return EncoderConfig(**base)


def test_trace_length_and_shapes():
    model = build_encoder(small_config(), init_seed=0)
    logits, trace = forward_with_taps(model, [3, 4, 5])
    assert len(trace) == 3
    for entry in trace.layers:
        assert entry.data.shape == (12, 8)
    assert logits.data.shape == (2,)


def test_same_seed_bit_identical_params():
    a = build_encoder(small_config(), init_seed=9)
    b = build_encoder(small_config(), init_seed=9)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = build_encoder(small_config(), init_seed=10)
    assert not all(np.array_equal(pa.data, pc.data)
                   for pa, pc in zip(a.parameters(), c.parameters()))


def test_init_follows_the_documented_draw_order():
    """The init, written out by hand: each block's wq, wk, wv, wo, w1 and
    w2, then tok_emb, pos_emb and w_head, draw N(0, 1) * 0.02 from the init
    stream in that order; biases are zero and norm gains one.  The store
    holds it in parameters() order, bit for bit, and each block attribute
    holds its own weight."""
    d, f, vocab, m, c = 8, 16, 50, 12, 3
    rng = stream_rng(7, "init")

    def draw(*shape):
        return rng.standard_normal(shape) * 0.02

    weights = [dict(wq=draw(d, d), wk=draw(d, d), wv=draw(d, d), wo=draw(d, d),
                    w1=draw(d, f), w2=draw(f, d)) for _ in range(2)]
    tok_emb, pos_emb, w_head = draw(vocab, d), draw(m, d), draw(d, c)
    zero, one = np.zeros(d), np.ones(d)
    want = [tok_emb, pos_emb]
    for w in weights:
        want += [w["wq"], zero, w["wk"], zero, w["wv"], zero, w["wo"], zero, one, zero,
                 w["w1"], np.zeros(f), w["w2"], zero, one, zero]
    want += [w_head, np.zeros(c)]
    model = build_encoder(small_config(num_classes=c), init_seed=7)
    assert model.store.tobytes() == np.concatenate(want, axis=None).tobytes()
    # Each weight also reaches the block under its own name.
    for blk, w in zip(model.blocks, weights):
        for name, value in w.items():
            assert getattr(blk, name).data.tobytes() == value.tobytes(), name


def test_invalid_configs_name_fields():
    with pytest.raises(ValidationError, match="num_heads"):
        small_config(num_heads=3)
    with pytest.raises(ValidationError, match="vocab_size"):
        small_config(vocab_size=0)


def test_numpy_integer_heads_that_do_not_divide_the_width_are_rejected():
    with pytest.raises(ValidationError, match="num_heads must divide embed_dim, got"
                                              " embed_dim=8 num_heads=3"):
        EncoderConfig(embed_dim=np.int64(8), num_heads=np.int64(3))


def test_forward_is_deterministic():
    model = build_encoder(small_config(), init_seed=1)
    l1, t1 = forward_with_taps(model, [2, 9, 9, 4])
    l2, t2 = forward_with_taps(model, [2, 9, 9, 4])
    assert np.array_equal(l1.data, l2.data)
    for a, b in zip(t1.layers, t2.layers):
        assert np.array_equal(a.data, b.data)


def test_zero_injection_identical_to_clean():
    model = build_encoder(small_config(), init_seed=2)
    _, clean = forward_with_taps(model, [2, 3])
    _, noisy = forward_with_taps(model, [2, 3], injection=(1, np.zeros((12, 8))))
    for a, b in zip(clean.layers, noisy.layers):
        assert np.array_equal(a.data, b.data)


def test_injection_locality():
    model = build_encoder(small_config(num_layers=3), init_seed=3)
    rng = stream_rng(3, "noise")
    noise = rng.normal(0, 0.1, size=(12, 8))
    _, clean = forward_with_taps(model, [5, 6, 7, 8])
    for b in (1, 2, 3):
        _, pert = forward_with_taps(model, [5, 6, 7, 8], injection=(b, noise))
        for r in range(b):
            assert np.array_equal(pert.layers[r].data, clean.layers[r].data), \
                f"entry {r} must be clean below injection layer {b}"
        for r in range(b, 4):
            assert not np.array_equal(pert.layers[r].data, clean.layers[r].data)
        # The noise enters block b's input: block b on the clean input plus
        # the noise gives the perturbed entry b bit for bit.
        key_mask = np.where(clean.token_mask, 0.0, ATTN_MASK_VALUE)[None, :]
        out = _block(T.add(clean.layers[b - 1], T.Tensor(noise)), model.blocks[b - 1],
                     key_mask, model.config.num_heads)
        assert np.array_equal(out.data, pert.layers[b].data)


def test_all_zero_parameters_give_zero_logits():
    model = build_encoder(small_config(), init_seed=0)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    logits, trace = forward_with_taps(model, [1, 2, 3])
    assert np.array_equal(logits.data, np.zeros(2))
    for entry in trace.layers:
        assert np.array_equal(entry.data, np.zeros((12, 8)))


def test_injection_contract_errors():
    model = build_encoder(small_config(), init_seed=4)
    with pytest.raises(ContractError):
        forward_with_taps(model, [1, 2], injection=(0, np.zeros((12, 8))))
    with pytest.raises(ContractError):
        forward_with_taps(model, [1, 2], injection=(3, np.zeros((12, 8))))
    with pytest.raises(ShapeError):
        forward_with_taps(model, [1, 2], injection=(1, np.zeros((12, 7))))
    with pytest.raises(IndexError):
        forward_with_taps(model, [1, 50])
    with pytest.raises(ContractError):
        forward_with_taps(model, [0, 0])
    with pytest.raises(ContractError):
        forward_with_taps(model, list(range(1, 14)))


def test_pad_rows_do_not_leak_into_logits():
    """Noise confined to pad rows leaves logits bit-identical: pad keys are
    masked out of attention and pad rows out of pooling."""
    model = build_encoder(small_config(), init_seed=5)
    rng = stream_rng(5, "noise")
    pad_only = rng.normal(size=(12, 8))
    pad_only[:3] = 0.0  # rows of the 3 real tokens untouched
    clean_logits, _ = forward_with_taps(model, [4, 5, 6])
    pert_logits, _ = forward_with_taps(model, [4, 5, 6], injection=(1, pad_only))
    assert np.array_equal(clean_logits.data, pert_logits.data)


def test_gradients_flow_to_all_parameters():
    model = build_encoder(small_config(), init_seed=7)
    logits, _ = forward_with_taps(model, [2, 3, 4, 5])
    loss = T.cross_entropy(logits, 1)
    grads = T.backward(loss)
    # Embedding rows of unused tokens get zero grad but the leaf is present.
    for p in model.parameters():
        assert p in grads, "every parameter must be reachable from the loss"


def test_full_model_gradcheck_small():
    """Autodiff vs central differences through the whole encoder + loss."""
    cfg = EncoderConfig(vocab_size=12, embed_dim=4, num_layers=1, num_heads=2,
                        ffn_dim=6, max_seq_len=4)
    model = build_encoder(cfg, init_seed=8)
    tokens = [3, 4, 5]

    def loss_value():
        logits, _ = forward_with_taps(model, tokens)
        return T.cross_entropy(logits, 0)

    grads = T.backward(loss_value())
    h = 1e-6
    rng = np.random.default_rng(0)
    for p in model.parameters():
        flat = p.data.reshape(-1)
        # Spot-check a few coordinates per tensor to keep this test quick.
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_value().item()
            flat[idx] = orig - h
            down = loss_value().item()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            ad = grads[p].data.reshape(-1)[idx]
            assert ad == pytest.approx(fd, rel=1e-4, abs=1e-8)


def _assert_weights_live_in_store(model):
    params = model.parameters()
    assert model.store.dtype == np.float64 and model.store.flags.c_contiguous
    assert model.store.size == sum(p.data.size for p in params)
    for p in params:
        assert np.shares_memory(p.data, model.store)
    assert np.array_equal(np.concatenate([p.data for p in params], axis=None), model.store)


def test_parameters_are_views_of_one_store(tmp_path):
    model = build_encoder(small_config(num_layers=3), init_seed=11)
    _assert_weights_live_in_store(model)
    model.store[:] = 0.5
    assert all((p.data == 0.5).all() for p in model.parameters())
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    _assert_weights_live_in_store(load_checkpoint(path))


def test_encoder_from_store_views_the_store_it_is_given():
    cfg = small_config()
    assert not encoder_from_store(cfg).store.any()
    store = build_encoder(cfg, init_seed=3).store.copy()
    model = encoder_from_store(cfg, store)
    assert model.store is store
    _assert_weights_live_in_store(model)
    with pytest.raises(ShapeError, match=rf"parameter store shape \({store.size - 1},\)"):
        encoder_from_store(cfg, store[:-1])


def test_checkpoint_roundtrip(tmp_path):
    model = build_encoder(small_config(num_layers=3, num_classes=3), init_seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    # One line per EncoderConfig field, in declaration order.
    assert blob.startswith(b"LNSR1\nvocab_size=50\nembed_dim=8\nnum_layers=3\nnum_heads=2\n"
                           b"ffn_dim=16\nmax_seq_len=12\nnum_classes=3\n\n")
    # Older LNSR1 files also carry a dropout_rate line and a regression=0
    # line, which are ignored.
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(blob.replace(b"\n\n", b"\nregression=0\ndropout_rate=0.0\n\n", 1))
    for back in (load_checkpoint(path), load_checkpoint(legacy)):
        assert back.config == model.config
        for a, b in zip(model.parameters(), back.parameters()):
            assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("num_classes", [1, 2])
def test_checkpoint_with_a_regression_head_is_rejected(tmp_path, num_classes):
    """A file that older versions saved with a 1-output regression head
    names the file and the field, whether its num_classes line makes the
    payload fit a classifier (1) or not (2)."""
    model = build_encoder(small_config(num_classes=1), init_seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes().replace(
        b"num_classes=1\n", f"num_classes={num_classes}\nregression=1\n".encode(), 1))
    with pytest.raises(ValidationError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == (f"checkpoint {path}: header field 'regression' is '1';"
                              f" only classifiers (regression=0) load")


def test_checkpoint_rejects_corruption(tmp_path):
    model = build_encoder(small_config(), init_seed=12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(blob[:-16])
    with pytest.raises(ValidationError, match="payload"):
        load_checkpoint(tmp_path / "trunc.ckpt")
    (tmp_path / "magic.ckpt").write_bytes(b"XXXX" + blob[5:])
    with pytest.raises(ValidationError, match="magic"):
        load_checkpoint(tmp_path / "magic.ckpt")
    (tmp_path / "field.ckpt").write_bytes(blob.replace(b"num_heads=2\n", b"", 1))
    with pytest.raises(ValidationError, match="missing header field 'num_heads'"):
        load_checkpoint(tmp_path / "field.ckpt")
    (tmp_path / "noend.ckpt").write_bytes(blob.replace(b"\n\n", b"\n", 1))
    with pytest.raises(ValidationError, match="missing header terminator"):
        load_checkpoint(tmp_path / "noend.ckpt")


@pytest.mark.parametrize("old, new, message", [
    (b"num_heads=2\n", b"num_heads=two\n", "header field 'num_heads' is not an integer: 'two'"),
    (b"embed_dim=8\n", b"embed_dim=\xd9\xa8\n", "header field 'embed_dim' is not an integer"),
    (b"num_heads=2\n", b"num_heads=3\n", "num_heads must divide embed_dim"),
], ids=["word", "non_ascii_digit", "invalid_config"])
def test_checkpoint_rejects_a_bad_header_value(tmp_path, old, new, message):
    """A value that is not an ASCII integer (U+0668 is an Arabic-Indic
    eight, which ``int`` would read) or a value that no encoder takes
    names the file and the field."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_encoder(small_config(), init_seed=12), path)
    path.write_bytes(path.read_bytes().replace(old, new, 1))
    with pytest.raises(ValidationError, match=message) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"checkpoint {path}: ")


def test_checkpoint_rejects_a_non_finite_weight(tmp_path):
    model = build_encoder(small_config(), init_seed=12)
    params = model.parameters()
    params[5].data[1] = np.inf
    params[9].data[0] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(ValidationError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == (f"checkpoint {path}: non-finite value in parameter 5"
                              f" {params[5].shape}")


def test_checkpoint_forward_agreement(tmp_path):
    model = build_encoder(small_config(), init_seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    la, _ = forward_with_taps(model, [7, 8, 9])
    lb, _ = forward_with_taps(back, [7, 8, 9])
    assert np.array_equal(la.data, lb.data)


# ------------------------------------------------------------------ batches

BATCH = [[3, 4, 5], [7, 1, 2, 9, 9, 4, 8], [11], [6, 6, 13, 2, 40, 41, 42, 43, 44, 45, 46, 47]]


def test_batch_matches_single_calls():
    model = build_encoder(small_config(num_layers=3), init_seed=15)
    noise = stream_rng(15, "noise").normal(0, 0.1, size=(len(BATCH), 12, 8))
    for injection in (None, (2, noise)):
        logits, trace = forward_with_taps(model, BATCH, injection=injection)
        assert logits.data.shape == (len(BATCH), 2)
        assert trace.token_mask.shape == (len(BATCH), 12)
        for j, tokens in enumerate(BATCH):
            single_inj = None if injection is None else (2, noise[j])
            lj, tj = forward_with_taps(model, tokens, injection=single_inj)
            assert np.allclose(logits.data[j], lj.data, rtol=0, atol=1e-12)
            assert np.array_equal(trace.token_mask[j], tj.token_mask)
            for batched, single in zip(trace.layers, tj.layers):
                assert batched.data.shape == (len(BATCH), 12, 8)
                assert np.allclose(batched.data[j], single.data, rtol=0, atol=1e-12)


def test_batch_rows_do_not_see_each_other():
    """Another sequence's tokens and length leave a sequence's trace
    bit-identical: every mask and pooling weight is per sequence."""
    model = build_encoder(small_config(), init_seed=16)
    _, base = forward_with_taps(model, BATCH)
    changed = list(BATCH)
    changed[1] = [30, 31]  # different tokens, much more padding
    changed[3] = [5] * 12  # no padding at all
    logits, other = forward_with_taps(model, changed)
    for a, b in zip(base.layers, other.layers):
        for j in (0, 2):
            assert np.array_equal(a.data[j], b.data[j])
    assert not np.array_equal(base.layers[2].data[1], other.layers[2].data[1])


def test_clean_prefix_reuse_matches_full_pass():
    model = build_encoder(small_config(num_layers=3), init_seed=17)
    noise = stream_rng(17, "noise").normal(0, 0.1, size=(len(BATCH), 12, 8))
    _, clean = forward_with_taps(model, BATCH)
    for b in (1, 2, 3):
        full_logits, full = forward_with_taps(model, BATCH, injection=(b, noise))
        logits, reused = forward_with_taps(model, BATCH, injection=(b, noise), clean=clean)
        for r in range(b):
            assert reused.layers[r] is clean.layers[r]
        for x, y in zip(full.layers, reused.layers):
            assert np.array_equal(x.data, y.data)
        assert np.array_equal(full_logits.data, logits.data)
        # Gradients reach the blocks below b through the shared prefix.
        got = {p: g.data.copy() for p, g in T.backward(T.sumsq(reused.layers[-1])).items()}
        T.zero_grads(model.parameters())
        want = T.backward(T.sumsq(full.layers[-1]))
        assert got.keys() == want.keys()
        for p in got:
            assert np.allclose(got[p], want[p].data, rtol=0, atol=1e-12)
        T.zero_grads(model.parameters())


def test_clean_prefix_contracts():
    model = build_encoder(small_config(), init_seed=18)
    _, clean = forward_with_taps(model, [1, 2, 3])
    with pytest.raises(ContractError, match="injected"):
        forward_with_taps(model, [1, 2, 3], clean=clean)
    with pytest.raises(ContractError, match="different token"):
        forward_with_taps(model, [1, 2], injection=(1, np.zeros((12, 8))), clean=clean)
    with pytest.raises(ContractError, match="empty"):
        forward_with_taps(model, [])
    with pytest.raises(ShapeError):
        forward_with_taps(model, BATCH, injection=(1, np.zeros((12, 8))))
    with pytest.raises(IndexError, match=r"\[1, 50\]"):
        forward_with_taps(model, [[2, 3], [1, 50]])
