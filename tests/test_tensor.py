"""Tests for the autodiff engine.

Every primitive gets a central finite-difference gradient check; a few
forward values are pinned to hand arithmetic so the whole suite does not
rest on the engine agreeing with itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnsrlab import tensor as T
from lnsrlab.errors import ContractError, ShapeError

RNG = np.random.default_rng(20240831)


def fd_grad(f, x0, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    x0 = np.asarray(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x0.copy()
        xp[idx] += h
        xm = x0.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def check_grad(build, x0, rtol=1e-5, h=1e-6):
    """Compare tape gradient of scalar ``build(Tensor)`` against differences."""
    x = T.Tensor(x0, requires_grad=True)
    loss = build(x)
    grads = T.backward(loss)
    got = grads[x].data
    want = fd_grad(lambda a: build(T.Tensor(a)).item(), x0, h=h)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
    assert np.max(np.abs(got - want) / denom) < rtol, f"got {got}, fd {want}"


# ---------------------------------------------------------------------------
# Forward values pinned to hand arithmetic
# ---------------------------------------------------------------------------

def test_matmul_hand_value():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0], [6.0]])
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_cross_entropy_uniform_logits_is_log_c():
    loss = T.cross_entropy(T.Tensor([0.0, 0.0]), 0)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-15)


def test_softmax_of_equal_logits_is_uniform():
    y = T.softmax(T.Tensor([[1.0, 1.0, 1.0, 1.0]]))
    assert np.allclose(y.data, 0.25, atol=1e-15)


def test_layernorm_of_constant_row_is_bias():
    x = T.Tensor([[3.0, 3.0, 3.0, 3.0]])
    gain = T.Tensor(np.ones(4))
    bias = T.Tensor(np.full(4, 0.5))
    out = T.layernorm(x, gain, bias)
    assert np.allclose(out.data, 0.5, atol=1e-6)


def test_gelu_at_zero_and_sign():
    out = T.gelu(T.Tensor([0.0, 100.0, -100.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == pytest.approx(100.0)
    assert abs(out.data[2]) < 1e-8


def test_sumsq_hand_value():
    assert T.sumsq(T.Tensor([[1.0, 2.0], [3.0, 0.0]])).item() == 14.0


def test_mse_hand_value():
    v = T.mse(T.Tensor([1.0, 3.0]), [0.0, 1.0])
    assert v.item() == pytest.approx(2.5)


def test_backward_hand_values():
    x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
    T.backward(T.tsum(T.mul(x, x)))
    assert np.allclose(x.grad.data, [2.0, 4.0, 6.0])

    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    v = T.Tensor([[1.0], [1.0]], requires_grad=True)
    T.backward(T.tsum(T.matmul(a, v)))
    assert np.allclose(v.grad.data, [[4.0], [6.0]])


# ---------------------------------------------------------------------------
# Finite-difference checks, one per primitive
# ---------------------------------------------------------------------------

def test_grad_add_sub_mul_scale():
    x0 = RNG.normal(size=(3, 4))
    c = T.Tensor(RNG.normal(size=(3, 4)))
    check_grad(lambda x: T.tsum(T.add(x, c)), x0)
    check_grad(lambda x: T.tsum(T.sub(c, x)), x0)
    check_grad(lambda x: T.tsum(T.mul(x, c)), x0)
    check_grad(lambda x: T.tsum(T.scale(x, -1.7)), x0)


def test_grad_mul_same_operand_twice():
    check_grad(lambda x: T.tsum(T.mul(x, x)), RNG.normal(size=(5,)))


def test_grad_add_bias_both_sides():
    x0 = RNG.normal(size=(3, 4))
    b0 = RNG.normal(size=4)
    bc = T.Tensor(b0)
    check_grad(lambda x: T.tsum(T.add_bias(x, bc)), x0)
    xc = T.Tensor(x0)
    check_grad(lambda b: T.tsum(T.add_bias(xc, b)), b0)


def test_grad_matmul_both_sides():
    a0 = RNG.normal(size=(3, 4))
    b0 = RNG.normal(size=(4, 2))
    bc = T.Tensor(b0)
    check_grad(lambda a: T.sumsq(T.matmul(a, bc)), a0)
    ac = T.Tensor(a0)
    check_grad(lambda b: T.sumsq(T.matmul(ac, b)), b0)


def test_grad_transpose_reshape():
    x0 = RNG.normal(size=(3, 4))
    check_grad(lambda x: T.sumsq(T.transpose(x)), x0)
    check_grad(lambda x: T.sumsq(T.reshape(x, (2, 6))), x0)


def test_grad_slice_concat():
    x0 = RNG.normal(size=(3, 6))
    check_grad(lambda x: T.sumsq(T.slice_cols(x, 1, 4)), x0)
    check_grad(
        lambda x: T.sumsq(T.concat_cols([T.slice_cols(x, 0, 2), T.slice_cols(x, 2, 6)])),
        x0,
    )


def test_grad_embedding_with_repeats():
    # Repeated ids exercise the scatter-add path.
    ids = np.array([0, 2, 2, 1])
    check_grad(lambda t: T.sumsq(T.embedding(t, ids)), RNG.normal(size=(4, 3)))


def test_grad_gelu_softmax_layernorm():
    x0 = RNG.normal(size=(2, 5))
    check_grad(lambda x: T.sumsq(T.gelu(x)), x0)
    w = T.Tensor(RNG.normal(size=(2, 5)))
    check_grad(lambda x: T.tsum(T.mul(T.softmax(x), w)), x0)
    gain0 = 1.0 + 0.1 * RNG.normal(size=5)
    bias0 = 0.1 * RNG.normal(size=5)
    gc, bc2 = T.Tensor(gain0), T.Tensor(bias0)
    check_grad(lambda x: T.sumsq(T.layernorm(x, gc, bc2)), x0, rtol=1e-4)
    xc = T.Tensor(x0)
    check_grad(lambda g: T.sumsq(T.layernorm(xc, g, bc2)), gain0)
    check_grad(lambda b: T.sumsq(T.layernorm(xc, gc, b)), bias0)


def _layernorm_oracle(x, gain, bias, g):
    """Layer norm and its gradients for the upstream gradient ``g``, written
    with np.mean and np.var: the rounding ``T.layernorm`` must repeat."""
    d = x.shape[-1]
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + T.LAYERNORM_EPS)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    dxhat = g * gain
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return (xhat * gain + bias, dx, (g * xhat).reshape(-1, d).sum(axis=0),
            g.reshape(-1, d).sum(axis=0))


@pytest.mark.parametrize("lead", [(5,), (3, 4)])
@pytest.mark.parametrize("d", [1, 2, 16, 64, 257])
def test_layernorm_equals_mean_var_oracle_bit_for_bit(lead, d):
    rng = np.random.default_rng(d)
    for scale in (1e-150, 1e-8, 1.0, 1e8, 1e150):
        # An offset per row makes the centring cancel digits, as it does
        # on residual-stream rows.
        x0 = scale * (rng.normal(size=lead + (d,)) + rng.normal(size=lead + (1,)) * 10.0)
        gain0, bias0, g = rng.normal(size=d), rng.normal(size=d), rng.normal(size=lead + (d,))
        x, gain, bias = (T.Tensor(a, requires_grad=True) for a in (x0, gain0, bias0))
        out = T.layernorm(x, gain, bias)
        # Summing out * g hands layernorm exactly g as its upstream gradient.
        T.backward(T.tsum(T.mul(out, T.Tensor(g))))
        got = (out.data, x.grad.data, gain.grad.data, bias.grad.data)
        for name, a, b in zip(("value", "dx", "dgain", "dbias"), got,
                              _layernorm_oracle(x0, gain0, bias0, g)):
            assert a.shape == b.shape and np.isfinite(a).all(), (name, scale)
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), (name, scale)


def _plain_forwards(x, w, bias, gain, key_mask, num_heads):
    """The forward expressions the in-place ops replaced, written out with
    a fresh array per step: the rounding the ops must repeat."""
    d = x.shape[-1]
    gelu = 0.5 * x * (1.0 + np.tanh(T._GELU_C * (x + T._GELU_A * (x * x) * x)))
    c = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((c * c).sum(axis=-1, keepdims=True) / d + T.LAYERNORM_EPS)
    layernorm = c * inv * gain + bias
    *lead, m, _ = x.shape
    dh = d // num_heads
    qh = np.swapaxes(x.reshape(*lead, m, num_heads, dh), -2, -3)
    scores = (qh @ np.swapaxes(qh, -1, -2)) * (1.0 / np.sqrt(dh)) + key_mask[..., None, :, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    attention = np.swapaxes(p @ qh, -2, -3).reshape(x.shape)
    matmul = (x.reshape(-1, d) @ w).reshape(x.shape[:-1] + (w.shape[1],)) + bias
    return {"gelu": gelu, "layernorm": layernorm, "attention": attention, "matmul": matmul}


@pytest.mark.parametrize("shape", [(2, 3, 4), (4, 32, 128)])
def test_in_place_forwards_keep_their_bits_and_operands(shape):
    """gelu, layernorm, the attention softmax and matmul's fused bias write
    their intermediates in place: each output equals the plain expression
    bit for bit, and no operand's data changes through forward and backward."""
    rng = np.random.default_rng(shape[-1])
    *lead, m, d = shape
    heads = 2
    x0, w0 = 3.0 * rng.normal(size=shape), rng.normal(size=(d, d))
    bias0, gain0, g = rng.normal(size=d), rng.normal(size=d), rng.normal(size=shape)
    key_mask = np.zeros(tuple(lead) + (1, m))
    key_mask[0, 0, m // 2:] = -1e9
    x, w, bias, gain = (T.Tensor(a.copy(), requires_grad=True)
                        for a in (x0, w0, bias0, gain0))
    outs = {"gelu": T.gelu(x), "layernorm": T.layernorm(x, gain, bias),
            "attention": T.attention(x, x, x, key_mask, heads),
            "matmul": T.matmul(x, w, bias)}
    for name, want in _plain_forwards(x0, w0, bias0, gain0, key_mask, heads).items():
        assert np.array_equal(outs[name].data, want), name
        for operand in (x, w, bias, gain):
            assert not np.shares_memory(outs[name].data, operand.data), name
    fused = outs["matmul"]
    T.backward(T.tsum(T.mul(T.add(T.add(outs["gelu"], outs["layernorm"]),
                                  T.add(outs["attention"], fused)), T.Tensor(g))))
    for leaf, before in ((x, x0), (w, w0), (bias, bias0), (gain, gain0)):
        assert np.array_equal(leaf.data, before)
    # The fused bias has the gradients of add_bias(matmul(x, w), bias).
    xs, ws, bs = (T.Tensor(a, requires_grad=True) for a in (x0, w0, bias0))
    T.backward(T.tsum(T.mul(T.add_bias(T.matmul(xs, ws), bs), T.Tensor(g))))
    xf, wf, bf = (T.Tensor(a, requires_grad=True) for a in (x0, w0, bias0))
    T.backward(T.tsum(T.mul(T.matmul(xf, wf, bf), T.Tensor(g))))
    for split, one in ((xs, xf), (ws, wf), (bs, bf)):
        assert np.array_equal(split.grad.data, one.grad.data)
    with pytest.raises(ShapeError):
        T.matmul(x, w, T.Tensor(np.ones(d + 1)))


def test_grad_reductions_and_losses():
    x0 = RNG.normal(size=(3, 4))
    check_grad(T.tsum, x0)
    check_grad(T.tmean, x0)
    check_grad(T.sumsq, x0)
    t = RNG.normal(size=(3, 4))
    check_grad(lambda x: T.mse(x, t), x0)
    logits0 = RNG.normal(size=5)
    check_grad(lambda x: T.cross_entropy(x, 3), logits0)
    check_grad(lambda x: T.cross_entropy(x, 0), logits0.reshape(1, 5))


def test_grad_composite_attention_like_block():
    """One check through a softmax(QK)V + layernorm + gelu composition."""
    x0 = RNG.normal(size=(4, 6))
    wq = T.Tensor(0.3 * RNG.normal(size=(6, 6)))
    wk = T.Tensor(0.3 * RNG.normal(size=(6, 6)))
    wv = T.Tensor(0.3 * RNG.normal(size=(6, 6)))
    gain = T.Tensor(np.ones(6))
    bias = T.Tensor(np.zeros(6))

    def build(x):
        q = T.matmul(x, wq)
        k = T.matmul(x, wk)
        v = T.matmul(x, wv)
        att = T.softmax(T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(6.0)))
        return T.sumsq(T.gelu(T.layernorm(T.matmul(att, v), gain, bias)))

    check_grad(build, x0, rtol=1e-4)


def _attention_by_heads(q, k, v, key_mask, num_heads):
    """The fused op's reference: the per-head composition of primitives."""
    dh = q.data.shape[1] // num_heads
    mask = T.Tensor(np.broadcast_to(key_mask, (q.data.shape[0],) * 2))
    heads = []
    for h in range(num_heads):
        qh, kh, vh = (T.slice_cols(t, h * dh, (h + 1) * dh) for t in (q, k, v))
        scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(dh))
        heads.append(T.matmul(T.softmax(T.add(scores, mask)), vh))
    return T.concat_cols(heads)


def test_fused_attention_matches_per_head_composition():
    nb, m, d, heads = 3, 5, 6, 3
    qkv0 = [RNG.normal(size=(nb, m, d)) for _ in range(3)]
    key_mask = np.zeros((nb, 1, m))
    key_mask[1, 0, 3:] = -1e9
    key_mask[2, 0, 1:] = -1e9
    w = RNG.normal(size=(nb, m, d))
    q, k, v = (T.Tensor(a, requires_grad=True) for a in qkv0)
    fused = T.attention(q, k, v, key_mask, heads)
    T.backward(T.tsum(T.mul(fused, T.Tensor(w))))
    for j in range(nb):
        qj, kj, vj = (T.Tensor(a[j], requires_grad=True) for a in qkv0)
        ref = _attention_by_heads(qj, kj, vj, key_mask[j], heads)
        assert np.allclose(fused.data[j], ref.data, rtol=0, atol=1e-12)
        T.backward(T.tsum(T.mul(ref, T.Tensor(w[j]))))
        for batched, single in ((q, qj), (k, kj), (v, vj)):
            assert np.allclose(batched.grad.data[j], single.grad.data, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        T.attention(q, k, T.Tensor(np.ones((nb, m, d + 1))), key_mask, heads)
    with pytest.raises(ShapeError):
        T.attention(q, k, v, key_mask, 4)


def test_leading_axes_match_per_example_calls():
    """Each op on a [B, ...] batch equals B calls on the examples; the
    losses sum the per-example values, weights sum their gradients."""
    nb, m, d = 3, 4, 5
    x0 = RNG.normal(size=(nb, m, d))
    w0, bias0, pos0 = RNG.normal(size=(d, 2)), RNG.normal(size=2), RNG.normal(size=(m, d))
    labels = np.array([1, 0, 1])

    def run(x, w, bias, pos, label):
        h = T.layernorm(T.add_bias(x, pos), T.Tensor(np.ones(d)), T.Tensor(np.zeros(d)))
        out = T.add_bias(T.matmul(T.gelu(h), w), bias)
        flat = T.reshape(out, out.data.shape[:-2] + (m * 2,))
        return T.add(T.cross_entropy(flat, label), T.mse(flat, np.zeros(flat.data.shape)))

    leaves = [T.Tensor(a, requires_grad=True) for a in (x0, w0, bias0, pos0)]
    total = run(*leaves, labels)
    T.backward(total)
    parts = 0.0
    sums = [np.zeros_like(a) for a in (w0, bias0, pos0)]
    for j in range(nb):
        single = [T.Tensor(a, requires_grad=True) for a in (x0[j], w0, bias0, pos0)]
        loss = run(*single, labels[j])
        parts += loss.item()
        T.backward(loss)
        assert np.allclose(leaves[0].grad.data[j], single[0].grad.data, rtol=0, atol=1e-12)
        for acc, leaf in zip(sums, single[1:]):
            acc += leaf.grad.data
    assert total.item() == pytest.approx(parts, rel=1e-12)
    for acc, leaf in zip(sums, leaves[1:]):
        assert np.allclose(leaf.grad.data, acc, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Tape semantics
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.add(x, x))


def test_backward_accumulates_until_zeroed():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.backward(T.tsum(x))
    T.backward(T.tsum(x))
    assert np.allclose(x.grad.data, [2.0, 2.0])
    T.zero_grads([x])
    assert x.grad is None
    T.backward(T.tsum(x))
    assert np.allclose(x.grad.data, [1.0, 1.0])


def test_seed_grad_scales_linearly():
    x0 = RNG.normal(size=(3,))
    x = T.Tensor(x0, requires_grad=True)
    T.backward(T.sumsq(x), seed_grad=0.25)
    assert np.allclose(x.grad.data, 0.25 * 2.0 * x0, atol=1e-14)


def test_constant_leaves_stay_off_the_tape():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    c = T.Tensor([3.0, 4.0])
    out = T.mul(x, c)
    grads = T.backward(T.tsum(out))
    assert x in grads
    assert c not in grads and c.grad is None
    # A computation with no grad-requiring leaf produces a detached node.
    assert not T.mul(c, c).requires_grad


def test_diamond_graph_accumulates_both_paths():
    # y = sum(x*x + x*x) so dy/dx = 4x.
    x = T.Tensor([1.0, -2.0], requires_grad=True)
    h = T.mul(x, x)
    T.backward(T.tsum(T.add(h, h)))
    assert np.allclose(x.grad.data, [4.0, -8.0])


def test_backward_is_deterministic():
    x0 = RNG.normal(size=(4, 4))

    def run():
        x = T.Tensor(x0, requires_grad=True)
        w = T.Tensor(np.eye(4), requires_grad=True)
        loss = T.sumsq(T.gelu(T.matmul(x, w)))
        T.backward(loss)
        return x.grad.data.copy()

    assert np.array_equal(run(), run())


def test_shape_errors_name_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\)"):
        T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))
    with pytest.raises(ShapeError):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    with pytest.raises(IndexError):
        T.cross_entropy(T.Tensor([0.0, 0.0]), 2)
    with pytest.raises(IndexError):
        T.embedding(T.Tensor(np.ones((3, 2))), [0, 3])
    with pytest.raises(ContractError):
        T.softmax(T.Tensor([np.inf, 0.0]))


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

finite_rows = st.lists(
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    min_size=1,
    max_size=4,
)


@settings(max_examples=50, deadline=None)
@given(finite_rows)
def test_softmax_rows_are_distributions(rows):
    y = T.softmax(T.Tensor(rows)).data
    assert np.all(y >= 0)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(finite_rows, st.floats(-5, 5))
def test_softmax_shift_invariance(rows, c):
    a = T.softmax(T.Tensor(rows)).data
    b = T.softmax(T.Tensor(np.asarray(rows) + c)).data
    assert np.allclose(a, b, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(finite_rows)
def test_layernorm_rows_are_standardized(rows):
    x = np.asarray(rows, dtype=np.float64)
    out = T.layernorm(T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3))).data
    assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
    # Unit variance only when the row is not (near-)constant relative to eps.
    lively = x.var(axis=1) > 1e-3
    if lively.any():
        assert np.allclose(out[lively].var(axis=1), 1.0, atol=1e-2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_backward_linearity_in_seed(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(3,))
    x = T.Tensor(x0, requires_grad=True)
    T.backward(T.sumsq(x), seed_grad=3.0)
    g3 = x.grad.data.copy()
    T.zero_grads([x])
    y = T.Tensor(x0, requires_grad=True)
    T.backward(T.sumsq(y))
    assert np.allclose(g3, 3.0 * y.grad.data, atol=1e-12)
