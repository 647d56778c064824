"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a classic tape: every differentiable operation returns a new
``Tensor`` holding references to its parents and a closure that maps the
output adjoint to parent adjoints.  ``backward`` walks the tape once in
reverse topological order and accumulates gradients into the
``requires_grad`` leaves.  Repeated ``backward`` calls accumulate; use
``zero_grads`` to reset.

The operation catalog is exactly what a small transformer encoder and its
losses need: matmul, elementwise arithmetic, GELU, softmax, layer norm,
embedding gather, fused multi-head attention, reductions, squared L2 norm,
cross-entropy and MSE, plus 2-d transpose and column slicing/concatenation.

Ops act on the trailing axes and accept any leading shape, so one call
handles one example ([M, d]) or a batch of them ([B, M, d]).  A weight
[k, n] multiplies every leading index alike (its gradient sums over them),
``add_bias`` broadcasts a trailing-shaped operand over the leading axes,
and the losses add up one value per leading index.  Apart from that,
operands of elementwise ops must have equal shapes.

Everything is float64.
"""

import numpy as np

from .errors import ContractError, ShapeError

_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_A = 0.044715
LAYERNORM_EPS = 1e-5


class Tensor:
    """A dense float64 array that may participate in a backward tape.

    Leaves are created directly (``Tensor(data, requires_grad=True)``);
    interior nodes are created by the operations below and carry a backward
    rule.  ``grad`` is itself a Tensor of identical shape, populated by
    ``backward`` for requires_grad leaves.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}{flag})"


def _node(data: np.ndarray, parents, backward) -> Tensor:
    """Internal constructor for an operation output.

    When no parent requires a gradient the node is emitted detached (no
    parents, no backward rule), which keeps constant subgraphs off the tape.
    """
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# Elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")

    def bwd(g):
        return g, g

    return _node(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")

    def bwd(g):
        return g, -g

    return _node(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def bwd(g):
        return g * bd, g * ad

    return _node(ad * bd, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _node(a.data * c, (a,), bwd)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add ``b`` to every leading index of ``x``, whose trailing shape is b's.

    A length-d bias on [..., d] rows, or [M, d] position embeddings on a
    [B, M, d] batch; the bias gradient sums over the leading axes.
    """
    xs, bs = x.data.shape, b.data.shape
    if b.data.ndim < 1 or x.data.ndim < b.data.ndim or xs[x.data.ndim - b.data.ndim:] != bs:
        raise ShapeError(f"add_bias: shapes {xs} and {bs} incompatible")

    def bwd(g):
        return g, g.reshape((-1,) + bs).sum(axis=0)

    return _node(x.data + b.data, (x, b), bwd)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a`` [..., m, k] times ``b``: a [k, n] weight shared by every leading
    index of ``a``, or a [..., k, n] stack with a's leading shape.

    The shared-weight product runs as one [(...)*m, k] @ [k, n] GEMM, so a
    2-d ``a`` computes exactly the plain matrix product and its gradients.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or not (bd.ndim == 2 or bd.shape[:-2] == ad.shape[:-2]):
        raise ShapeError(f"matmul: operand shapes {ad.shape} and {bd.shape} incompatible")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions of {ad.shape} and {bd.shape} disagree")
    k, n = bd.shape[-2], bd.shape[-1]
    if bd.ndim == 2:
        def bwd(g):
            return ((g.reshape(-1, n) @ bd.T).reshape(ad.shape),
                    ad.reshape(-1, k).T @ g.reshape(-1, n))

        out = (ad.reshape(-1, k) @ bd).reshape(ad.shape[:-1] + (n,))
        return _node(out, (a, b), bwd)

    def bwd_stacked(g):
        return g @ np.swapaxes(bd, -1, -2), np.swapaxes(ad, -1, -2) @ g

    return _node(ad @ bd, (a, b), bwd_stacked)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d tensor, got {a.data.shape}")

    def bwd(g):
        return (g.T,)

    return _node(a.data.T.copy(), (a,), bwd)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape

    def bwd(g):
        return (g.reshape(old),)

    return _node(a.data.reshape(shape).copy(), (a,), bwd)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols: expected 2-d tensor, got {a.data.shape}")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] out of range for shape {a.data.shape}")
    width = a.data.shape

    def bwd(g):
        full = np.zeros(width)
        full[:, start:stop] = g
        return (full,)

    return _node(a.data[:, start:stop].copy(), (a,), bwd)


def concat_cols(parts) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_cols: empty input")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeError(f"concat_cols: incompatible part shape {p.data.shape}")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def bwd(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return _node(np.concatenate([p.data for p in parts], axis=1), parts, bwd)


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of a [V, d] table by an integer id array of any shape
    (output ``ids.shape + (d,)``); scatter-add on backward."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-d, got {table.data.shape}")
    vocab = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        raise IndexError(f"embedding: id out of range [0, {vocab}) in {ids.tolist()}")
    tshape = table.data.shape

    def bwd(g):
        dt = np.zeros(tshape)
        np.add.at(dt, ids, g)
        return (dt,)

    return _node(table.data[ids].copy(), (table,), bwd)


# ---------------------------------------------------------------------------
# Nonlinearities and normalization
# ---------------------------------------------------------------------------

def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (smooth, used throughout)."""
    xd = x.data
    sq = xd * xd  # numpy's float power is ~40x slower than products
    inner = _GELU_C * (xd + _GELU_A * sq * xd)
    t = np.tanh(inner)

    def bwd(g):
        sech2 = 1.0 - t * t
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * sq)
        return (g * (0.5 * (1.0 + t) + 0.5 * xd * sech2 * dinner),)

    return _node(0.5 * xd * (1.0 + t), (x,), bwd)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to 1."""
    xd = x.data
    if not np.all(np.isfinite(xd)):
        raise ContractError("softmax: input contains non-finite values")
    shifted = xd - xd.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _node(y, (x,), bwd)


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer normalization of every length-d row of a [..., d] input, with
    gain/bias of length d shared by all rows."""
    if x.data.ndim < 2:
        raise ShapeError(f"layernorm: expected [..., n, d] input, got {x.data.shape}")
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layernorm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
            f"incompatible with input {x.data.shape}"
        )
    # The ufuncs np.mean and np.var run, without their Python wrappers: the
    # mean is the row sum over d, the variance the mean square of c.
    c = x.data - x.data.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt((c * c).sum(axis=-1, keepdims=True) / d + LAYERNORM_EPS)
    xhat = c * inv
    gd = gain.data

    def bwd(g):
        dxhat = g * gd
        m1 = dxhat.sum(axis=-1, keepdims=True) / d
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / d
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)

    return _node(xhat * gd + bias.data, (x, gain, bias), bwd)


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask, num_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    ``q``, ``k`` and ``v`` are [..., M, d] projections; each is split into
    ``num_heads`` column blocks of width d/num_heads.  Per head the scores
    q_h k_h^T / sqrt(d/num_heads) get the constant additive ``key_mask``
    ([..., 1, M], broadcast over query rows and heads), a softmax over keys
    weighs v_h, and the heads are merged back into [..., M, d].  The backward
    pass is written out by hand instead of taping the ~10 ops per head.
    """
    shape = q.data.shape
    if len(shape) < 2 or k.data.shape != shape or v.data.shape != shape:
        raise ShapeError(f"attention: q/k/v shapes {shape}/{k.data.shape}/{v.data.shape}"
                         f" differ or are not [..., M, d]")
    *lead, m, d = shape
    if num_heads < 1 or d % num_heads != 0:
        raise ShapeError(f"attention: {num_heads} heads do not divide width {d}")
    dh = d // num_heads
    mask = np.asarray(key_mask, dtype=np.float64)[..., None, :, :]  # head axis
    scale = 1.0 / np.sqrt(dh)

    def split(a):  # [..., M, d] -> [..., H, M, dh]
        return np.swapaxes(a.reshape(*lead, m, num_heads, dh), -2, -3)

    def merge(a):  # [..., H, M, dh] -> [..., M, d]
        return np.swapaxes(a, -2, -3).reshape(shape)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scores = (qh @ np.swapaxes(kh, -1, -2)) * scale + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        gh = split(g)
        dp = gh @ np.swapaxes(vh, -1, -2)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        return merge(ds @ kh), merge(np.swapaxes(ds, -1, -2) @ qh), \
            merge(np.swapaxes(p, -1, -2) @ gh)

    return _node(merge(p @ vh), (q, k, v), bwd)


# ---------------------------------------------------------------------------
# Reductions and losses
# ---------------------------------------------------------------------------

def tsum(x: Tensor) -> Tensor:
    shape = x.data.shape

    def bwd(g):
        return (np.full(shape, float(g)),)

    return _node(np.asarray(x.data.sum()), (x,), bwd)


def tmean(x: Tensor) -> Tensor:
    if x.data.size == 0:
        raise ShapeError("mean: empty tensor")
    n = x.data.size
    shape = x.data.shape

    def bwd(g):
        return (np.full(shape, float(g) / n),)

    return _node(np.asarray(x.data.mean()), (x,), bwd)


def sumsq(x: Tensor) -> Tensor:
    """Squared L2 (Frobenius) norm as a scalar node."""
    xd = x.data

    def bwd(g):
        return (2.0 * float(g) * xd,)

    return _node(np.asarray((xd * xd).sum()), (x,), bwd)


def cross_entropy(logits: Tensor, label) -> Tensor:
    """Negative log-softmax probability of integer labels, summed.

    ``logits`` is [..., C] with one example per leading index; ``label`` is
    an integer or an integer array broadcast to the leading shape.  [C] and
    [1, C] logits with one label give that example's loss.
    """
    x = logits.data
    if x.ndim < 1:
        raise ShapeError(f"cross_entropy: logits shape {x.shape} has no class axis")
    c = x.shape[-1]
    if not np.all(np.isfinite(x)):
        raise ContractError("cross_entropy: logits contain non-finite values")
    labels = np.asarray(label, dtype=np.int64)
    try:
        labels = np.broadcast_to(labels, x.shape[:-1]).reshape(-1)
    except ValueError:
        raise ShapeError(
            f"cross_entropy: labels shape {labels.shape} vs logits {x.shape}") from None
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise IndexError(f"cross_entropy: label {labels.tolist()} out of range [0, {c})")
    rows = x.reshape(-1, c)
    picked = rows[np.arange(rows.shape[0]), labels]
    m = rows.max(axis=-1)
    lse = m + np.log(np.exp(rows - m[:, None]).sum(axis=-1))
    probs = np.exp(rows - lse[:, None])

    def bwd(g):
        d = probs.copy()
        d[np.arange(d.shape[0]), labels] -= 1.0
        return (float(g) * d.reshape(x.shape),)

    return _node(np.asarray((lse - picked).sum()), (logits,), bwd)


def mse(pred: Tensor, target) -> Tensor:
    """Squared error against a constant target array: the mean over the last
    axis, summed over the leading axes (one example per leading index)."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape or t.ndim < 1:
        raise ShapeError(f"mse: shapes {pred.data.shape} and {t.shape} differ")
    diff = pred.data - t
    n = diff.shape[-1]

    def bwd(g):
        return (float(g) * 2.0 * diff / n,)

    return _node(np.asarray((diff * diff).mean(axis=-1).sum()), (pred,), bwd)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def _toposort(root: Tensor):
    """Parents-before-children order over the requires_grad subgraph."""
    topo = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    return topo


def backward(loss: Tensor, seed_grad: float = 1.0):
    """Reverse-mode pass from a scalar loss.

    Accumulates into ``.grad`` of every reachable requires_grad leaf and
    returns the map ``{leaf: leaf.grad}``.  ``seed_grad`` scales the whole
    gradient (useful for batch averaging).
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return {}
    adjoint = {id(loss): np.full(loss.data.shape, float(seed_grad))}
    leaves = {}
    for node in reversed(_toposort(loss)):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            leaves[id(node)] = (node, g)
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if not p.requires_grad or pg is None:
                continue
            # Accumulate out of place: a rule may hand the same array to
            # several parents (add passes g to both).
            cur = adjoint.get(id(p))
            adjoint[id(p)] = pg if cur is None else cur + pg
    out = {}
    for node, g in leaves.values():
        if node.grad is None:
            node.grad = Tensor(g)
        else:
            node.grad.data = node.grad.data + g
        out[node] = node.grad
    return out


def zero_grads(tensors):
    """Reset accumulated gradients on the given tensors."""
    for t in tensors:
        t.grad = None
