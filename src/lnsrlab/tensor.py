"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is a classic tape: every differentiable operation returns a new
``Tensor`` holding references to its parents and a closure that maps the
output adjoint to parent adjoints.  ``backward`` walks the tape once in
reverse topological order and accumulates gradients into the
``requires_grad`` leaves.  Repeated ``backward`` calls accumulate; use
``zero_grads`` to reset.

The operation catalog is exactly what a small transformer encoder and its
losses need: matmul, elementwise arithmetic, GELU, softmax, layer norm,
embedding gather, reductions, squared L2 norm, cross-entropy and MSE,
plus column slicing/concatenation for multi-head attention.

Everything is float64; there is no broadcasting beyond the explicit
row-bias case (``add_bias``).
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

    # Convenience operators over the functional catalog.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)


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
    """Add a length-d bias row vector to every row of a [n, d] matrix."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.data.shape} and {b.data.shape} incompatible")

    def bwd(g):
        return g, g.sum(axis=0)

    return _node(x.data + b.data[None, :], (x, b), bwd)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-d operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions of {a.data.shape} and {b.data.shape} disagree")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _node(ad @ bd, (a, b), bwd)


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
    """Gather rows of a [V, d] table by integer id; scatter-add on backward."""
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
    inner = _GELU_C * (xd + _GELU_A * xd ** 3)
    t = np.tanh(inner)

    def bwd(g):
        sech2 = 1.0 - t * t
        dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd ** 2)
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


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = LAYERNORM_EPS) -> Tensor:
    """Per-row layer normalization of a [n, d] matrix with gain/bias of length d."""
    if x.data.ndim != 2:
        raise ShapeError(f"layernorm: expected 2-d input, got {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layernorm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
            f"incompatible with input {x.data.shape}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    gd = gain.data

    def bwd(g):
        dxhat = g * gd[None, :]
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, (g * xhat).sum(axis=0), g.sum(axis=0)

    return _node(xhat * gd[None, :] + bias.data[None, :], (x, gain, bias), bwd)


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


def cross_entropy(logits: Tensor, label: int) -> Tensor:
    """Negative log-softmax probability of an integer label.

    Accepts logits of shape [C] or [1, C].
    """
    flat = logits.data.reshape(-1)
    c = flat.shape[0]
    if logits.data.ndim > 2 or (logits.data.ndim == 2 and logits.data.shape[0] != 1):
        raise ShapeError(f"cross_entropy: logits shape {logits.data.shape} not [C] or [1, C]")
    if not np.all(np.isfinite(flat)):
        raise ContractError("cross_entropy: logits contain non-finite values")
    label = int(label)
    if not 0 <= label < c:
        raise IndexError(f"cross_entropy: label {label} out of range [0, {c})")
    m = flat.max()
    lse = m + np.log(np.exp(flat - m).sum())
    probs = np.exp(flat - lse)
    shape = logits.data.shape

    def bwd(g):
        d = probs.copy()
        d[label] -= 1.0
        return (float(g) * d.reshape(shape),)

    return _node(np.asarray(lse - flat[label]), (logits,), bwd)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error against a constant target array."""
    t = np.asarray(target, dtype=np.float64)
    if t.shape != pred.data.shape:
        raise ShapeError(f"mse: shapes {pred.data.shape} and {t.shape} differ")
    diff = pred.data - t
    n = diff.size

    def bwd(g):
        return (float(g) * 2.0 * diff / n,)

    return _node(np.asarray((diff * diff).mean()), (pred,), bwd)


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
            cur = adjoint.get(id(p))
            if cur is None:
                adjoint[id(p)] = np.array(pg, dtype=np.float64)
            else:
                cur += pg
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
