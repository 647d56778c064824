"""Toy transformer encoder with noise-injection and activation-recording taps.

The model is a stack of post-norm attention/FFN blocks over learned token
plus positional embeddings, mean-pooled into a classification head.
``forward_with_taps`` records the embedding output and every block output
in an :class:`ActivationTrace` and can add a caller-supplied noise matrix
to the input of any block b (b = 1 perturbs the embedding output).

Trace semantics: entry 0 is the embedding output, entry r the output of
block r, every entry [M, d] for one sequence or [B, M, d] for a batch of B
sequences; both run the same code, which acts on the trailing axes.  Under
injection at layer b the entries 0..b-1 are bit-identical to a clean pass
(and are the clean pass's own tensors when its trace is handed in); the
noise is applied between trace[b-1] and block b and is not recorded, so
the perturbed input of layer b is trace[b-1] plus the noise the caller
passed in.

Attention runs as one fused tape node for all heads
(``tensor.attention``).  Token id 0 is reserved for padding: each
sequence's pad keys are masked out of its attention scores through an
additive [..., 1, M] key mask, and its pad rows out of the mean pooling.
"""

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .data import PAD_ID
from .errors import ContractError, ShapeError, ValidationError
from .rng import stream_rng
from .tensor import Tensor

ATTN_MASK_VALUE = -1e9
INIT_STD = 0.02
CHECKPOINT_MAGIC = "LNSR1"


@dataclass(frozen=True)
class EncoderConfig:
    """Encoder shape, checked once when built: a config is frozen, and
    ``dataclasses.replace`` builds (and checks) a new one."""

    vocab_size: int = 30
    embed_dim: int = 8
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 16
    max_seq_len: int = 8
    num_classes: int = 2

    def __post_init__(self):
        problems = []
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                problems.append(f"{f.name} must be a positive integer, got {v!r}")
        if isinstance(self.embed_dim, (int, np.integer)) \
                and isinstance(self.num_heads, (int, np.integer)) \
                and self.num_heads >= 1 and self.embed_dim % self.num_heads != 0:
            problems.append(
                f"num_heads must divide embed_dim, got embed_dim={self.embed_dim}"
                f" num_heads={self.num_heads}"
            )
        if problems:
            raise ValidationError("invalid EncoderConfig: " + "; ".join(problems))


# Each block parameter once, in store order: its name, its shape over the
# model width d and the FFN width f, and its initial value ("normal" draws
# N(0, INIT_STD^2) from the init stream).
BLOCK_TABLE = (
    ("wq", "dd", "normal"), ("bq", "d", 0.0),
    ("wk", "dd", "normal"), ("bk", "d", 0.0),
    ("wv", "dd", "normal"), ("bv", "d", 0.0),
    ("wo", "dd", "normal"), ("bo", "d", 0.0),
    ("ln1_gain", "d", 1.0), ("ln1_bias", "d", 0.0),
    ("w1", "df", "normal"), ("b1", "f", 0.0),
    ("w2", "fd", "normal"), ("b2", "d", 0.0),
    ("ln2_gain", "d", 1.0), ("ln2_bias", "d", 0.0),
)
# Parameters of one attention + FFN block (post-norm), in table order.
BlockParams = namedtuple("BlockParams", [name for name, _, _ in BLOCK_TABLE])


@dataclass
class EncoderModel:
    config: EncoderConfig
    tok_emb: Tensor
    pos_emb: Tensor
    blocks: list
    w_head: Tensor
    b_head: Tensor
    # All weights, flat, in parameters() order (None on a frozen copy); each
    # .data is a view of its slice, so write in place: rebinding detaches it.
    store: np.ndarray | None = field(default=None, repr=False, compare=False)

    def parameters(self):
        """All trainable tensors in fixed declaration order (checkpoint order)."""
        return [self.tok_emb, self.pos_emb, *itertools.chain.from_iterable(self.blocks),
                self.w_head, self.b_head]

    def frozen(self) -> "EncoderModel":
        """A view whose weights are constants, so a forward pass on it keeps
        no tape: each intermediate array is freed once the next op has it."""
        def const(t):
            return Tensor(t.data)

        return EncoderModel(
            config=self.config, tok_emb=const(self.tok_emb), pos_emb=const(self.pos_emb),
            blocks=[BlockParams(*map(const, blk)) for blk in self.blocks],
            w_head=const(self.w_head), b_head=const(self.b_head))


@dataclass
class ActivationTrace:
    """Recorded per-layer outputs of one forward pass.

    ``layers[0]`` is the embedding output, ``layers[r]`` the output of
    block r; length num_layers + 1, every entry [M, d] (or [B, M, d] for a
    batch).  ``token_mask`` ([M] or [B, M]) marks non-pad positions (used
    by deviation norms and pooling).
    """

    layers: list
    token_mask: np.ndarray

    def __len__(self):
        return len(self.layers)


def encoder_from_store(config: EncoderConfig, store: np.ndarray | None = None) -> EncoderModel:
    """A model whose parameters are views of the flat float64 ``store``, in
    parameters() order; a zeroed store when none is given.  Draws nothing."""
    d, c = config.embed_dim, config.num_classes
    dims = {"d": d, "f": config.ffn_dim}
    block = [tuple(dims[axis] for axis in axes) for _, axes, _ in BLOCK_TABLE]
    shapes = ([(config.vocab_size, d), (config.max_seq_len, d)]
              + block * config.num_layers + [(d, c), (c,)])
    sizes = [math.prod(shape) for shape in shapes]
    if store is None:
        store = np.zeros(sum(sizes))
    elif store.shape != (sum(sizes),):
        raise ShapeError(f"parameter store shape {store.shape}, expected ({sum(sizes)},)")
    params = [Tensor(store[end - size:end].reshape(shape), requires_grad=True)
              for shape, size, end in zip(shapes, sizes, itertools.accumulate(sizes))]
    n = len(BLOCK_TABLE)
    blocks = [BlockParams(*params[2 + i * n:2 + (i + 1) * n]) for i in range(config.num_layers)]
    return EncoderModel(config=config, tok_emb=params[0], pos_emb=params[1], blocks=blocks,
                        w_head=params[-2], b_head=params[-1], store=store)


def build_encoder(config: EncoderConfig, init_seed: int) -> EncoderModel:
    """Fresh model: each block as ``BLOCK_TABLE`` says, N(0, 0.02^2)
    embeddings and head weights, a zero head bias.  The same ``init_seed``
    yields bit-identical parameters, each weight drawn into its store slice.
    """
    model = encoder_from_store(config)
    drawn = []
    for blk in model.blocks:
        for (_, _, init), w in zip(BLOCK_TABLE, blk):
            if init == "normal":
                drawn.append(w)
            else:
                w.data[:] = init
    # The draw order (each block's weights in table order, then the
    # embeddings and the head) fixes each weight's values: it never changes.
    rng = stream_rng(init_seed, "init")
    for w in drawn + [model.tok_emb, model.pos_emb, model.w_head]:
        rng.standard_normal(out=w.data)
        w.data *= INIT_STD
    return model


def check_data_fits(config: EncoderConfig, examples) -> None:
    """Raise ``ValidationError`` unless the encoder takes every (ids, label)
    example: no sequence longer than ``max_seq_len`` and no token id at or
    above ``vocab_size``.  The message names the field and the value needed."""
    needed = {"max_seq_len": max((len(ids) for ids, _ in examples), default=0),
              "vocab_size": 1 + max((max(ids) for ids, _ in examples if ids), default=-1)}
    for name, need in needed.items():
        if need > getattr(config, name):
            raise ValidationError(f"the data does not fit the encoder: EncoderConfig.{name}"
                                  f" must be >= {need}, got {getattr(config, name)}")


def _pad_tokens(seqs, config: EncoderConfig) -> np.ndarray:
    """[len(seqs), max_seq_len] ids, each sequence left-aligned and padded."""
    full = np.full((len(seqs), config.max_seq_len), PAD_ID, dtype=np.int64)
    for row, seq in zip(full, seqs):
        if not 1 <= len(seq) <= config.max_seq_len:
            raise ContractError(
                f"token sequence length {len(seq)} outside 1..{config.max_seq_len}"
            )
        row[:len(seq)] = seq
    bad = ((full < 0) | (full >= config.vocab_size)).any(axis=1)
    if bad.any():
        seq = np.asarray(seqs[int(np.argmax(bad))]).tolist()
        raise IndexError(f"token id out of range [0, {config.vocab_size}): {seq}")
    return full


def _block(x: Tensor, blk: BlockParams, key_mask: np.ndarray, num_heads: int) -> Tensor:
    q = T.matmul(x, blk.wq, blk.bq)
    k = T.matmul(x, blk.wk, blk.bk)
    v = T.matmul(x, blk.wv, blk.bv)
    att = T.matmul(T.attention(q, k, v, key_mask, num_heads), blk.wo, blk.bo)
    h = T.layernorm(T.add(x, att), blk.ln1_gain, blk.ln1_bias)
    ffn = T.matmul(T.gelu(T.matmul(h, blk.w1, blk.b1)), blk.w2, blk.b2)
    return T.layernorm(T.add(h, ffn), blk.ln2_gain, blk.ln2_bias)


def forward_with_taps(model: EncoderModel, tokens, injection=None, clean=None):
    """Forward pass recording all layer outputs; optional noise injection.

    ``tokens`` is one sequence of ids or a list of B sequences.  One
    sequence gives trace entries [M, d] and logits [num_classes]; a list
    gives entries [B, M, d] and logits [B, num_classes], each sequence
    padded and masked on its own.

    ``injection`` is None or ``(b, noise)`` with 1 <= b <= num_layers and
    noise shaped like a trace entry; the noise is added to the input of
    block b.  ``clean``, a clean trace of the same tokens, lets an injected
    pass reuse its entries 0..b-1 instead of recomputing blocks 1..b-1.
    Returns ``(logits, trace)``.
    """
    cfg = model.config
    single = len(tokens) > 0 and np.ndim(tokens[0]) == 0
    if not single and len(tokens) == 0:
        raise ContractError("empty batch of token sequences")
    ids = _pad_tokens([tokens], cfg)[0] if single else _pad_tokens(tokens, cfg)
    mask = ids != PAD_ID
    n_real = mask.sum(axis=-1)
    if np.any(n_real == 0):
        raise ContractError("token sequence is entirely padding")
    entry_shape = ids.shape + (cfg.embed_dim,)

    noise_t = None
    b = None
    if injection is not None:
        b, noise = injection
        b = int(b)
        if not 1 <= b <= cfg.num_layers:
            raise ContractError(
                f"injection layer {b} outside 1..{cfg.num_layers}"
            )
        noise_t = noise if isinstance(noise, Tensor) else Tensor(noise)
        if noise_t.data.shape != entry_shape:
            raise ShapeError(f"injection noise shape {noise_t.data.shape}, expected {entry_shape}")
    if clean is not None:
        if b is None:
            raise ContractError("a clean trace is reused only by an injected pass")
        if not np.array_equal(clean.token_mask, mask):
            raise ContractError("clean trace comes from different token sequences")

    # Additive key mask [..., 1, M]: pad keys get a large negative score.
    key_mask = np.where(mask, 0.0, ATTN_MASK_VALUE)[..., None, :]

    if clean is not None:
        layers = list(clean.layers[:b])
    else:
        layers = [T.add_bias(T.embedding(model.tok_emb, ids), model.pos_emb)]
    for r in range(len(layers), cfg.num_layers + 1):
        cur = T.add(layers[-1], noise_t) if r == b else layers[-1]
        layers.append(_block(cur, model.blocks[r - 1], key_mask, cfg.num_heads))

    # Mean pooling over real tokens as a [..., 1, M] @ [..., M, d] product.
    pool = np.where(mask, 1.0 / n_real[..., None], 0.0)[..., None, :]
    pooled = T.matmul(Tensor(pool), layers[-1])
    logits = T.reshape(T.matmul(pooled, model.w_head, model.b_head),
                       ids.shape[:-1] + (cfg.num_classes,))
    return logits, ActivationTrace(layers=layers, token_mask=mask)


def save_checkpoint(model: EncoderModel, path):
    """Write header (magic + config as decimal text) then the store as float64 LE."""
    lines = [CHECKPOINT_MAGIC] + [f"{f.name}={int(getattr(model.config, f.name))}"
                                  for f in fields(EncoderConfig)]
    header = ("\n".join(lines) + "\n\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(model.store.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> EncoderModel:
    """Read a ``save_checkpoint`` file; a file that cannot be read, or any
    fault in it, is a ``ValidationError`` naming the file (and the field
    or parameter)."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValidationError(f"checkpoint {path}: cannot read: {exc}") from None
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise ValidationError(f"checkpoint {path}: missing header terminator")
    # A byte that is not ASCII becomes U+FFFD, which no check below accepts.
    head_lines = blob[:sep].decode("ascii", errors="replace").split("\n")
    if head_lines[0] != CHECKPOINT_MAGIC:
        raise ValidationError(
            f"checkpoint {path}: bad magic {head_lines[0]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    # Header keys that are not EncoderConfig fields are ignored, so files
    # that older versions wrote with extra keys still load; but a model
    # saved with a regression head has no classifier to load as.
    header = dict(line.partition("=")[::2] for line in head_lines[1:])
    if header.get("regression", "0") != "0":
        raise ValidationError(f"checkpoint {path}: header field 'regression' is"
                              f" {header['regression']!r}; only classifiers"
                              f" (regression=0) load")
    values = {}
    for f in fields(EncoderConfig):
        if f.name not in header:
            raise ValidationError(f"checkpoint {path}: missing header field {f.name!r}")
        try:
            values[f.name] = int(header[f.name])
        except ValueError:
            raise ValidationError(f"checkpoint {path}: header field {f.name!r} is not"
                                  f" an integer: {header[f.name]!r}") from None
    try:
        cfg = EncoderConfig(**values)
    except ValidationError as exc:
        raise ValidationError(f"checkpoint {path}: {exc}") from None
    model = encoder_from_store(cfg)
    payload = blob[sep + 2:]
    if len(payload) != model.store.nbytes:
        raise ValidationError(
            f"checkpoint {path}: expected {model.store.nbytes} payload bytes,"
            f" found {len(payload)}"
        )
    model.store[:] = np.frombuffer(payload, dtype="<f8")
    bad = nonfinite_parameter(model, model.store)
    if bad:
        raise ValidationError(f"checkpoint {path}: non-finite value in {bad}")
    return model


def nonfinite_parameter(model: EncoderModel, flat: np.ndarray) -> str | None:
    """Name the first parameter (``parameter <i> <shape>``) whose slice of
    ``flat``, laid out as ``model.store``, holds a non-finite value; None
    when every value is finite."""
    finite = np.isfinite(flat)
    if finite.all():
        return None
    params = model.parameters()
    ends = np.cumsum([p.data.size for p in params])
    pos = int(np.searchsorted(ends, np.argmin(finite), side="right"))
    return f"parameter {pos} {params[pos].shape}"
