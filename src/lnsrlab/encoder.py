"""Toy transformer encoder with noise-injection and activation-recording taps.

The model is a stack of post-norm attention/FFN blocks over learned token
plus positional embeddings, mean-pooled into a classification or regression
head.  ``forward_with_taps`` records the embedding output and every block
output in an :class:`ActivationTrace` and can add a caller-supplied noise
matrix to the input of any block b (b = 1 perturbs the embedding output).

Trace semantics: entry 0 is the embedding output, entry r the output of
block r, every entry [M, d].  Under injection at layer b the entries
0..b-1 are bit-identical to a clean pass; the noise is applied between
trace[b-1] and block b and is stored on the trace, so the perturbed input
of layer b is reconstructed as trace[b-1] + injected_noise.

Token id 0 is reserved for padding: pad positions are masked out of
attention scores and of the mean pooling.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError, ValidationError
from .rng import stream_rng
from .tensor import Tensor

PAD_ID = 0
ATTN_MASK_VALUE = -1e9
INIT_STD = 0.02
CHECKPOINT_MAGIC = "LNSR1"


@dataclass
class EncoderConfig:
    vocab_size: int = 50
    embed_dim: int = 8
    num_layers: int = 2
    num_heads: int = 2
    ffn_dim: int = 16
    max_seq_len: int = 12
    num_classes: int = 2
    regression: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self):
        problems = []
        for name in ("vocab_size", "embed_dim", "num_layers", "num_heads",
                     "ffn_dim", "max_seq_len", "num_classes"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                problems.append(f"{name} must be a positive integer, got {v!r}")
        if isinstance(self.embed_dim, int) and isinstance(self.num_heads, int) \
                and self.num_heads >= 1 and self.embed_dim % self.num_heads != 0:
            problems.append(
                f"num_heads must divide embed_dim, got embed_dim={self.embed_dim}"
                f" num_heads={self.num_heads}"
            )
        if problems:
            raise ValidationError("invalid EncoderConfig: " + "; ".join(problems))

    @property
    def num_outputs(self) -> int:
        return 1 if self.regression else self.num_classes


@dataclass
class BlockParams:
    """Parameters of one attention + FFN block (post-norm)."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor

    def parameters(self):
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
                self.wo, self.bo, self.ln1_gain, self.ln1_bias,
                self.w1, self.b1, self.w2, self.b2, self.ln2_gain, self.ln2_bias]


@dataclass
class EncoderModel:
    config: EncoderConfig
    tok_emb: Tensor
    pos_emb: Tensor
    blocks: list
    w_head: Tensor
    b_head: Tensor

    def parameters(self):
        """All trainable tensors in fixed declaration order (checkpoint order)."""
        params = [self.tok_emb, self.pos_emb]
        for blk in self.blocks:
            params.extend(blk.parameters())
        params.extend([self.w_head, self.b_head])
        return params

    @property
    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())


@dataclass
class ActivationTrace:
    """Recorded per-layer outputs of one forward pass.

    ``layers[0]`` is the embedding output, ``layers[r]`` the output of
    block r; length num_layers + 1, every entry [M, d].  ``token_mask``
    marks non-pad positions (used by deviation norms and pooling).
    """

    layers: list
    token_mask: np.ndarray
    injected_layer: int | None = None
    injected_noise: Tensor | None = None

    def __len__(self):
        return len(self.layers)

    def perturbed_input_of(self, layer: int) -> np.ndarray:
        """Value fed into block ``layer`` on this pass (noise applied if any)."""
        if not 1 <= layer <= len(self.layers) - 1:
            raise ContractError(f"layer {layer} outside 1..{len(self.layers) - 1}")
        base = self.layers[layer - 1].data
        if self.injected_layer == layer and self.injected_noise is not None:
            return base + self.injected_noise.data
        return base


def _gauss(rng, shape):
    return Tensor(rng.normal(0.0, INIT_STD, size=shape), requires_grad=True)


def _zeros(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape):
    return Tensor(np.ones(shape), requires_grad=True)


def build_encoder(config: EncoderConfig, init_seed: int) -> EncoderModel:
    """Fresh model with N(0, 0.02^2) weights, zero biases, unit norm gains.

    Deterministic: the same ``init_seed`` yields bit-identical parameters.
    """
    config.validate()
    rng = stream_rng(init_seed, "init")
    d, f = config.embed_dim, config.ffn_dim
    blocks = []
    for _ in range(config.num_layers):
        blocks.append(BlockParams(
            wq=_gauss(rng, (d, d)), bq=_zeros(d),
            wk=_gauss(rng, (d, d)), bk=_zeros(d),
            wv=_gauss(rng, (d, d)), bv=_zeros(d),
            wo=_gauss(rng, (d, d)), bo=_zeros(d),
            ln1_gain=_ones(d), ln1_bias=_zeros(d),
            w1=_gauss(rng, (d, f)), b1=_zeros(f),
            w2=_gauss(rng, (f, d)), b2=_zeros(d),
            ln2_gain=_ones(d), ln2_bias=_zeros(d),
        ))
    return EncoderModel(
        config=config,
        tok_emb=_gauss(rng, (config.vocab_size, d)),
        pos_emb=_gauss(rng, (config.max_seq_len, d)),
        blocks=blocks,
        w_head=_gauss(rng, (d, config.num_outputs)),
        b_head=_zeros(config.num_outputs),
    )


def _pad_tokens(tokens, config: EncoderConfig) -> np.ndarray:
    ids = np.asarray(tokens, dtype=np.int64).reshape(-1)
    if ids.shape[0] == 0 or ids.shape[0] > config.max_seq_len:
        raise ContractError(
            f"token sequence length {ids.shape[0]} outside 1..{config.max_seq_len}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise IndexError(f"token id out of range [0, {config.vocab_size}): {ids.tolist()}")
    full = np.full(config.max_seq_len, PAD_ID, dtype=np.int64)
    full[:ids.shape[0]] = ids
    return full


def _attention(x: Tensor, blk: BlockParams, mask_add: np.ndarray, num_heads: int) -> Tensor:
    d = x.data.shape[1]
    dh = d // num_heads
    q = T.add_bias(T.matmul(x, blk.wq), blk.bq)
    k = T.add_bias(T.matmul(x, blk.wk), blk.bk)
    v = T.add_bias(T.matmul(x, blk.wv), blk.bv)
    mask_t = Tensor(mask_add)
    heads = []
    for h in range(num_heads):
        lo, hi = h * dh, (h + 1) * dh
        qh = T.slice_cols(q, lo, hi)
        kh = T.slice_cols(k, lo, hi)
        vh = T.slice_cols(v, lo, hi)
        scores = T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(dh))
        att = T.softmax(T.add(scores, mask_t))
        heads.append(T.matmul(att, vh))
    ctx = heads[0] if num_heads == 1 else T.concat_cols(heads)
    return T.add_bias(T.matmul(ctx, blk.wo), blk.bo)


def _block(x: Tensor, blk: BlockParams, mask_add: np.ndarray, num_heads: int) -> Tensor:
    h = T.layernorm(T.add(x, _attention(x, blk, mask_add, num_heads)),
                    blk.ln1_gain, blk.ln1_bias)
    ffn = T.add_bias(T.matmul(T.gelu(T.add_bias(T.matmul(h, blk.w1), blk.b1)), blk.w2), blk.b2)
    return T.layernorm(T.add(h, ffn), blk.ln2_gain, blk.ln2_bias)


def forward_with_taps(model: EncoderModel, tokens, injection=None):
    """Forward pass recording all layer outputs; optional noise injection.

    ``injection`` is None or ``(b, noise)`` with 1 <= b <= num_layers and
    noise of shape [max_seq_len, embed_dim]; the noise is added to the
    input of block b.  Returns ``(logits, trace)`` with logits of shape
    [num_classes] ([1] for regression).
    """
    cfg = model.config
    ids = _pad_tokens(tokens, cfg)
    mask = ids != PAD_ID
    n_real = int(mask.sum())
    if n_real == 0:
        raise ContractError("token sequence is entirely padding")

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
        want = (cfg.max_seq_len, cfg.embed_dim)
        if noise_t.data.shape != want:
            raise ShapeError(f"injection noise shape {noise_t.data.shape}, expected {want}")

    # Additive attention mask: pad keys get a large negative score.
    mask_add = np.where(mask, 0.0, ATTN_MASK_VALUE)[None, :].repeat(cfg.max_seq_len, axis=0)

    x = T.add(T.embedding(model.tok_emb, ids), model.pos_emb)
    layers = [x]
    cur = x
    for r in range(1, cfg.num_layers + 1):
        if b == r:
            cur = T.add(cur, noise_t)
        cur = _block(cur, model.blocks[r - 1], mask_add, cfg.num_heads)
        layers.append(cur)

    pool = np.where(mask, 1.0 / n_real, 0.0)[None, :]
    pooled = T.matmul(Tensor(pool), layers[-1])
    logits = T.reshape(T.add_bias(T.matmul(pooled, model.w_head), model.b_head),
                       (cfg.num_outputs,))
    trace = ActivationTrace(layers=layers, token_mask=mask,
                            injected_layer=b, injected_noise=noise_t)
    return logits, trace


def save_checkpoint(model: EncoderModel, path):
    """Write header (magic + config as decimal text) then float64 LE params."""
    cfg = model.config
    lines = [CHECKPOINT_MAGIC]
    lines.append(f"vocab_size={cfg.vocab_size}")
    lines.append(f"embed_dim={cfg.embed_dim}")
    lines.append(f"num_layers={cfg.num_layers}")
    lines.append(f"num_heads={cfg.num_heads}")
    lines.append(f"ffn_dim={cfg.ffn_dim}")
    lines.append(f"max_seq_len={cfg.max_seq_len}")
    lines.append(f"num_classes={cfg.num_classes}")
    lines.append(f"regression={int(cfg.regression)}")
    header = ("\n".join(lines) + "\n\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for p in model.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> EncoderModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = blob.find(b"\n\n")
    if sep < 0:
        raise ContractError(f"checkpoint {path}: missing header terminator")
    head_lines = blob[:sep].decode("ascii").split("\n")
    if head_lines[0] != CHECKPOINT_MAGIC:
        raise ContractError(
            f"checkpoint {path}: bad magic {head_lines[0]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    # Header keys not read below are ignored, so files that older versions
    # wrote with extra keys still load.
    fields = {}
    for line in head_lines[1:]:
        key, _, val = line.partition("=")
        fields[key] = val
    try:
        cfg = EncoderConfig(
            vocab_size=int(fields["vocab_size"]),
            embed_dim=int(fields["embed_dim"]),
            num_layers=int(fields["num_layers"]),
            num_heads=int(fields["num_heads"]),
            ffn_dim=int(fields["ffn_dim"]),
            max_seq_len=int(fields["max_seq_len"]),
            num_classes=int(fields["num_classes"]),
            regression=bool(int(fields["regression"])),
        )
    except KeyError as exc:
        raise ContractError(f"checkpoint {path}: missing header field {exc}") from exc
    model = build_encoder(cfg, init_seed=0)
    payload = blob[sep + 2:]
    if len(payload) != model.param_count * 8:
        raise ContractError(
            f"checkpoint {path}: expected {model.param_count * 8} payload bytes,"
            f" found {len(payload)}"
        )
    offset = 0
    for p in model.parameters():
        n = p.data.size
        p.data = np.frombuffer(payload, dtype="<f8", count=n, offset=offset) \
            .reshape(p.data.shape).copy()
        offset += n * 8
    return model
