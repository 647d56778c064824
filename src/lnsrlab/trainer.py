"""Training loop with per-example noise injection and the multi-seed harness.

One run: Adam with bias correction, linear warmup then linear decay to
zero, and per batch one batched clean forward pass plus (in noisy modes)
one batched perturbed pass that reuses the clean entries below the
injection layer and whose trace deviation feeds the penalty; one backward
pass per batch gives the mean per-example gradient.
After each epoch one frozen forward pass over the train and dev sets
together scores both, each set from its own rows of the logits.

Randomness discipline: weight init, data order, and noise each draw from
their own named stream of the run seed, and the noise stream is further
split per (epoch, example position).  Ablation modes therefore see
bit-identical data order and init, and the same standard noise, which
in-manifold noise projects: mode comparisons are paired rather than
confounded.
"""

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .data import TextDataset
from .encoder import (EncoderConfig, EncoderModel, build_encoder, check_data_fits,
                      forward_with_taps, nonfinite_parameter)
from .errors import ContractError, ValidationError
from .manifold import DEFAULT_K, build_index, neighborhood_bases
from .noise import NoiseSpec, rescale_relative_rows
from .objective import (
    MODE_NOISE,
    MODES,
    NOISY_MODES,
    PENALTY_MODES,
    RegularizerConfig,
    assemble_objective,
    lnsr_term,
)
from .rng import substream_rng

# Adam's moment decays and guard, and the warmup's share of the steps: fixed.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WARMUP_RATIO = 0.06


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-3
    batch_size: int = 8
    epochs: int = 2
    seed: int = 0
    knn_k: int = DEFAULT_K
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    reg: RegularizerConfig = field(default_factory=RegularizerConfig)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValidationError(f"TrainConfig.lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValidationError(
                f"TrainConfig: batch_size and epochs must be >= 1,"
                f" got {self.batch_size}, {self.epochs}"
            )
        if self.seed < 0:
            raise ValidationError(f"TrainConfig.seed must be >= 0, got {self.seed}")
        if self.knn_k < 1:
            raise ValidationError(f"TrainConfig.knn_k must be >= 1, got {self.knn_k}")
        mode = self.reg.mode
        if mode in PENALTY_MODES \
                and self.noise.mode not in (MODE_NOISE[mode], "none"):
            raise ValidationError(f"{mode} pairs with {MODE_NOISE[mode]} or none noise")
        if mode in NOISY_MODES and self.noise.mode == "in_manifold" \
                and self.reg.injection_layer > 1:
            # Bases come from token-embedding neighbourhoods, which describe
            # the embedding output only, not a hidden state further up.
            raise ValidationError(
                f"in_manifold noise needs injection_layer 1, got {self.reg.injection_layer}"
            )


def adam_step(store: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float):
    """One Adam update at learning rate ``lr``, with bias correction, in
    place on the flat parameter ``store`` and moments ``m`` and ``v``."""
    if t < 1:
        raise ContractError(f"adam_step: t must be >= 1, got {t}")
    if not store.shape == grad.shape == m.shape == v.shape:
        raise ContractError(f"adam_step: shapes {store.shape} {grad.shape} {m.shape} {v.shape}")
    m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    mhat = m / (1.0 - ADAM_BETA1 ** t)
    vhat = v / (1.0 - ADAM_BETA2 ** t)
    store -= lr * (mhat / (np.sqrt(vhat) + ADAM_EPS))


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear warmup over ceil(WARMUP_RATIO * total) steps, then linear decay to 0."""
    if not 0 <= step <= total_steps:
        raise ContractError(f"lr_at: step {step} outside 0..{total_steps}")
    if step == total_steps:
        return 0.0
    warm = math.ceil(WARMUP_RATIO * total_steps)
    if step <= warm:
        return base_lr * step / warm
    return base_lr * (total_steps - step) / (total_steps - warm)


@dataclass
class RunResult:
    seed: int
    mode: str
    epoch_train_loss: list
    epoch_train_metric: list
    epoch_dev_metric: list
    final_train_metric: float
    final_dev_metric: float
    generalization_gap: float
    wall_time_seconds: float
    # Snapshot of trained weights, in declaration order.  Kept so callers can
    # compare runs bit-for-bit or hand the weights to diagnostics.
    final_params: list = field(default_factory=list, repr=False)


def _require_finite(named_arrays, where: str, examples):
    """Raise naming the first example (a row along axis 0 of every array)
    holding a non-finite value, and the first named array it shows up in."""
    found = None
    for name, arr in named_arrays:
        bad = ~np.isfinite(arr.reshape(arr.shape[0], -1)).all(axis=1)
        row = int(np.argmax(bad))
        if bad[row] and (found is None or row < found[0]):
            found = (row, name)
    if found is not None:
        raise ContractError(
            f"non-finite {found[1]} at {where}, example {int(examples[found[0]])}")


def evaluate(model: EncoderModel, **datasets) -> list:
    """The accuracy of each named dataset, in argument order, from one
    batched forward pass over all of them; each set's accuracy comes from
    its own rows of the logits.

    The joint pass equals separate passes bit for bit when every matmul
    splits its rows into the same BLAS blocks both ways, as OpenBLAS does
    at ``max_seq_len`` 8 with a multiple of 8 sequences before the last set.
    Elsewhere a row can round by its place in the matrix, so logits may
    differ from separate passes in the last bits.

    A non-finite logit raises ``ContractError`` naming the set and the
    example's index within it.
    """
    ids = [ex[0] for ds in datasets.values() for ex in ds.examples]
    logits, _ = forward_with_taps(model.frozen(), ids)
    metrics, start = [], 0
    for name, ds in datasets.items():
        n = len(ds.examples)
        if n == 0:
            raise ContractError(f"evaluation of {name}: no examples")
        rows, start = logits.data[start:start + n], start + n
        _require_finite([("logits", rows)], f"evaluation of {name}", np.arange(n))
        labels = np.array([ex[1] for ex in ds.examples])
        metrics.append(int((np.argmax(rows, axis=-1) == labels).sum()) / n)
    return metrics


def _noise_batch(model: EncoderModel, ids, clean_input: np.ndarray, mask: np.ndarray,
                 cfg: TrainConfig, rngs) -> np.ndarray:
    """Per-token noise for a [B, M, d] batch, one generator per sequence.

    Every noisy kind draws a sequence's whole [M, d] block of N(0, sigma^2)
    values at once.  In-manifold noise then projects each live row onto
    the span of its token's vocabulary-neighbourhood basis B, by P = B^T B
    (P = I where the neighbourhood is degenerate: the Gaussian fallback);
    since B g ~ N(0, sigma^2 I_m), this has the law of
    ``sample_inmanifold_noise``'s coefficient draw.  So a seed's in-manifold
    noise is the projection of the standard noise that seed draws.  The
    projectors of the batch's distinct tokens come from one batched
    ``neighborhood_bases`` call, and rows are matched to tokens by sequence
    length, not by the pad mask.  Every kind then zeroes pad rows and,
    with ``rel_magnitude`` set, rescales each row against its clean row.
    """
    spec = cfg.noise
    if spec.mode == "none":
        return np.zeros_like(clean_input)
    eps = np.stack([rng.normal(0.0, spec.sigma, size=clean_input.shape[1:]) for rng in rngs])
    if spec.mode == "in_manifold":
        index = build_index(model.tok_emb.data)
        # Distinct tokens, and each position's index among them, by a mask:
        # np.unique would fault in about 1 MB more code pages and raise the
        # process's peak RSS.
        tokens = np.concatenate(ids).astype(np.int64)
        present = np.zeros(index.n, dtype=bool)
        present[tokens] = True
        toks, which = np.flatnonzero(present), np.cumsum(present)[tokens] - 1
        bases, sizes = neighborhood_bases(index, index.vectors[toks], k=cfg.knn_k)
        proj = bases.mT @ bases
        proj[sizes == 0] = np.eye(clean_input.shape[-1])
        live = np.arange(eps.shape[1]) < np.array([len(seq) for seq in ids])[:, None]
        eps[live] = np.matmul(eps[live][:, None, :], proj[which])[:, 0]
    eps[~mask] = 0.0
    if spec.rel_magnitude is not None:
        target = np.where(mask[..., None], clean_input, 0.0)
        eps = rescale_relative_rows(eps, target, spec.rel_magnitude)
    return eps


def _batch_backward(model: EncoderModel, train_ds: TextDataset, batch, cfg: TrainConfig,
                    epoch: int, start: int, where: str) -> float:
    """Clean pass, perturbed pass and objective for one batch, then one
    backward pass that leaves the mean per-example gradient in ``.grad``.

    Returns the objective summed over the batch and that gradient, flat in
    store order.  The tape is freed when this returns, before the next
    batch builds its own.
    """
    mode, b = cfg.reg.mode, cfg.reg.injection_layer
    ids = [train_ds.examples[int(i)][0] for i in batch]
    labels = np.array([train_ds.examples[int(i)][1] for i in batch])
    logits_c, clean = forward_with_taps(model, ids)
    _require_finite([(f"clean trace entry {r}", e.data) for r, e in enumerate(clean.layers)]
                    + [("clean logits", logits_c.data)], where, batch)
    logits_p, r_term, per_layer = None, None, None
    if mode in NOISY_MODES:
        rngs = [substream_rng(cfg.seed, "noise", epoch, start + j) for j in range(len(batch))]
        eps = _noise_batch(model, ids, clean.layers[b - 1].data, clean.token_mask, cfg, rngs)
        # Noise that overflows this pass is reported by the check below, which
        # names the epoch, step and example; numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            logits_p, pert = forward_with_taps(model, ids, injection=(b, eps), clean=clean)
        _require_finite([(f"perturbed trace entry {r}", pert.layers[r].data)
                         for r in range(b, len(pert.layers))]
                        + [("perturbed logits", logits_p.data)], where, batch)
        if mode in PENALTY_MODES:
            r_term, per_layer = lnsr_term(clean, pert, cfg.reg)
    obj, _ = assemble_objective(logits_c, logits_p, labels, r_term, mode, per_layer_terms=per_layer)
    if not np.isfinite(obj.data):
        # The loss is one sum over the batch, so it names them all.
        raise ContractError(f"non-finite loss at {where}, examples {batch.tolist()}")
    T.backward(obj, seed_grad=1.0 / len(batch))
    # Gathered while the tape is alive, the gradient lands above it on the heap,
    # so malloc cannot trim the freed tape and the next batch does not refault it.
    return obj.item(), np.concatenate([p.grad.data for p in model.parameters()], axis=None)


def check_run(model_cfg: EncoderConfig, train_ds: TextDataset,
              dev_ds: TextDataset, *cfgs: TrainConfig):
    """Raise ``ValidationError`` if ``run_training`` would reject its
    arguments, with any of the training configs ``cfgs``, before its first
    step: a training config that does not fit the encoder, or a dataset
    with more classes or token ids than the encoder has, or a longer
    sequence."""
    for cfg in cfgs:
        if cfg.reg.mode in NOISY_MODES and cfg.noise.mode == "in_manifold" \
                and model_cfg.vocab_size < cfg.knn_k + 1:
            raise ValidationError(
                f"in-manifold mode needs vocab_size >= knn_k + 1"
                f" ({model_cfg.vocab_size} < {cfg.knn_k + 1})"
            )
        b = cfg.reg.injection_layer
        if not 1 <= b <= model_cfg.num_layers:
            raise ValidationError(
                f"injection_layer {b} outside 1..{model_cfg.num_layers}"
            )
        try:
            # A weight list must fit the encoder even in a mode that never reads it.
            cfg.reg.resolved_lambdas(model_cfg.num_layers - b + 1)
        except ContractError as exc:
            raise ValidationError(str(exc)) from None
    classes = max(train_ds.num_classes, dev_ds.num_classes)
    if classes > model_cfg.num_classes:
        raise ValidationError(
            f"the data has {classes} classes: EncoderConfig.num_classes must be"
            f" >= {classes}, got {model_cfg.num_classes}"
        )
    check_data_fits(model_cfg, train_ds.examples)
    check_data_fits(model_cfg, dev_ds.examples)


def run_training(model_cfg: EncoderConfig, train_ds: TextDataset,
                 dev_ds: TextDataset, cfg: TrainConfig) -> RunResult:
    """One deterministic training run; see module docstring for the loop.

    A non-finite activation, loss or gradient raises ``ContractError``
    naming the epoch and the global step, and the first bad example (an
    activation) or the batch's examples (the loss and gradients, which are
    sums over the batch).  Arguments that ``check_run`` rejects raise its
    ``ValidationError``.
    """
    check_run(model_cfg, train_ds, dev_ds, cfg)
    started = time.perf_counter()
    model = build_encoder(model_cfg, cfg.seed)
    params = model.parameters()
    m, v = np.zeros_like(model.store), np.zeros_like(model.store)
    n = len(train_ds.examples)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    global_step = 0

    epoch_train_loss, epoch_train_metric, epoch_dev_metric = [], [], []
    for epoch in range(cfg.epochs):
        order = substream_rng(cfg.seed, "order", epoch).permutation(n)
        running = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            where = f"epoch {epoch}, step {global_step + 1}"
            T.zero_grads(params)
            loss, grad = _batch_backward(model, train_ds, batch, cfg, epoch, start, where)
            running.append(loss)
            global_step += 1
            bad = nonfinite_parameter(model, grad)
            if bad:
                raise ContractError(f"non-finite gradient of {bad} at {where},"
                                    f" examples {batch.tolist()}")
            step_lr = lr_at(global_step, total_steps, cfg.lr)
            adam_step(model.store, grad, m, v, global_step, lr=step_lr)
        try:
            train_metric, dev_metric = evaluate(model, train=train_ds, dev=dev_ds)
        except ContractError as exc:
            raise ContractError(f"{exc} (after epoch {epoch}, step {global_step})") from exc
        epoch_train_loss.append(math.fsum(running) / n)
        epoch_train_metric.append(train_metric)
        epoch_dev_metric.append(dev_metric)

    gap = epoch_train_metric[-1] - epoch_dev_metric[-1]
    return RunResult(
        seed=cfg.seed, mode=cfg.reg.mode,
        epoch_train_loss=epoch_train_loss,
        epoch_train_metric=epoch_train_metric,
        epoch_dev_metric=epoch_dev_metric,
        final_train_metric=epoch_train_metric[-1],
        final_dev_metric=epoch_dev_metric[-1],
        generalization_gap=gap,
        wall_time_seconds=time.perf_counter() - started,
        final_params=[p.data.copy() for p in params],
    )


@dataclass
class MultiSeedResult:
    per_seed: list
    dev_mean: float
    dev_std: float
    dev_max: float
    gap_mean: float
    gap_std: float
    gap_max: float


def config_for_mode(base_cfg: TrainConfig, mode: str) -> TrainConfig:
    """Variant of ``base_cfg`` running the given objective mode.

    Keeps scales (sigma, relative magnitude, injection layer, lambda) from
    the base config and flips only the mode pair: plain fine-tuning turns
    noise off, the noisy modes select the matching sampler.
    """
    if mode not in MODES:
        raise ValidationError(f"config_for_mode: {mode!r} not in {MODES}")
    return replace(base_cfg,
                   noise=replace(base_cfg.noise, mode=MODE_NOISE[mode]),
                   reg=replace(base_cfg.reg, mode=mode))


def multi_seed(model_cfg: EncoderConfig, train_ds: TextDataset,
               dev_ds: TextDataset, base_cfg: TrainConfig, seeds) -> MultiSeedResult:
    """Repeat one configuration across seeds; mean / sample std / max stats."""
    seeds = list(seeds)
    if len(seeds) < 2:
        raise ContractError(f"multi_seed: need at least 2 seeds, got {len(seeds)}")
    runs = [run_training(model_cfg, train_ds, dev_ds, replace(base_cfg, seed=s))
            for s in seeds]
    devs = np.array([r.final_dev_metric for r in runs])
    gaps = np.array([r.generalization_gap for r in runs])
    return MultiSeedResult(
        per_seed=runs,
        dev_mean=float(devs.mean()), dev_std=float(devs.std(ddof=1)), dev_max=float(devs.max()),
        gap_mean=float(gaps.mean()), gap_std=float(gaps.std(ddof=1)), gap_max=float(gaps.max()),
    )
