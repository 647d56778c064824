"""Dataset loading and synthetic generators.

Two synthetic families cover the lab's needs: a token-classification task
with tunable class separability (class-specific token pools mixed with a
shared pool under a ``margin`` probability), and point clouds on smooth
low-dimensional manifolds embedded in R^d (a linear patch plus an optional
quadratic bend) for the geometry diagnostics.  ``DataConfig`` picks a
run's train and dev sets: the classification task or two TSV files.

Token id conventions are fixed for checkpoint portability: 0 = padding,
1 = unknown, real tokens from 2 upward in first-appearance order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .rng import stream_rng

PAD_ID = 0
UNK_ID = 1
FIRST_REAL_ID = 2


@dataclass
class TextDataset:
    """Tokenized examples with a frozen vocabulary.

    ``examples`` holds (token-id list, integer label) pairs, unpadded; true
    lengths are the list lengths.  ``num_classes`` is one more than the
    largest label the data can hold.
    """

    examples: list
    vocab: dict
    num_classes: int

    def __len__(self):
        return len(self.examples)


def load_tsv(path, vocab: dict | None = None) -> TextDataset:
    """Parse lines of "label<TAB>text" with whitespace tokenization.

    With ``vocab=None`` the vocabulary is built from this file (the train
    convention); passing an existing vocabulary freezes it and maps unseen
    tokens to the unknown id (the dev convention).  A file that cannot be
    read or is not UTF-8 raises ``ValidationError`` naming it.
    """
    freeze = vocab is not None
    vocab = dict(vocab) if freeze else {}
    examples = []
    max_label = -1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        label_text, sep, text = line.partition("\t")
        if not sep:
            raise ValidationError(f"{path}:{lineno}: expected 'label<TAB>text'")
        try:
            label = int(label_text)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: label {label_text!r} is not an integer"
            ) from None
        if label < 0:
            raise ValidationError(f"{path}:{lineno}: negative label {label}")
        tokens = text.split()
        if not tokens:
            raise ValidationError(f"{path}:{lineno}: empty text")
        ids = []
        for tok in tokens:
            if tok not in vocab:
                if freeze:
                    ids.append(UNK_ID)
                    continue
                vocab[tok] = FIRST_REAL_ID + len(vocab)
            ids.append(vocab[tok])
        examples.append((ids, label))
        max_label = max(max_label, label)
    if not examples:
        raise ValidationError(f"{path}: no examples found")
    return TextDataset(examples=examples, vocab=vocab, num_classes=max_label + 1)


@dataclass(frozen=True)
class DataConfig:
    """Where a run's train and dev sets come from: the synthetic
    classification task these fields shape, or two TSV files when
    ``train_path`` and ``dev_path`` are set (the dev file shares the train
    file's vocabulary); one path without the other is rejected."""

    n_per_class: int = 16
    num_classes: int = 2
    seq_len: int = 8
    margin: float = 0.6
    seed: int = 0
    train_path: str | None = None
    dev_path: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"[data] seed must be >= 0, got {self.seed}")
        if self.train_path and not self.dev_path:
            raise ValidationError("data.train_path given without data.dev_path")
        if self.dev_path and not self.train_path:
            raise ValidationError("data.dev_path given without data.train_path")

    def datasets(self, vocab_size: int):
        """Train/dev datasets: TSV files when paths are given, else synthetic
        over ``vocab_size`` token ids."""
        if self.train_path:
            train = load_tsv(self.train_path)
            return train, load_tsv(self.dev_path, vocab=train.vocab)
        return synth_classification(self.n_per_class, self.num_classes, self.seq_len,
                                    vocab_size, self.margin, self.seed)


@dataclass
class SyntheticManifoldSet:
    points: np.ndarray


def synth_classification(n_per_class: int, num_classes: int, seq_len: int,
                         vocab_size: int, margin: float, seed: int):
    """Synthetic classification task with tunable separability.

    The usable vocabulary splits into ``num_classes`` disjoint class pools
    plus a shared pool; each token of a class-c example comes from pool c
    with probability ``margin``, otherwise from the shared pool.  At
    margin=1 a bag-of-tokens linear classifier separates the classes
    perfectly.  Returns disjoint (train, dev) datasets; dev holds
    ``n_per_class // 4`` (at least 1) examples per class.

    The draw order on the ``(seed, "data")`` stream fixes the bits: per
    example an ``integers`` draw for its length, then per token a
    ``random()`` draw that picks the pool and an ``integers(len(pool))``
    draw that picks the token in it; train class by class, then dev.
    """
    if n_per_class < 1 or num_classes < 2 or seq_len < 4:
        raise ValidationError(
            f"need n_per_class >= 1, num_classes >= 2, seq_len >= 4;"
            f" got {n_per_class}, {num_classes}, {seq_len}"
        )
    if not 0.0 < margin <= 1.0:
        raise ValidationError(f"margin must be in (0, 1], got {margin}")
    usable = vocab_size - FIRST_REAL_ID
    pool_size = usable // (num_classes + 1)
    if pool_size < 2:
        raise ValidationError(
            f"vocab_size {vocab_size} too small for {num_classes} class pools"
            f" plus a shared pool (need >= {FIRST_REAL_ID + 2 * (num_classes + 1)})"
        )
    pools = [range(FIRST_REAL_ID + c * pool_size, FIRST_REAL_ID + (c + 1) * pool_size)
             for c in range(num_classes)]
    shared = range(FIRST_REAL_ID + num_classes * pool_size, vocab_size)
    rng = stream_rng(seed, "data")

    def draw_example(label):
        length = int(rng.integers(max(1, seq_len - 3), seq_len + 1))
        ids = []
        for _ in range(length):
            pool = pools[label] if rng.random() < margin else shared
            ids.append(pool[rng.integers(len(pool))])
        return ids

    train_examples = []
    seen = set()
    for label in range(num_classes):
        for _ in range(n_per_class):
            ids = draw_example(label)
            train_examples.append((ids, label))
            seen.add(tuple(ids))

    n_dev = max(1, n_per_class // 4)
    dev_examples = []
    for label in range(num_classes):
        made = 0
        attempts = 0
        while made < n_dev:
            attempts += 1
            if attempts > 200 * n_dev:
                raise ContractError(
                    "could not draw dev examples disjoint from train;"
                    " increase vocab_size or seq_len"
                )
            ids = draw_example(label)
            if tuple(ids) in seen:
                continue
            seen.add(tuple(ids))
            dev_examples.append((ids, label))
            made += 1

    vocab = {f"tok{i}": i for i in range(FIRST_REAL_ID, vocab_size)}
    return (TextDataset(examples=train_examples, vocab=vocab, num_classes=num_classes),
            TextDataset(examples=dev_examples, vocab=vocab, num_classes=num_classes))


def synth_manifold(n: int, d: int, k_true: int, curvature: float, seed: int) -> SyntheticManifoldSet:
    """Points on a smooth k_true-dimensional patch embedded in R^d.

    Latent coordinates are uniform on [-1, 1]^k_true, mapped through a
    fixed orthonormal linear embedding plus a ``curvature``-scaled
    quadratic bend into directions orthogonal to the patch.  At
    curvature=0 the centered point cloud has numerical rank exactly
    k_true.
    """
    if k_true >= d:
        raise ContractError(f"k_true must be < d, got k_true={k_true} d={d}")
    if k_true < 1 or n < 2:
        raise ContractError(f"need k_true >= 1 and n >= 2, got {k_true}, {n}")
    rng = stream_rng(seed, "data")
    # Orthonormal frame: first k_true directions carry the patch, the rest
    # receive the quadratic bend so it never hides inside the linear span.
    frame = np.linalg.qr(rng.normal(size=(d, min(d, 2 * k_true))))[0]
    lin = frame[:, :k_true].T
    bend_dirs = frame[:, k_true:].T
    z = rng.uniform(-1.0, 1.0, size=(n, k_true))
    points = z @ lin
    if curvature != 0.0:
        quad = z * z  # [n, k_true]
        m = bend_dirs.shape[0]
        coupling = rng.normal(size=(k_true, m)) / np.sqrt(k_true)
        points = points + curvature * (quad @ coupling) @ bend_dirs
    return SyntheticManifoldSet(points=points)
