"""TSV loading, synthetic classification, and synthetic manifolds."""

import numpy as np
import pytest

from lnsrlab.data import (
    FIRST_REAL_ID,
    load_tsv,
    synth_classification,
    synth_manifold,
)
from lnsrlab.errors import ContractError, ValidationError


def write(tmp_path, content, name="data.tsv"):
    p = tmp_path / name
    p.write_text(content, encoding="utf-8")
    return p


def test_load_tsv_basic(tmp_path):
    ds = load_tsv(write(tmp_path, "1\ta b a\n0\tb c\n"))
    assert len(ds) == 2
    assert ds.vocab == {"a": 2, "b": 3, "c": 4}
    assert ds.examples[0] == ([2, 3, 2], 1)
    assert ds.examples[1] == ([3, 4], 0)
    assert ds.num_classes == 2
    assert FIRST_REAL_ID + len(ds.vocab) == 5


def test_load_tsv_frozen_vocab_maps_unknowns(tmp_path):
    train = load_tsv(write(tmp_path, "0\ta b\n1\tc d\n"))
    dev = load_tsv(write(tmp_path, "1\ta zzz\n", name="dev.tsv"), vocab=train.vocab)
    assert dev.examples[0][0] == [train.vocab["a"], 1]
    assert dev.vocab == train.vocab


def test_load_tsv_errors(tmp_path):
    with pytest.raises(ValidationError, match=":1:"):
        load_tsv(write(tmp_path, "notalabel\ta b\n"))
    with pytest.raises(ValidationError, match=":2:"):
        load_tsv(write(tmp_path, "0\ta\nmissing tab here\n"))
    with pytest.raises(ValidationError, match="no examples"):
        load_tsv(write(tmp_path, ""))
    with pytest.raises(ValidationError, match=":1:"):
        load_tsv(write(tmp_path, "0\t\n"))


def test_load_tsv_deterministic(tmp_path):
    p = write(tmp_path, "1\tx y\n0\ty z x\n")
    a, b = load_tsv(p), load_tsv(p)
    assert a.examples == b.examples and a.vocab == b.vocab


def test_synth_classification_counts_and_determinism():
    train, dev = synth_classification(100, 2, 10, 40, 0.8, seed=5)
    assert len(train) == 200
    assert len(dev) == 50
    t2, d2 = synth_classification(100, 2, 10, 40, 0.8, seed=5)
    assert train.examples == t2.examples and dev.examples == d2.examples
    t3, _ = synth_classification(100, 2, 10, 40, 0.8, seed=6)
    assert train.examples != t3.examples


def test_synth_classification_disjoint_splits():
    train, dev = synth_classification(40, 3, 8, 60, 0.7, seed=1)
    train_set = {tuple(ids) for ids, _ in train.examples}
    for ids, _ in dev.examples:
        assert tuple(ids) not in train_set


def test_synth_classification_lengths_and_ids():
    train, dev = synth_classification(30, 2, 9, 30, 0.9, seed=2)
    for ds in (train, dev):
        for ids, label in ds.examples:
            assert 6 <= len(ids) <= 9
            assert all(2 <= t < 30 for t in ids)
            assert label in (0, 1)


def test_margin_one_is_linearly_separable():
    """Class pools are disjoint at margin=1, so bag-of-token counts admit a
    perfect linear rule; verify with a least-squares one-vs-rest fit."""
    train, _ = synth_classification(50, 2, 10, 40, 1.0, seed=3)
    v = FIRST_REAL_ID + len(train.vocab)
    x = np.zeros((len(train), v))
    y = np.zeros(len(train))
    for i, (ids, label) in enumerate(train.examples):
        for t in ids:
            x[i, t] += 1.0
        y[i] = 1.0 if label == 1 else -1.0
    w, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    pred = np.sign(x @ w)
    assert np.all(pred == y)


def test_synth_classification_validation():
    with pytest.raises(ValidationError, match="margin"):
        synth_classification(10, 2, 8, 40, 0.0, seed=0)
    with pytest.raises(ValidationError, match="vocab_size"):
        synth_classification(10, 5, 8, 12, 0.5, seed=0)


def test_synth_manifold_rank_at_zero_curvature():
    ms = synth_manifold(200, 5, 2, 0.0, seed=4)
    centered = ms.points - ms.points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    assert sv[1] > 1e-6
    assert np.all(sv[2:] < 1e-10 * sv[0])


def test_synth_manifold_curvature_raises_rank():
    ms = synth_manifold(200, 5, 2, 0.5, seed=4)
    centered = ms.points - ms.points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    assert sv[2] > 1e-6 * sv[0]


def test_synth_manifold_flat_patch_lle():
    """At curvature 0 the centred cloud has numerical rank exactly k_true."""
    for d, k_true, seed in ((8, 2, 7), (6, 1, 3), (12, 5, 11)):
        ms = synth_manifold(200, d, k_true, 0.0, seed=seed)
        sv = np.linalg.svd(ms.points - ms.points.mean(axis=0), compute_uv=False)
        assert np.count_nonzero(sv > 1e-10 * sv[0]) == k_true


def test_synth_manifold_determinism_and_contracts():
    a = synth_manifold(50, 6, 3, 0.2, seed=9)
    b = synth_manifold(50, 6, 3, 0.2, seed=9)
    assert np.array_equal(a.points, b.points)
    with pytest.raises(ContractError):
        synth_manifold(50, 4, 4, 0.0, seed=0)
