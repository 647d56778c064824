"""Measurement tools built on top of the encoder.

Three instruments live here:

* error-ratio curves: how far a perturbed forward pass drifts from the
  clean one, layer by layer, as a fraction of the clean activation norm;
* PCA spectra of noise batches, for contrasting isotropic draws with
  draws confined to a low-dimensional neighborhood;
* micro-benchmarks of the noise pipeline with fitted scaling exponents.

Everything returns plain data; CSV serialization lives with the CLI.
"""

import math
import statistics
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .encoder import EncoderModel, forward_with_taps
from .errors import ContractError
from .linalg import jacobi_eigh, one_blas_thread
from .manifold import build_index, gram_schmidt, knn
from .noise import rescale_relative_rows, sample_standard_noise

import logging

log = logging.getLogger(__name__)

SPECTRUM_SOURCES = ("standard", "in_manifold")
BENCH_MIN_REPS = 5
# Row widths of the bench's stages; the sample width caps the basis size.
BENCH_STANDARD_DIM = 64
BENCH_SAMPLE_DIM = 64
BENCH_INDEX_DIM = 32
BENCH_KNN_K = 10  # neighbours per kNN query, so the least index size
# Rows of each in-manifold sample batch.
BENCH_SAMPLE_COUNT = 8192
# Probes per batched pass of error_ratio_curve: enough to spread the
# interpreter's cost per op over a few sequences, few enough that the
# [n, M, ffn_dim] temporaries stay small.  At d=64, M=32, ffn_dim=128 a block
# of 16 raised peak memory by 17 %, and all 64 probes at once ran slower
# than blocks of 4.
_PROBE_BLOCK = 4


# ------------------------------------------------------------------ curves

@dataclass
class ErrorRatioCurve:
    """Per-layer relative deviation of a noise-injected pass.

    ``ratios[i]`` compares the input of block ``layers[i]`` between the
    perturbed and clean passes: Frobenius norm of the difference over the
    norm of the clean input, flattened across all positions.  The first
    entry belongs to the injected block itself, so with per-token
    rescaling it equals the requested relative magnitude.
    """

    injection_layer: int
    rel_magnitude: float
    layers: list
    ratios: list
    n_probes: int


def _probe_generator(entropy: int, ids) -> np.random.Generator:
    # Noise is keyed on the token content, not the probe position, so
    # reordering the probe set cannot change which noise any example gets.
    return np.random.default_rng([int(entropy)] + [int(t) for t in ids])


def error_ratio_curve(model: EncoderModel, probes: list, b: int, rho: float,
                      rng: int) -> ErrorRatioCurve:
    """Average deviation ratios over a probe set, noise rescaled per token.

    ``probes`` is a list of (ids, label) pairs; ``rng`` is an integer
    seed.  Each probe draws its own [M, d] standard Gaussian noise, keyed on
    its token content, rescaled row-wise so every position moves by ``rho``
    times its own norm; all positions of the padded input are treated
    alike, which pins the first curve entry to exactly ``rho``.  The passes
    run on frozen weights and keep no tape, ``_PROBE_BLOCK`` probes at a
    time: one batched clean pass, then one batched perturbed pass that
    starts from the clean trace at block b.  Each layer of a block gives
    one array of per-probe ratios, the norm of the flattened deviation over
    the norm of the flattened clean input, and each layer's mean is an
    fsum, so the curve does not depend on the block size or the probe
    order.  A negative or non-finite ``rho`` raises before any pass runs.
    A clean input of zero norm, or a ratio or clean norm that is
    not finite (the squares overflow float64 at a huge ``rho``), raises
    ``ContractError`` naming the lowest such probe, by its position in the
    list, and then its lowest block.
    """
    if len(probes) == 0:
        raise ContractError("error_ratio_curve: empty probe set")
    cfg = model.config
    if not 1 <= b <= cfg.num_layers:
        raise ContractError(f"error_ratio_curve: injection layer {b} outside 1..{cfg.num_layers}")
    if not 0 <= rho < math.inf:
        raise ContractError(f"error_ratio_curve: rho must be nonnegative and finite, got {rho}")
    entropy = int(rng)
    model = model.frozen()

    layers = list(range(b, cfg.num_layers + 1))
    columns = [[] for _ in layers]
    for start in range(0, len(probes), _PROBE_BLOCK):
        seqs = [ids for ids, _label in probes[start:start + _PROBE_BLOCK]]
        _, clean = forward_with_taps(model, seqs)
        clean_input = clean.layers[b - 1].data
        raw = np.stack([_probe_generator(entropy, ids).normal(size=clean_input.shape[1:])
                        for ids in seqs])
        eps = rescale_relative_rows(raw, clean_input, rho)
        # A huge rho overflows the perturbed pass; the ratio check below
        # names the probe and block, so numpy's warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            _, pert = forward_with_taps(model, seqs, injection=(b, eps), clean=clean)
        # Per layer, squared norms of each probe's flattened [M, d] rows.
        # vecdot takes one BLAS dot per row, as np.linalg.norm of one
        # probe's matrix does, so the bits match a per-probe norm.
        sq_dev, sq_clean = [], []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for r in layers:
                x = clean.layers[r - 1].data
                # The injected block's deviation is (x + eps) - x, as the
                # perturbed pass saw its input, not eps itself.
                xhat = x + eps if r == b else pert.layers[r - 1].data
                dev = (xhat - x).reshape(len(seqs), -1)
                x = x.reshape(len(seqs), -1)
                sq_dev.append(np.vecdot(dev, dev))
                sq_clean.append(np.vecdot(x, x))
            denom = np.sqrt(sq_clean)
            ratios = np.sqrt(sq_dev) / denom
        # [layer, probe] masks; the zero-norm test runs first, so a 0/0
        # ratio is reported as a zero norm.
        for bad, problem in ((denom == 0.0, "clean input of block {} has zero norm"),
                             (~(np.isfinite(ratios) & np.isfinite(denom)),
                              "ratio or clean input norm of block {} is not finite")):
            if bad.any():
                i = int(np.argmax(bad.any(axis=0)))
                block = layers[int(np.argmax(bad[:, i]))]
                raise ContractError(f"error_ratio_curve: probe {start + i} (position in the"
                                    f" probe list, from 0): {problem.format(block)}")
        for col, row in zip(columns, ratios.tolist()):
            col.extend(row)
    # fsum gives one correctly rounded total per layer, so the mean is
    # bit-identical under any permutation of the probe set.
    mean_ratios = [math.fsum(col) / len(col) for col in columns]
    return ErrorRatioCurve(injection_layer=b, rel_magnitude=float(rho),
                           layers=layers, ratios=mean_ratios,
                           n_probes=len(probes))


# ----------------------------------------------------------------- spectra

@dataclass
class SpectrumReport:
    """Descending normalized eigenvalues of a noise batch's covariance."""

    sorted_eigenvalues: np.ndarray
    source: str

    def top_mass(self, m: int) -> float:
        """Fraction of total variance captured by the m leading directions."""
        if m < 1:
            raise ContractError(f"top_mass: m must be >= 1, got {m}")
        return float(self.sorted_eigenvalues[:m].sum())


def pca_noise_spectrum(noise_batch, source: str = "standard") -> SpectrumReport:
    """Normalized covariance spectrum of an [n, d] batch of noise vectors.

    Centers the batch, forms the sample covariance (n−1 denominator), and
    finds its eigenvalues with ``jacobi_eigh``.  Eigenvalues are clipped at
    zero and divided by their sum; a zero-variance batch yields an
    all-zero spectrum and a logged warning.
    """
    if source not in SPECTRUM_SOURCES:
        raise ContractError(f"pca_noise_spectrum: source must be one of {SPECTRUM_SOURCES}")
    x = np.asarray(noise_batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ContractError(f"pca_noise_spectrum: need an [n>=2, d>=1] batch, got shape {x.shape}")
    n = x.shape[0]
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    evals = jacobi_eigh(cov)
    scale = max(1.0, float(np.abs(evals).max()))
    if evals.min() < -1e-12 * scale:
        raise ContractError(
            f"pca_noise_spectrum: covariance produced eigenvalue {evals.min()} "
            f"far below zero"
        )
    evals = np.clip(evals, 0.0, None)
    total = float(evals.sum())
    if total == 0.0:
        log.warning("pca_noise_spectrum: zero-variance batch, spectrum is all zeros")
        return SpectrumReport(sorted_eigenvalues=np.zeros_like(evals), source=source)
    return SpectrumReport(sorted_eigenvalues=evals / total, source=source)


# -------------------------------------------------------------- benchmarks

@dataclass
class BenchRecord:
    kind: str
    size: int
    median_seconds: float
    reps: int


@dataclass
class BenchReport:
    records: list
    exponents: dict = field(default_factory=dict)


def _median_time(fn, reps: int) -> float:
    fn()  # warmup: touch allocators and caches before measuring
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _fit_exponent(sizes, seconds) -> float:
    xs = np.log2(np.asarray(sizes, dtype=np.float64))
    ys = np.log2(np.asarray(seconds, dtype=np.float64))
    return float(np.polyfit(xs, ys, 1)[0])


def bench_complexity(standard_rows=(256, 512, 1024, 2048, 4096),
                     k_values=(8, 16, 32, 64),
                     index_sizes=(512, 1024, 2048, 4096),
                     reps: int = 7,
                     seed: int = 0) -> BenchReport:
    """Median timings of the noise pipeline stages plus log-log exponents.

    Stages: standard-noise generation against total element count M*d;
    batched in-manifold sampling (coefficient draw plus projection onto a
    fixed orthonormal basis) against basis size k; brute-force neighbor
    queries against index size N; orthonormalization against k.  Runs are
    sequential in one process at one BLAS thread (``one_blas_thread``);
    each point is the median of ``reps`` repetitions after one warmup call.
    """
    if reps < BENCH_MIN_REPS:
        raise ContractError(f"bench_complexity: need at least {BENCH_MIN_REPS} reps, got {reps}")
    for name, sizes, low in (("standard_rows", standard_rows, 1), ("k_values", k_values, 1),
                             ("index_sizes", index_sizes, BENCH_KNN_K)):
        if len(tuple(sizes)) == 0:
            raise ContractError(f"bench_complexity: {name} must be nonempty")
        if any(int(s) < low for s in sizes):
            raise ContractError(f"bench_complexity: {name} entries must be >= {low}")
    if any(int(k) > BENCH_SAMPLE_DIM for k in k_values):
        raise ContractError(f"bench_complexity: basis size cannot exceed {BENCH_SAMPLE_DIM}")

    rng = np.random.default_rng(seed)
    records = []
    exponents = {}

    def stage(kind, params, setup):
        # setup(p) -> (recorded size, timed callable); it runs just before
        # its point is timed, so draws from rng keep their order.
        sizes, medians = [], []
        for p in params:
            size, fn = setup(int(p))
            med = _median_time(fn, reps)
            records.append(BenchRecord(kind, size, med, reps))
            sizes.append(size)
            medians.append(med)
        if len(sizes) > 1:
            exponents[kind] = _fit_exponent(sizes, medians)

    # One BLAS thread, so the fitted exponents describe a one-thread cost
    # model: a GEMM split over threads can take a floor that does not grow
    # with the work and flattens the slope.
    with one_blas_thread():
        stage("standard", standard_rows, lambda m: (
            m * BENCH_STANDARD_DIM,
            lambda: sample_standard_noise((m, BENCH_STANDARD_DIM), 1.0, rng)))

        def inmanifold_sample(k):
            basis = np.linalg.qr(rng.normal(size=(BENCH_SAMPLE_DIM, k)))[0].T
            return k, lambda: rng.normal(size=(BENCH_SAMPLE_COUNT, k)) @ basis
        stage("inmanifold_sample", k_values, inmanifold_sample)

        queries = rng.normal(size=(8, BENCH_INDEX_DIM))

        def knn_query(n):
            index = build_index(rng.normal(size=(n, BENCH_INDEX_DIM)))

            def fn():
                for q in queries:
                    knn(index, q, k=BENCH_KNN_K)
            return n, fn
        stage("knn_query", index_sizes, knn_query)

        stage("gram_schmidt", k_values, lambda k: (
            k, partial(gram_schmidt, rng.normal(size=(k, BENCH_SAMPLE_DIM)))))

    return BenchReport(records=records, exponents=exponents)
