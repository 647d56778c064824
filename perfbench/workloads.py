"""The three benchmark workloads: ``gap``, ``probe`` and ``geometry``.

Each workload is a closed loop with one caller.  ``setup`` builds the
inputs from the workload seed (data generation, encoders, kNN index);
``run_pass`` does one fixed unit of work and times each request in it;
``check`` verifies a pass's outputs; ``digest`` hashes the outputs that
must stay bit-identical for a given seed.  Every input derives from the
workload seed, and pass ``k`` draws its own inputs from ``(seed, k)``, so a
later pass never repeats the work of an earlier one.

Library functions are always looked up as module attributes at call time
(``trainer.run_training``), so the tracer's wrappers apply when installed.
"""

import hashlib
from dataclasses import replace

import numpy as np

from lnsrlab import data, diagnostics, encoder, manifold, noise, objective, trainer


def derive(seed: int, *keys: int) -> int:
    """A 31-bit integer seed derived from the workload seed and ``keys``."""
    state = np.random.SeedSequence([seed, *keys]).generate_state(1)[0]
    return int(state) & 0x7FFFFFFF


def _hash_arrays(arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.digest()


class Workload:
    """Interface shared by the workloads below."""

    name = ""
    items_name = ""  # name of the throughput metric in the report
    request_name = ""  # name of the per-request latency in the report

    def __init__(self, seed: int):
        self.seed = seed

    def main_requests(self, requests):
        """The requests behind the throughput metric."""
        return requests

    def p50_requests(self, main):
        """Of the main requests, those behind ``request_s.p50``: one kind of
        work, so the median does not jump between kinds."""
        return main

    def report_timings(self):
        """(name, unit, request filter, scale) of the timings printed under
        this workload's own names."""
        return [(self.request_name, "s", lambda r: True, 1.0)]

    def extra_checks(self):
        """Checks that run once per run: (attempted, failure messages)."""
        return 0, []

    def reference_kernel(self):
        """(kernel, ref_seconds): a fixed kernel resembling this workload's hot
        path, and its median time over the baseline runs (see meter.py)."""
        raise NotImplementedError


# Each workload's reference kernel time at the baseline commit: the median,
# over seeds 1-5, of the kernel's median in a 30 s untraced run (the line
# calibration.kernel_s).  The runs are listed in baseline/BASELINE.md.
REF_SECONDS = {"gap": 0.0021455320002132794, "probe": 0.002391340998656233,
               "geometry": 0.00896186200043303}


class _Node:
    __slots__ = ("value", "parent", "grad_fn")


def tape_kernel(rows, cols, depth, reps):
    """A miniature autodiff tape: per step, small numpy ops, a node object
    and a closure, then a reverse walk.  Interpreter-bound like lnsrlab's
    tape, but independent of it."""
    rng = np.random.default_rng(0)
    x, w = rng.normal(size=(rows, cols)), rng.normal(size=(cols, cols)) / cols

    def loop():
        for _ in range(reps):
            nodes, h = [], x
            for _ in range(depth):
                node = _Node()
                node.value = np.tanh(h @ w + h)
                node.parent = h
                node.grad_fn = lambda g, y=node.value: (g * (1.0 - y * y)) @ w.T
                nodes.append(node)
                h = node.value
            g = np.ones_like(h)
            for node in reversed(nodes):
                g = node.grad_fn(g)

    return loop


# ----------------------------------------------------------------------- gap

class Gap(Workload):
    """Paired-seed ``run_training`` for ft, lnsr_standard and lnsr_inmanifold
    in the shape of acceptance criterion 9."""

    name = "gap"
    items_name = "train_examples_per_s"
    request_name = "run_s"
    modes = ("ft", "lnsr_standard", "lnsr_inmanifold")
    margins = (0.40, 0.45, 0.50)

    def setup(self):
        margin = self.margins[derive(self.seed, 1) % len(self.margins)]
        train, dev = data.synth_classification(24, 2, 8, 30, margin,
                                               seed=derive(self.seed, 2))
        model_cfg = encoder.EncoderConfig(vocab_size=30, embed_dim=16, num_layers=2,
                                          num_heads=2, ffn_dim=32, max_seq_len=8)
        base = trainer.TrainConfig(
            lr=5e-3, batch_size=16, epochs=6,
            noise=noise.NoiseSpec(mode="standard", sigma=0.05, rel_magnitude=0.05),
            reg=objective.RegularizerConfig(mode="lnsr_standard", lambda_weights=0.05))
        return {"train": train, "dev": dev, "model_cfg": model_cfg, "base": base}

    def run_pass(self, state, k, meter):
        requests = []
        train_seed = derive(self.seed, 3, k)
        items = len(state["train"].examples) * state["base"].epochs
        for j, mode in enumerate(self.modes):
            cfg = replace(trainer.config_for_mode(state["base"], mode), seed=train_seed)
            requests.append(meter.request(
                k * len(self.modes) + j, mode, items,
                lambda cfg=cfg: trainer.run_training(state["model_cfg"], state["train"],
                                                     state["dev"], cfg)))
        return requests

    def p50_requests(self, main):
        return [r for r in main if r.kind == "lnsr_standard"]

    def report_timings(self):
        return [("run_s", "s", lambda r: r.kind == "lnsr_standard", 1.0)] + [
            (f"run_s.{mode}", "s", lambda r, mode=mode: r.kind == mode, 1.0)
            for mode in self.modes]

    def reference_kernel(self):
        return tape_kernel(8, 16, 20, 10), REF_SECONDS["gap"]

    def check(self, state, requests):
        failures = []
        for pos, req in enumerate(requests):
            run = req.output
            if req.error is not None:
                failures.append((pos, f"{req.kind}: raised {req.error}"))
            elif not all(np.isfinite(run.epoch_train_loss)):
                failures.append((pos, f"{req.kind}: non-finite epoch loss {run.epoch_train_loss}"))
            elif not all(0.0 <= m <= 1.0 for m in run.epoch_train_metric + run.epoch_dev_metric):
                failures.append((pos, f"{req.kind}: metric outside [0, 1]"))
        return failures

    def digest(self, requests) -> bytes:
        arrays = []
        for req in requests:
            if req.output is not None:
                arrays.extend(req.output.final_params)
                arrays.append(np.array(req.output.epoch_train_loss))
        return _hash_arrays(arrays)


# --------------------------------------------------------------------- probe

class Probe(Workload):
    """``error_ratio_curve`` for every injection layer of a deeper, wider
    encoder: forward passes only, larger matrices than ``gap``."""

    name = "probe"
    items_name = "probe_examples_per_s"
    request_name = "curve_s"
    rho = 0.05
    init_seeds = 3
    model = {"vocab_size": 64, "embed_dim": 64, "num_layers": 6, "num_heads": 4,
             "ffn_dim": 128, "max_seq_len": 32}

    def setup(self):
        margin = 0.5 + 0.1 * (derive(self.seed, 4) % 5)
        probes, _ = data.synth_classification(32, 2, 32, 64, margin, seed=derive(self.seed, 5))
        cfg = encoder.EncoderConfig(**self.model)
        models = [encoder.build_encoder(cfg, derive(self.seed, 6, i))
                  for i in range(self.init_seeds)]
        return {"probes": probes.examples, "models": models}

    def run_pass(self, state, k, meter):
        requests = []
        model = state["models"][k % self.init_seeds]
        entropy = derive(self.seed, 7, k)
        items = len(state["probes"])
        layers = model.config.num_layers
        for b in range(1, layers + 1):
            requests.append(meter.request(
                k * layers + b - 1, f"b={b}", items,
                lambda b=b: diagnostics.error_ratio_curve(model, state["probes"], b,
                                                          self.rho, entropy)))
        return requests

    def reference_kernel(self):
        return tape_kernel(32, 64, 20, 3), REF_SECONDS["probe"]

    def check(self, state, requests):
        failures = []
        for pos, req in enumerate(requests):
            if req.error is not None:
                failures.append((pos, f"curve {req.kind}: raised {req.error}"))
                continue
            ratios = req.output.ratios
            if not np.all(np.isfinite(ratios)):
                failures.append((pos, f"curve {req.kind}: non-finite ratio"))
            elif abs(ratios[0] - self.rho) > 1e-6:
                failures.append((pos, f"curve {req.kind}: first entry {ratios[0]!r}"
                                      f" != rho {self.rho}"))
        return failures

    def digest(self, requests) -> bytes:
        return _hash_arrays([np.array(r.output.ratios) for r in requests
                             if r.output is not None])


# ------------------------------------------------------------------ geometry

def knn_oracle(points: np.ndarray, query: np.ndarray, k: int):
    """Rows of the k nearest points, excluding exact copies of the query,
    ordered by (squared distance, row).  Written independently of
    ``lnsrlab.manifold.knn`` so a rewrite of it is checked row for row."""
    d2 = np.square(points - query).sum(axis=1)
    rows = np.flatnonzero(~np.all(points == query, axis=1))
    order = rows[np.lexsort((rows, d2[rows]))][:k]
    return order, d2[order]


def knn_mismatch(points, query, k, pairs):
    """Why ``pairs`` (knn's output) differs from the oracle, or None."""
    rows, d2 = knn_oracle(points, query, k)
    if len(pairs) != len(rows):
        return f"{len(pairs)} neighbours, oracle has {len(rows)}"
    for j, ((vec, dist), row, want) in enumerate(zip(pairs, rows, d2)):
        if not np.array_equal(vec, points[row]):
            return f"neighbour {j} is not row {row}"
        if abs(dist - want) > 1e-12 * max(want, 1.0):
            return f"neighbour {j} distance {dist!r} != {want!r}"
    return None


def tie_lattice():
    """Integer grid points: many exactly equal distances at the k-th cut."""
    axis = np.arange(5.0)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    queries = np.concatenate([grid[::17], grid[::23] + 0.5])
    return grid, queries


class Geometry(Workload):
    """The acceptance-criterion-6 shape: ~1000 neighbourhood queries on a
    10k x 128 synthetic manifold, then two 128 x 128 noise spectra."""

    name = "geometry"
    items_name = "basis_queries_per_s"
    n_points, dim, k_true, queries, k = 10_000, 128, 10, 1000, 10
    knn_check_every = 16

    def setup(self):
        curvature = 0.02 + 0.06 * (derive(self.seed, 8) % 1000) / 1000.0
        mset = data.synth_manifold(self.n_points, self.dim, self.k_true, curvature,
                                   seed=derive(self.seed, 9))
        return {"points": mset.points, "index": manifold.build_index(mset.points)}

    def run_pass(self, state, k, meter):
        requests = []
        points, index = state["points"], state["index"]
        rows = np.random.default_rng(derive(self.seed, 10, k)).choice(
            self.n_points, size=self.queries, replace=False)
        rng = np.random.default_rng(derive(self.seed, 11, k))

        def query(row):
            basis = manifold.neighborhood_basis(index, points[row], k=self.k)
            if basis is None:
                raise RuntimeError(f"degenerate neighbourhood at row {row}")
            return basis, manifold.sample_inmanifold_noise(points[row], basis, 1.0, rng).data

        for j, row in enumerate(rows):
            req = meter.request(k * (self.queries + 2) + j, "query", 1,
                                lambda row=row: query(row))
            req.extra = int(row)
            requests.append(req)
        batch = np.stack([r.output[1] for r in requests if r.output is not None])
        standard = noise.sample_standard_noise((self.queries, self.dim), 1.0, rng).data
        for j, (source, mat) in enumerate((("in_manifold", batch), ("standard", standard))):
            req = meter.request(k * (self.queries + 2) + self.queries + j,
                                f"spectrum.{source}", 1,
                                lambda s=source, m=mat: diagnostics.pca_noise_spectrum(m, s))
            req.extra = mat
            requests.append(req)
        return requests

    def check(self, state, requests):
        points = state["points"]
        failures = []
        eye = np.eye(self.k)
        for pos, req in enumerate(requests):
            if req.error is not None:
                failures.append((pos, f"{req.kind}: raised {req.error}"))
            elif req.kind == "query":
                basis = req.output[0].basis
                m = basis.shape[0]
                err = np.abs(basis @ basis.T - eye[:m, :m]).max()
                if err > 1e-10:
                    failures.append((pos, f"basis at row {req.extra} off orthonormal by {err:.1e}"))
                if pos % self.knn_check_every == 0:
                    q = points[req.extra]
                    why = knn_mismatch(points, q, self.k, manifold.knn(state["index"], q, self.k))
                    if why:
                        failures.append((pos, f"knn at row {req.extra}: {why}"))
            else:
                why = spectrum_mismatch(req.extra, req.output.sorted_eigenvalues)
                if why:
                    failures.append((pos, f"spectrum {req.output.source}: {why}"))
        return failures

    def reference_kernel(self):
        points = np.random.default_rng(0).normal(size=(self.n_points, self.dim))

        def scan():
            d = points - points[0]
            np.argsort(np.square(d).sum(axis=1), kind="stable")

        return scan, REF_SECONDS["geometry"]

    def main_requests(self, requests):
        return [r for r in requests if r.kind == "query"]

    def report_timings(self):
        return [("query_ms", "ms", lambda r: r.kind == "query", 1e3),
                ("spectrum_s", "s", lambda r: r.kind == "spectrum.in_manifold", 1.0),
                ("spectrum_s.standard", "s", lambda r: r.kind == "spectrum.standard", 1.0)]

    def extra_checks(self):
        """kNN on an exactly tied lattice, once per run."""
        grid, queries = tie_lattice()
        index = manifold.build_index(grid)
        failures = []
        for q in queries:
            try:
                why = knn_mismatch(grid, q, self.k, manifold.knn(index, q, self.k))
            except Exception as exc:  # a raised error is a failed check
                why = f"raised {type(exc).__name__}: {exc}"
            if why:
                failures.append(f"tie lattice query {q.tolist()}: {why}")
        return len(queries), failures

    def digest(self, requests) -> bytes:
        return _hash_arrays([r.output.sorted_eigenvalues for r in requests
                             if r.kind != "query" and r.output is not None])


def spectrum_mismatch(batch, got, rel_tol=1e-8):
    """Compare a normalized spectrum with one built on ``np.linalg.eigvalsh``."""
    centered = batch - batch.mean(axis=0)
    cov = centered.T @ centered / (batch.shape[0] - 1)
    want = np.clip(np.sort(np.linalg.eigvalsh(cov))[::-1], 0.0, None)
    want = want / want.sum()
    err = float(np.abs(np.asarray(got) - want).max())
    if err > rel_tol * float(want.max()):
        return f"eigenvalues differ from eigvalsh by {err:.2e} (relative to the largest)"
    return None


WORKLOADS = {w.name: w for w in (Gap, Probe, Geometry)}
