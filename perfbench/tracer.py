"""In-memory span tracer that wraps lnsrlab's public functions from outside.

The library is treated as a black box.  ``Tracer.install`` replaces each
traced function at every name a caller can look it up by: the attribute in
its home module and every ``from ... import`` alias in the other loaded
``lnsrlab`` modules.  ``uninstall`` puts the originals back, so untraced
code runs with no wrapper at all.

Each call records one span: name id, start, end, parent span and request
id, appended to flat arrays.  Self time (a span's duration minus the
durations of its direct children) is computed once, after the run, in
``summary``.  Spans are properly nested because the load is one thread.
"""

import inspect
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped under "<short module>.<function>".
TRACED = (
    ("lnsrlab.tensor", "backward"),
    ("lnsrlab.encoder", "forward_with_taps"),
    ("lnsrlab.objective", "lnsr_term"),
    ("lnsrlab.objective", "assemble_objective"),
    ("lnsrlab.trainer", "run_training"),
    ("lnsrlab.trainer", "adam_step"),
    ("lnsrlab.trainer", "evaluate"),
    ("lnsrlab.rng", "substream_rng"),
    ("lnsrlab.noise", "rescale_relative_rows"),
    ("lnsrlab.manifold", "build_index"),
    ("lnsrlab.manifold", "knn"),
    ("lnsrlab.manifold", "gram_schmidt"),
    ("lnsrlab.manifold", "neighborhood_basis"),
    ("lnsrlab.manifold", "sample_inmanifold_noise"),
    ("lnsrlab.linalg", "jacobi_eigh"),
    ("lnsrlab.diagnostics", "pca_noise_spectrum"),
    ("lnsrlab.diagnostics", "error_ratio_curve"),
    ("lnsrlab.data", "synth_classification"),
    ("lnsrlab.data", "synth_manifold"),
)
# Public functions of lnsrlab.tensor that are not tape operations.
TENSOR_NON_OPS = ("backward", "zero_grads")


def tensor_ops(tensor_module):
    """Names of the tape operations: every public function defined in the
    tensor module except ``TENSOR_NON_OPS``.  Ops added later are traced
    without a change here."""
    return sorted(
        name for name, obj in vars(tensor_module).items()
        if inspect.isfunction(obj) and obj.__module__ == tensor_module.__name__
        and not name.startswith("_") and name not in TENSOR_NON_OPS
    )


def _matmul_cost(a, b):
    """Multiply-add flops and computed operand+result bytes of a matmul."""
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    return 2 * batch * m * k * n, 8 * (a.size + b.size + batch * m * n)


class Tracer:
    """Span recorder plus per-name counters for one benchmark process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.request_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack = [-1]
        self._request = [-1]
        self.counters = {}
        self._patched = []

    # ------------------------------------------------------------ recording

    def set_request(self, request_id: int):
        """Tag the spans opened from now on with ``request_id``."""
        self._request[0] = request_id

    def count(self, key: str, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, kwargs, result)``
        runs after the span closes, so its cost lands in the parent."""
        nid = self._name_id(name)
        names, parents, requests = self.name_col, self.parent_col, self.request_col
        starts, ends = self.start_col, self.end_col
        stack, request = self._stack, self._request
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(request[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------- patching

    def install(self):
        """Wrap every traced function at each name it is reachable by."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        tensor = sys.modules["lnsrlab.tensor"]
        targets = [("lnsrlab.tensor", op, "tensor." + op) for op in tensor_ops(tensor)]
        targets += [(mod, fn, mod.split(".")[-1] + "." + fn) for mod, fn in TRACED]
        hooks = {
            "tensor.matmul": self._after_matmul,
            "encoder.forward_with_taps": self._after_forward,
            "manifold.neighborhood_basis": self._after_basis,
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "lnsrlab" or name.startswith("lnsrlab."))]
        for mod_name, fn_name, span_name in targets:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self.wrap(span_name, original, hooks.get(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _after_matmul(self, args, kwargs, result):
        flops, nbytes = _matmul_cost(args[0].data, args[1].data)
        self.count("tensor.matmul.flops", flops)
        self.count("tensor.matmul.bytes", nbytes)

    def _after_forward(self, args, kwargs, result):
        injection = kwargs.get("injection", args[2] if len(args) > 2 else None)
        if injection is not None:
            self.count("encoder.forward_with_taps.injected_calls")

    def _after_basis(self, args, kwargs, result):
        if result is None:
            self.count("manifold.neighborhood_basis.degenerate")

    # -------------------------------------------------------------- results

    def spans(self) -> dict:
        """All recorded spans as numpy columns (for writing out)."""
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "request": np.frombuffer(self.request_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        cols = self.spans()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(cols["name"], minlength=n_names)
        total = np.bincount(cols["name"], weights=dur, minlength=n_names)
        own = np.bincount(cols["name"], weights=self_time, minlength=n_names)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}
