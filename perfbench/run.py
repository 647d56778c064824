"""lnsrlab benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {gap,probe,geometry} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with no tracing.  Set-up
runs ``SETUP_REPS`` times (median reported), then whole passes of the
workload run until the next one would end past ``--seconds`` of pass time.
Times are normalised to a reference host speed (see meter.py); the raw
times are printed beside them, and their medians as a JSON line (``raw``)
just before the result.

``--trace 1`` gives the per-layer metrics.  It alternates an untraced and
a traced unit (set-up plus pass ``k``, the same inputs on both sides) for
``--seconds``; per-layer figures are means per traced unit, and
``trace.overhead_ratio`` compares the two sides.

Every pass's outputs are checked, and failed checks plus raised errors over
operations attempted give ``failed`` / ``attempted``.  Human-readable lines
come first; the last line of standard output is the JSON result.  A report
and, when traced, the spans are written under ``perfbench/out/``.
"""

import os

# One BLAS thread: the load is a single-caller closed loop over small
# matrices, and a fixed thread count keeps timings and numerics steady.
# Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import multiprocessing
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from meter import Calibrator, Meter
from tracer import TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 11
LAYER_ORDER = ("tensor", "encoder", "objective", "trainer", "rng", "noise",
               "manifold", "linalg", "diagnostics", "data")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("gap", "probe", "geometry"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile_with_tail(values, pct):
    """The ``pct`` percentile, or None when fewer than ten samples lie above it."""
    ordered = sorted(values)
    if len(ordered) * (100 - pct) / 100 < 10:
        return None
    return statistics.quantiles(ordered, n=100)[pct - 1]


# ----------------------------------------------------------------- environment

def git_short_sha():
    """Short commit id, or "none" in a checkout that is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest():
    """Hash of lnsrlab's sources: names the code measured where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lnsrlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def thread_count():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading
        return threading.active_count()


def environment(np, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git": git_short_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------- runs

class Outcome:
    """Operations attempted and failed, plus the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add_pass(self, wl, state, requests):
        self.attempted += len(requests)
        failures = wl.check(state, requests)
        self.failed += len({pos for pos, _ in failures})
        self.messages.extend(msg for _, msg in failures)

    def add(self, attempted, messages):
        self.attempted += attempted
        self.failed += len(messages)
        self.messages.extend(messages)


def strip_outputs(requests):
    """Drop outputs once checked and hashed, so memory stays flat."""
    for req in requests:
        req.output = req.extra = None


def run_untraced(wl, seconds, outcome, clock):
    cal = Calibrator(clock, *wl.reference_kernel())
    meter = Meter(clock, calibrator=cal)
    cal.probe()
    setups = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        state = wl.setup()
        setups.append((t0, clock() - t0))
        cal.probe()
    passes, requests, digest = [], [], None
    while True:
        t0, spent = clock(), cal.spent
        result = wl.run_pass(state, len(passes), meter)
        passes.append((t0, clock() - t0 - (cal.spent - spent), result))
        cal.probe()
        outcome.add_pass(wl, state, result)
        if digest is None:
            digest = wl.digest(result).hex()[:16]
        strip_outputs(result)
        requests.extend(result)
        measured = [sec for _, sec, _ in passes]
        if sum(measured) + statistics.median(measured) > seconds:
            break
    return {"calibrator": cal, "setups": setups, "passes": passes,
            "requests": requests, "digest": digest}


def run_traced(wl, seconds, outcome, clock):
    tracer = Tracer()
    plain, traced, digest = [], [], None
    while True:
        k = len(plain)
        t0 = clock()
        state = wl.setup()
        result = wl.run_pass(state, k, Meter(clock))
        plain.append(clock() - t0)
        outcome.add_pass(wl, state, result)
        want = wl.digest(result)
        digest = digest or want.hex()[:16]
        strip_outputs(result)

        tracer.install()
        try:
            t0 = clock()
            state = wl.setup()
            result = wl.run_pass(state, k, Meter(clock, tracer=tracer))
            traced.append(clock() - t0)
        finally:
            tracer.uninstall()
        outcome.add_pass(wl, state, result)
        if wl.digest(result) != want:
            outcome.add(0, [f"pass {k}: traced outputs differ from untraced"])
        strip_outputs(result)
        if sum(plain) + sum(traced) + plain[-1] + traced[-1] > seconds:
            break
    return {"tracer": tracer, "plain_times": plain, "traced_times": traced,
            "digest": digest}


# ------------------------------------------------------------------- metrics

def end_to_end(wl, run):
    """Normalised end-to-end metrics (see meter.py), their raw medians, and
    report lines giving each with quartiles and sample count."""
    cal = run["calibrator"]

    def both(intervals):
        raw = [sec for _, sec in intervals]
        return [sec * cal.factor(t0, t0 + sec) for t0, sec in intervals], raw

    def normalised_pass(t0, sec, reqs):
        # Per request, so a change of host speed inside a pass is followed.
        inside = sum(r.seconds for r in reqs)
        return (sum(r.seconds * cal.factor(r.start, r.start + r.seconds) for r in reqs)
                + (sec - inside) * cal.factor(t0, t0 + sec))

    main = wl.main_requests(run["requests"])
    req_norm, req_raw = both([(r.start, r.seconds) for r in main])
    items = sum(r.items for r in main)
    timings = {
        "setup_s": (*both(run["setups"]), "s"),
        "wall_s": ([normalised_pass(*p) for p in run["passes"]],
                   [sec for _, sec, _ in run["passes"]], "s"),
        "request_s.p50": (*both([(r.start, r.seconds) for r in wl.p50_requests(main)]), "s"),
    }
    values = {name: (statistics.median(norm), unit) for name, (norm, _, unit) in timings.items()}
    values["throughput_per_s"] = (items / sum(req_norm), "1/s")
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw_values = {name: (statistics.median(raw), unit) for name, (_, raw, unit) in timings.items()}
    raw_values["throughput_per_s"] = (items / sum(req_raw), "1/s")

    lines = [timing_line(name, norm, raw, unit) for name, (norm, raw, unit) in timings.items()]
    lines.append(f"metric throughput_per_s {values['throughput_per_s'][0]!r} 1/s"
                 f" raw={raw_values['throughput_per_s'][0]!r}")
    lines.append(f"metric peak_rss_mb {values['peak_rss_mb'][0]!r} MB")
    lines.append(f"metric {wl.items_name} {values['throughput_per_s'][0]!r} 1/s"
                 f" (= throughput_per_s: {items} items in {sum(req_norm)!r} s of requests)")
    for name, unit, kind_filter, scale in wl.report_timings():
        norm, raw = both([(r.start, r.seconds) for r in run["requests"] if kind_filter(r)])
        norm, raw = [scale * v for v in norm], [scale * v for v in raw]
        lines.append(timing_line(name + ".p50", norm, raw, unit))
        p99 = percentile_with_tail(norm, 99)
        if p99 is not None:
            lines.append(f"metric {name}.p99 {p99!r} {unit} raw={percentile_with_tail(raw, 99)!r}"
                         f" n={len(norm)}")
    probes = cal.times
    lines.append(timing_line("calibration.kernel_s", probes, probes, "s")
                 + f" (reference {cal.ref_seconds} s)")
    return values, raw_values, lines


def timing_line(name, norm, raw, unit):
    q1, med, q3 = quartiles(norm)
    return (f"metric {name} {med!r} {unit} q1={q1!r} q3={q3!r} n={len(norm)}"
            f" raw={statistics.median(raw)!r}")


def per_layer(run):
    tracer = run["tracer"]
    summary = tracer.summary()
    units = len(run["traced_times"])
    traced_wall = sum(run["traced_times"])
    counters = tracer.counters

    def stat(name, key):
        return summary.get(name, {}).get(key, 0)

    metrics = {}
    ops = [n for n in summary if n.startswith("tensor.") and n != "tensor.backward"]
    metrics["tensor.op.calls"] = (sum(stat(n, "calls") for n in ops), "count")
    metrics["tensor.op.self_s"] = (sum(stat(n, "self_s") for n in ops), "s")
    for name in ("tensor.matmul", "tensor.backward"):
        metrics[name + ".calls"] = (stat(name, "calls"), "count")
        metrics[name + ".self_s"] = (stat(name, "self_s"), "s")
    metrics["tensor.matmul.flops"] = (counters.get("tensor.matmul.flops", 0), "flop")
    metrics["tensor.matmul.bytes"] = (counters.get("tensor.matmul.bytes", 0), "B")
    for mod, fn in TRACED:
        if mod == "lnsrlab.tensor":
            continue
        name = mod.split(".")[-1] + "." + fn
        metrics[name + ".calls"] = (stat(name, "calls"), "count")
        metrics[name + ".self_s"] = (stat(name, "self_s"), "s")
    for key in ("encoder.forward_with_taps.injected_calls",
                "manifold.neighborhood_basis.degenerate"):
        metrics[key] = (counters.get(key, 0), "count")
    rows = stat("manifold.sample_inmanifold_noise", "calls")
    bases = stat("manifold.neighborhood_basis", "calls")
    metrics["manifold.inmanifold_noise_rows"] = (rows, "count")
    attributed = sum(s["self_s"] for s in summary.values())
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.unattributed_s"] = (traced_wall - attributed, "s")
    metrics["trace.spans"] = (sum(s["calls"] for s in summary.values()), "count")
    # Means per traced unit; the ratios below are not divided.  A count that
    # is the same in every unit stays an integer.
    values = {k: (v // units if unit in ("count", "flop", "B") and v % units == 0 else v / units,
                  unit)
              for k, (v, unit) in metrics.items()}
    values["manifold.basis_cache_hit_ratio"] = (1.0 - bases / rows if rows else 0.0, "ratio")
    values["trace.overhead_ratio"] = (
        statistics.median(run["traced_times"]) / statistics.median(run["plain_times"]), "ratio")
    values["trace.units"] = (units, "count")

    layers = {layer: 0.0 for layer in LAYER_ORDER}
    for name, s in summary.items():
        layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + s["self_s"] / units
    layers["(unattributed)"] = values["trace.unattributed_s"][0]
    wall = values["trace.wall_s"][0]
    lines = [f"metric {k} {v!r} {unit}" for k, (v, unit) in values.items()]
    lines.append(f"layer self time per traced unit (traced wall {wall!r} s,"
                 f" {units} units, untraced unit median {statistics.median(run['plain_times'])!r} s):")
    for layer, secs in layers.items():
        lines.append(f"layer {layer:<15} {secs:12.6f} s {100.0 * secs / wall:6.2f} %")
    return values, lines, {"spans": summary, "layers": layers}


# ---------------------------------------------------------------------- main

def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "lnsrlab" / "__init__.py").is_file():
        print(f"perfbench: no lnsrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    clock = time.perf_counter
    outcome = Outcome()
    if args.trace:
        run = run_traced(wl, args.seconds, outcome, clock)
        values, lines, detail = per_layer(run)
        raw_values = {}
        declared = spec["per_layer"]
    else:
        run = run_untraced(wl, args.seconds, outcome, clock)
        values, raw_values, lines = end_to_end(wl, run)
        detail = {}
        declared = spec["end_to_end"]
    outcome.add(*wl.extra_checks())

    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        print(f"perfbench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 3

    env = environment(np, args.seed)
    env["threads"] = thread_count()
    env["child_processes"] = len(multiprocessing.active_children())
    single = env["threads"] <= env["nproc"] and env["child_processes"] == 0
    if not single:
        outcome.add(0, [f"load used {env['threads']} threads and"
                        f" {env['child_processes']} child processes (nproc {env['nproc']})"])

    print(f"# perfbench workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"env one_process=yes threads_within_nproc={'yes' if single else 'NO'}")
    for line in lines:
        print(line)
    ratio = outcome.failed / outcome.attempted
    print(f"metric fail_ratio {ratio!r} ratio ({outcome.failed} failed / {outcome.attempted} attempted)")
    for msg in outcome.messages[:20]:
        print(f"failure {msg}")
    print(f"digest {args.workload} {run['digest']}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"args": vars(args), "env": env, "digest": run["digest"],
              "attempted": outcome.attempted, "failed": outcome.failed,
              "failures": outcome.messages, "lines": lines,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
              "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw_values.items()},
              **detail}
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        np.savez(OUT / f"spans-{stem}.npz", **run["tracer"].spans())

    if raw_values:
        print("raw " + json.dumps({k: {"value": v, "unit": u}
                                   for k, (v, u) in raw_values.items()}))
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
