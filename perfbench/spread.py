"""Run the benchmark over several seeds and summarise the run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py REPORT.md

For each workload of ``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0``
once for each of ``SEEDS``, one run at a time, for ``run_seconds`` each, and
reports for every metric line the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median.  For the
``end_to_end`` metrics it also shows the bound and whether the spread is
below a third of it (``setup_s`` is exempt).  It then runs the first seed
again and compares output digests, and runs it once with ``--trace 1`` to
print the per-layer self-time table.  All of it is written to ``REPORT.md``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    metrics, digest = {}, None
    for line in lines[:-1]:
        parts = line.split()
        if parts[0] == "metric":
            raw = [float(p[4:]) for p in parts if p.startswith("raw=")]
            metrics[parts[1]] = (float(parts[2]), parts[3], raw[0] if raw else None)
        elif parts[0] == "digest":
            digest = parts[2]
    return json.loads(lines[-1]), metrics, digest, lines


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    report = Path(argv[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = []
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        section = len(out)
        per_metric, digests, attempted, failed = {}, {}, 0, 0
        for seed in SEEDS:
            result, metrics, digest, _ = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            digests[seed] = digest
            for name, (value, unit, raw) in metrics.items():
                entry = per_metric.setdefault(name, (unit, [], []))
                entry[1].append(value)
                if raw is not None:
                    entry[2].append(raw)
            print(f"{workload} seed {seed}: correct={result['correct']} digest={digest} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        out.append(f"### `{workload}`: {len(SEEDS)} untraced runs,"
                   f" seeds {SEEDS[0]}..{SEEDS[-1]}, {seconds:g} s each")
        out.append("")
        out.append(f"Operations: {failed} failed / {attempted} attempted.")
        out.append("")
        out.append("| metric | unit | median | q1 | q3 | spread | bound | spread < bound/3"
                   " | raw median | raw spread |")
        out.append("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
        for name, (unit, values, raws) in per_metric.items():
            med, q1, q3, spread = summarise(values)
            raw_cells = "| |"
            if len(raws) == len(values) and name != "calibration.kernel_s":
                raw_med, _, _, raw_spread = summarise(raws)
                raw_cells = f"| {raw_med:.6g} | {raw_spread:.4f} |"
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = spread < bound / 3
                verdict = "exempt" if name == "setup_s" else ("yes" if ok else "**no**")
                steady &= ok or name == "setup_s"
            out.append(f"| `{name}` | {unit} | {med:.6g} | {q1:.6g} | {q3:.6g} |"
                       f" {spread:.4f} | {bound if bound is not None else ''} | {verdict} "
                       + raw_cells)
        out.append("")
        seed = SEEDS[0]
        _, _, again, _ = run_once(workload, seed, seconds, 0)
        same = "identical" if again == digests[seed] else f"DIFFERENT ({digests[seed]} vs {again})"
        out.append(f"Digest repeat at seed {seed}: {again}, {same}.")
        out.append("")
        result, metrics, digest, lines = run_once(workload, seed, seconds, 1)
        out.append(f"Traced run, seed {seed} (digest {digest},"
                   f" {result['failed']} failed / {result['attempted']} attempted):")
        out.append("")
        out.append("```")
        out.extend(line for line in lines if line.startswith("layer"))
        out.extend(f"{k} = {v['value']!r} {v['unit']}" for k, v in result["metrics"].items()
                   if v["value"])
        out.append("```")
        out.append("")
        print("\n".join(out[section:]), flush=True)

    out.append(f"All end-to-end spreads below a third of their bound: {'yes' if steady else 'NO'}.")
    print(out[-1])
    report.write_text("\n".join(out) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
