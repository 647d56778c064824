"""Command-line interface: experiments in, CSV files out.

Every subcommand runs one experiment and writes `<command>-<timestamp>.csv`
into the output directory.  The four that build an encoder (train, sweep,
noise-curve, gap-report) also read an optional INI-style config file
(sections [encoder], [noise], [regularizer], [train], [data] mirroring the
config dataclasses).  Floats are serialized with repr() so parsing the
file recovers them bit for bit.

Exit codes: 0 success, 1 configuration, argument or input-file problem
(a config file, data file or checkpoint that is missing, not readable or
does not parse), 2 runtime failure.
"""

import argparse
import configparser
import csv
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from datetime import datetime

import numpy as np

from .data import load_tsv, synth_classification, synth_manifold
from .diagnostics import (
    BENCH_MIN_REPS,
    BENCH_SAMPLE_DIM,
    bench_complexity,
    error_ratio_curve,
    pca_noise_spectrum,
)
from .encoder import (EncoderConfig, build_encoder, check_data_fits, load_checkpoint,
                      save_checkpoint)
from .errors import ContractError, ValidationError
from .manifold import build_index, neighborhood_basis, sample_inmanifold_noise
from .noise import NoiseSpec, sample_standard_noise
from .objective import RegularizerConfig
from .rng import stream_rng, substream_rng
from .theory import (MC_MIN_SAMPLES, TAYLOR_CSV_COLUMNS, cross_term_mc, make_taylor_report,
                     random_smooth_map)
from .trainer import TrainConfig, config_for_mode, multi_seed, run_training

_DATA_DEFAULTS = {"n_per_class": 16, "num_classes": 2,
                  "seq_len": 8, "margin": 0.6, "seed": 0,
                  "train_path": None, "dev_path": None}


class _Parser(argparse.ArgumentParser):
    """Argument errors surface as ValidationError so main() can map them
    to exit code 1 instead of argparse's default hard exit."""

    def error(self, message):
        raise ValidationError(message)


# ------------------------------------------------------------- serialization

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    """One header row plus data rows; floats at full round-trip precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_output(args, header, rows):
    """Write the command's CSV as ``<command>-<timestamp>.csv`` in ``--out``."""
    os.makedirs(args.out, exist_ok=True)
    # Microsecond resolution keeps names collision-free even when two
    # commands run within the same second.
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    path = os.path.join(args.out, f"{args.command}-{stamp}.csv")
    write_csv(path, header, rows)
    print(f"wrote {path}")


# ------------------------------------------------------------ config loading

def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValidationError(f"expected a boolean, got {text!r}")


def _float_or_none(text: str):
    low = text.strip().lower()
    if low in ("none", ""):
        return None
    return float(text)


def _comma_list(text: str, cast, name: str, minimum: int = 1, distinct: bool = False) -> list:
    """The comma-separated items of ``text`` (blank items skipped), each
    cast; fewer than ``minimum`` items, a bad item or, with ``distinct``,
    an item that equals an earlier one once cast is a ValidationError."""
    try:
        items = [cast(p) for p in text.split(",") if p.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValidationError(f"{name}: bad item in {text!r} ({exc})") from exc
    if len(items) < minimum:
        raise ValidationError(f"{name}: need at least {minimum} comma-separated"
                              f" item(s), got {text!r}")
    if distinct:
        for i, item in enumerate(items):
            if item in items[:i]:
                raise ValidationError(f"{name}: {item!r} is repeated in {text!r}")
    return items


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an integer no smaller than ``low`` and, when
    ``high`` is given, no larger than it."""
    def integer(text: str) -> int:
        if int(text) < low or (high is not None and int(text) > high):
            bounds = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
        return int(text)
    return integer


def _positive_float(text: str) -> float:
    """An argparse type: a finite number above zero."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _lambda_weights(text: str):
    parts = _comma_list(text, float, "lambda_weights")
    return parts[0] if len(parts) == 1 else tuple(parts)


# Casters for the config field types that do not parse text themselves.
_CASTERS = {bool: _bool, float | None: _float_or_none, float | tuple: _lambda_weights}


def load_config_file(path):
    """Parse the INI file into {section: {key: typed value}}.

    A section's keys are the fields of its config dataclass, nested configs
    aside, and [data]'s are those of ``_DATA_DEFAULTS``."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        # Interpolation errors are raised only when a value is read.
        sections = [(section, parser.items(section)) for section in parser.sections()]
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ValidationError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ValidationError(f"config file not found: {path}")
    schema = {section: {f.name: _CASTERS.get(f.type, f.type) for f in fields(config)
                        if not is_dataclass(f.type)}
              for section, config in (("encoder", EncoderConfig), ("noise", NoiseSpec),
                                      ("regularizer", RegularizerConfig),
                                      ("train", TrainConfig))}
    schema["data"] = {key: str if value is None else type(value)
                      for key, value in _DATA_DEFAULTS.items()}
    out = {}
    for section, items in sections:
        if section not in schema:
            raise ValidationError(
                f"unknown config section [{section}]; expected one of {tuple(schema)}")
        casters = schema[section]
        values = {}
        for key, raw in items:
            if key not in casters:
                raise ValidationError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = casters[key](raw)
            except ValueError as exc:
                raise ValidationError(
                    f"bad value for {key!r} in [{section}]: {raw!r} ({exc})")
        out[section] = values
    return out


class Settings:
    """Configs assembled from defaults, the INI file, and CLI overrides."""

    def __init__(self, args):
        sections = load_config_file(args.config) if args.config else {}
        enc_kwargs = dict(vocab_size=30, embed_dim=8, num_layers=2,
                          num_heads=2, ffn_dim=16, max_seq_len=8)
        enc_kwargs.update(sections.get("encoder", {}))
        self.encoder = EncoderConfig(**enc_kwargs)

        noise_kwargs = dict(mode="standard", sigma=0.05, rel_magnitude=0.05)
        noise_kwargs.update(sections.get("noise", {}))
        reg_kwargs = dict(mode="lnsr_standard", lambda_weights=1.0)
        reg_kwargs.update(sections.get("regularizer", {}))
        train_kwargs = dict(lr=2e-3, batch_size=8, epochs=2)
        train_kwargs.update(sections.get("train", {}))
        if getattr(args, "seed", None) is not None:
            train_kwargs["seed"] = args.seed
        self.train = TrainConfig(noise=NoiseSpec(**noise_kwargs),
                                 reg=RegularizerConfig(**reg_kwargs),
                                 **train_kwargs)

        self.data = dict(_DATA_DEFAULTS)
        self.data.update(sections.get("data", {}))
        if self.data["seed"] < 0:
            raise ValidationError(f"[data] seed must be >= 0, got {self.data['seed']}")
        self.seed = self.train.seed

    def datasets(self):
        """Train/dev datasets: TSV files when paths are given, else synthetic."""
        d = self.data
        if d["train_path"]:
            if not d["dev_path"]:
                raise ValidationError("data.train_path given without data.dev_path")
            train = load_tsv(d["train_path"])
            dev = load_tsv(d["dev_path"], vocab=train.vocab)
            return train, dev
        return synth_classification(d["n_per_class"], d["num_classes"],
                                    d["seq_len"], self.encoder.vocab_size,
                                    d["margin"], d["seed"])


# ----------------------------------------------------------------- commands

def _cmd_train(args) -> int:
    settings = Settings(args)
    train_ds, dev_ds = settings.datasets()
    result = run_training(settings.encoder, train_ds, dev_ds, settings.train)
    rows = [(e + 1, tl, tm, dm) for e, (tl, tm, dm) in enumerate(
        zip(result.epoch_train_loss, result.epoch_train_metric,
            result.epoch_dev_metric))]
    _write_output(args, ("epoch", "train_loss", "train_metric", "dev_metric"), rows)
    print(f"mode={result.mode} final_train={result.final_train_metric:.4f} "
          f"final_dev={result.final_dev_metric:.4f} "
          f"gap={result.generalization_gap:.4f} "
          f"wall={result.wall_time_seconds:.2f}s")
    if args.save_model:
        model = build_encoder(settings.encoder, settings.seed)
        model.store[:] = np.concatenate(result.final_params, axis=None)
        save_checkpoint(model, args.save_model)
        print(f"wrote {args.save_model}")
    return 0


def _cmd_sweep(args) -> int:
    settings = Settings(args)
    train_ds, dev_ds = settings.datasets()
    caster = int if args.param == "injection_layer" else float
    values = _comma_list(args.values, caster, "--values", distinct=True)
    seeds = _comma_list(args.seeds, int, "--seeds", minimum=2, distinct=True)
    base = settings.train
    summaries = []
    for v in values:
        if args.param == "injection_layer":
            cfg = replace(base, reg=replace(base.reg, injection_layer=v))
        else:
            cfg = replace(base, noise=replace(base.noise, rel_magnitude=v))
        summaries.append((float(v), multi_seed(settings.encoder, train_ds, dev_ds, cfg, seeds)))
    _write_output(args,
                  ("param", "value", "n_seeds", "dev_mean", "dev_std", "dev_max",
                   "gap_mean", "gap_std", "gap_max"),
                  [(args.param, v, len(s.per_seed), s.dev_mean, s.dev_std, s.dev_max,
                    s.gap_mean, s.gap_std, s.gap_max) for v, s in summaries])
    for v, s in summaries:
        print(f"{args.param}={v:g}: dev {s.dev_mean:.4f} (std {s.dev_std:.4f}), "
              f"gap {s.gap_mean:.4f} (std {s.gap_std:.4f})")
    return 0


def _cmd_verify_claim1(args) -> int:
    sigmas = _comma_list(args.sigmas, _positive_float, "--sigmas")
    f, f_batch = random_smooth_map(args.dim, stream_rng(args.seed, "theory"))
    x = stream_rng(args.seed, "probe").normal(size=args.dim)
    reports = []
    for i, sigma in enumerate(sigmas):
        rng = substream_rng(args.seed, "theory", i)
        reports.append(make_taylor_report(f, x, sigma, args.mc_samples, rng,
                                          f_batch=f_batch))
    _write_output(args, TAYLOR_CSV_COLUMNS, [r.csv_row() for r in reports])
    for rep in reports:
        second_order = rep.r_j + rep.r_h_exact
        gap = abs(rep.mc_estimate - second_order)
        band = 3.0 * rep.mc_se
        verdict = "within" if gap <= band else "OUTSIDE"
        print(f"sigma={rep.sigma:g}: mc={rep.mc_estimate:.3e} "
              f"jacobian+hessian={second_order:.3e} "
              f"|gap|={gap:.2e} vs 3se={band:.2e} -> {verdict}")
    return 0


def _cmd_cross_term(args) -> int:
    rows = []
    worst = 0.0
    for i in range(args.pairs):
        rng = substream_rng(args.seed, "theory", i)
        j = rng.normal(size=args.dim)
        a = rng.normal(size=(args.dim, args.dim))
        h = 0.5 * (a + a.T)
        mean, se = cross_term_mc(j, h, args.sigma, args.mc_samples, rng)
        ratio = abs(mean) / se if se > 0 else 0.0
        worst = max(worst, ratio)
        rows.append((i, args.dim, args.sigma, mean, se, ratio))
    _write_output(args, ("pair", "dim", "sigma", "mc_mean", "mc_se", "abs_mean_over_se"),
                  rows)
    print(f"{args.pairs} pairs, max |mean|/se = {worst:.3f} "
          f"({'all within 3' if worst <= 3.0 else 'some exceed 3'})")
    return 0


def _cmd_noise_curve(args) -> int:
    if not (np.isfinite(args.rel_magnitude) and args.rel_magnitude >= 0):
        raise ValidationError(f"--rel-magnitude must be finite and >= 0, got {args.rel_magnitude}")
    settings = Settings(args)
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
    else:
        model = build_encoder(settings.encoder, settings.seed)
    if args.injection_layer > model.config.num_layers:
        raise ValidationError(f"--injection-layer must be <= {model.config.num_layers}")
    _, dev_ds = settings.datasets()
    probes = dev_ds.examples[:args.probes]
    check_data_fits(model.config, probes)
    curve = error_ratio_curve(model, probes, args.injection_layer,
                              args.rel_magnitude, settings.seed)
    _write_output(args,
                  ("layer", "ratio", "injection_layer", "rel_magnitude", "n_probes"),
                  [(layer, ratio, curve.injection_layer, curve.rel_magnitude,
                    curve.n_probes) for layer, ratio in zip(curve.layers, curve.ratios)])
    print("layer ratios: " +
          ", ".join(f"{l}:{r:.4f}" for l, r in zip(curve.layers, curve.ratios)))
    return 0


def _cmd_pca_spectrum(args) -> int:
    if args.intrinsic >= args.dim:
        raise ValidationError(f"--intrinsic {args.intrinsic} must be below --dim {args.dim}")
    if args.k >= args.points:
        # The query is one of the points and is never its own neighbour.
        raise ValidationError(f"--k {args.k} must be below --points {args.points}")
    if not math.isfinite(args.curvature):
        raise ValidationError(f"--curvature must be finite, got {args.curvature}")
    rng = stream_rng(args.seed, "noise")
    standard = sample_standard_noise((args.samples, args.dim), args.sigma, rng).data

    mset = synth_manifold(args.points, args.dim, args.intrinsic,
                          args.curvature, args.seed)
    index = build_index(mset.points)
    with np.errstate(over="ignore"):
        overflow = not np.isfinite(index.sq_norms).all()
    if overflow:
        # The kNN search and Gram-Schmidt square these coordinates.
        raise ValidationError(f"--curvature {args.curvature} is too large: the manifold's"
                              " squared norms overflow float64")
    basis = neighborhood_basis(index, mset.points[0], k=args.k)
    if basis is None:
        raise ContractError("pca-spectrum: degenerate neighborhood, no basis")
    batch = np.stack([sample_inmanifold_noise(mset.points[0], basis, args.sigma, rng).data
                      for _ in range(args.samples)])
    for noise in (standard, batch):
        # The spectrum is divided by the covariance's trace, at most d times
        # the largest variance, so that must be finite; a variance below the
        # smallest normal float64 has lost its precision.
        with np.errstate(over="ignore", under="ignore"):
            top = noise.var(axis=0, ddof=1).max()
            if not args.dim * top < np.inf:
                raise ValidationError(f"--sigma {args.sigma} is too large: the noise's total"
                                      " variance overflows float64")
            if top < np.finfo(np.float64).tiny:
                raise ValidationError(f"--sigma {args.sigma} is too small: the noise variance"
                                      " underflows float64")
    std_rep = pca_noise_spectrum(standard, source="standard")
    man_rep = pca_noise_spectrum(batch, source="in_manifold")

    rows = [(rep.source, rank, val)
            for rep in (std_rep, man_rep)
            for rank, val in enumerate(rep.sorted_eigenvalues, start=1)]
    _write_output(args, ("source", "rank", "normalized_eigenvalue"), rows)
    m = min(10, args.dim)
    print(f"top-{m} mass: standard {std_rep.top_mass(m):.4f}, "
          f"in_manifold {man_rep.top_mass(m):.4f}")
    return 0


def _cmd_bench(args) -> int:
    kwargs = {"reps": args.reps}
    for name in ("standard_rows", "k_values", "index_sizes"):
        text = getattr(args, name)
        if text is not None:
            # A basis cannot hold more directions than its sample dimension.
            cast = _int_at_least(1, BENCH_SAMPLE_DIM if name == "k_values" else None)
            kwargs[name] = tuple(_comma_list(text, cast, "--" + name.replace("_", "-")))
    report = bench_complexity(seed=args.seed, **kwargs)
    rows = [("timing", r.kind, r.size, r.median_seconds, r.reps, None)
            for r in report.records]
    rows += [("exponent", kind, None, None, None, value)
             for kind, value in sorted(report.exponents.items())]
    _write_output(args, ("record", "kind", "size", "median_seconds", "reps", "exponent"),
                  rows)
    for kind, value in sorted(report.exponents.items()):
        print(f"{kind}: fitted exponent {value:.3f}")
    return 0


def _cmd_gap_report(args) -> int:
    settings = Settings(args)
    train_ds, dev_ds = settings.datasets()
    modes = _comma_list(args.modes, str.strip, "--modes", distinct=True)
    seeds = _comma_list(args.seeds, int, "--seeds", minimum=2, distinct=True)
    rows = []
    summaries = []
    for mode in modes:
        cfg = config_for_mode(settings.train, mode)
        summary = multi_seed(settings.encoder, train_ds, dev_ds, cfg, seeds)
        summaries.append((mode, summary))
        for run in summary.per_seed:
            rows.append(("run", mode, run.seed, run.final_train_metric,
                         run.final_dev_metric, run.generalization_gap,
                         None, None, None, None, None, None))
        rows.append(("summary", mode, None, None, None, None,
                     summary.dev_mean, summary.dev_std, summary.dev_max,
                     summary.gap_mean, summary.gap_std, summary.gap_max))
    _write_output(args,
                  ("record", "mode", "seed", "final_train_metric", "final_dev_metric",
                   "generalization_gap", "dev_mean", "dev_std", "dev_max",
                   "gap_mean", "gap_std", "gap_max"),
                  rows)
    for mode, summary in summaries:
        print(f"{mode}: dev {summary.dev_mean:.4f} (std {summary.dev_std:.4f}), "
              f"gap {summary.gap_mean:.4f} (std {summary.gap_std:.4f})")
    return 0


# -------------------------------------------------------------------- main

def build_parser() -> _Parser:
    parser = _Parser(prog="lnsrlab",
                     description="Noise-stability training and diagnostics.")
    # Only the commands that build an encoder read --config.  There an unset
    # --seed leaves the file's [train] seed; elsewhere it is 0.
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", default=None,
                            help="INI config with [encoder]/[noise]/[regularizer]/[train]/[data]")
    seeded = argparse.ArgumentParser(add_help=False)
    for common, seed in ((configured, None), (seeded, 0)):
        common.add_argument("--seed", type=_int_at_least(0), default=seed,
                            help="master seed (a non-negative integer)")
        common.add_argument("--out", default=".", help="output directory for CSV files")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", parents=[configured],
                       help="one training run, per-epoch metrics to CSV")
    p.add_argument("--save-model", default=None,
                   help="also write the trained weights to this checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sweep", parents=[configured],
                       help="multi-seed summaries while varying one knob")
    p.add_argument("--param", required=True,
                   choices=("injection_layer", "rel_magnitude"))
    p.add_argument("--values", required=True,
                   help="comma-separated settings of the swept parameter")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-claim1", parents=[seeded],
                       help="second-order expansion vs Monte Carlo on a random smooth map")
    p.add_argument("--dim", type=_int_at_least(1), default=8)
    p.add_argument("--sigmas", default="0.1,0.05,0.01")
    p.add_argument("--mc-samples", type=_int_at_least(MC_MIN_SAMPLES), default=20000)
    p.set_defaults(func=_cmd_verify_claim1)

    p = sub.add_parser("cross-term", parents=[seeded],
                       help="Monte-Carlo means of the odd cross term over random pairs")
    p.add_argument("--pairs", type=_int_at_least(1), default=20)
    p.add_argument("--dim", type=_int_at_least(1), default=6)
    p.add_argument("--sigma", type=_positive_float, default=0.05)
    p.add_argument("--mc-samples", type=_int_at_least(MC_MIN_SAMPLES), default=100000)
    p.set_defaults(func=_cmd_cross_term)

    p = sub.add_parser("noise-curve", parents=[configured],
                       help="per-layer deviation ratios after noise injection")
    p.add_argument("--injection-layer", type=_int_at_least(1), default=1,
                   help="add the noise to this block's input (block 1's input is the"
                        " embedding output); at most the number of blocks")
    p.add_argument("--rel-magnitude", type=float, default=0.05,
                   help="noise norm per token as a fraction of that token's clean"
                        " input norm; finite and >= 0")
    p.add_argument("--probes", type=_int_at_least(1), default=64, metavar="N",
                   help="measure the first N dev examples, or all of them if the dev set"
                        " is smaller; the CSV's n_probes column gives the number used")
    p.add_argument("--checkpoint", default=None,
                   help="measure a saved model instead of a fresh one")
    p.set_defaults(func=_cmd_noise_curve)

    p = sub.add_parser("pca-spectrum", parents=[seeded],
                       help="covariance spectra of standard vs neighborhood noise")
    p.add_argument("--dim", type=_int_at_least(2), default=16)
    p.add_argument("--intrinsic", type=_int_at_least(1), default=3)
    p.add_argument("--points", type=_int_at_least(2), default=400)
    p.add_argument("--samples", type=_int_at_least(2), default=400)
    p.add_argument("--k", type=_int_at_least(1), default=10)
    p.add_argument("--sigma", type=_positive_float, default=1.0)
    p.add_argument("--curvature", type=float, default=0.0)
    p.set_defaults(func=_cmd_pca_spectrum)

    p = sub.add_parser("bench", parents=[seeded],
                       help="noise-pipeline timings with fitted scaling exponents")
    p.add_argument("--reps", type=_int_at_least(BENCH_MIN_REPS), default=7)
    p.add_argument("--standard-rows", default=None)
    p.add_argument("--k-values", default=None)
    p.add_argument("--index-sizes", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gap-report", parents=[configured],
                       help="train/dev gap comparison across objective modes")
    p.add_argument("--modes", default="ft,lnsr_standard")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.set_defaults(func=_cmd_gap_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
