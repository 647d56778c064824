"""End-to-end CLI tests: commands run in-process via main(argv).

Each command is exercised with small workloads against a temp directory;
exit codes and the CSV contract (header row, repr-round-trip floats) are
the surface under test.
"""

import csv
import glob
import os
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from lnsrlab.cli import (
    _DATA_DEFAULTS,
    Settings,
    _fmt,
    build_parser,
    load_config_file,
    main,
    write_csv,
)
from lnsrlab.data import synth_manifold
from lnsrlab.diagnostics import pca_noise_spectrum
from lnsrlab.encoder import EncoderConfig, build_encoder, load_checkpoint, save_checkpoint
from lnsrlab.errors import ValidationError
from lnsrlab.manifold import build_index, neighborhood_basis, sample_inmanifold_noise
from lnsrlab.noise import NoiseSpec, sample_standard_noise
from lnsrlab.objective import RegularizerConfig
from lnsrlab.rng import stream_rng
from lnsrlab.trainer import TrainConfig, run_training


def _only_csv(out_dir, command):
    hits = glob.glob(os.path.join(out_dir, f"{command}-*.csv"))
    assert len(hits) == 1, hits
    return hits[0]


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if a.choices).choices


# -------------------------------------------------------------- happy paths

def test_train_writes_epoch_csv(tmp_path):
    out = str(tmp_path)
    assert main(["train", "--out", out, "--seed", "5"]) == 0
    rows = _read(_only_csv(out, "train"))
    assert rows[0] == ["epoch", "train_loss", "train_metric", "dev_metric"]
    assert len(rows) == 3  # header + 2 default epochs
    # repr round-trip: the written string parses to the same float again
    loss = float(rows[1][1])
    assert repr(loss) == rows[1][1]


def test_train_save_model_checkpoint(tmp_path):
    out = str(tmp_path)
    ckpt = str(tmp_path / "model.bin")
    assert main(["train", "--out", out, "--seed", "3", "--save-model", ckpt]) == 0
    model = load_checkpoint(ckpt)
    assert model.config.num_layers == 2
    # The saved weights are the trained ones, bit for bit.
    class Args:
        config = None
        seed = 3
    settings = Settings(Args())
    result = run_training(settings.encoder, *settings.datasets(), settings.train)
    params = model.parameters()
    assert len(params) == len(result.final_params)
    for p, want in zip(params, result.final_params):
        assert p.data.shape == want.shape and np.array_equal(p.data, want)


def test_train_is_deterministic_per_seed(tmp_path):
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--out", out_a, "--seed", "9"]) == 0
    assert main(["train", "--out", out_b, "--seed", "9"]) == 0
    a = open(_only_csv(out_a, "train"), "rb").read()
    b = open(_only_csv(out_b, "train"), "rb").read()
    assert a == b


@pytest.mark.parametrize("param, values, written", [
    ("rel_magnitude", "0.05,0.1", ["0.05", "0.1"]),
    ("injection_layer", "1,2", ["1.0", "2.0"]),
], ids=["rel_magnitude", "injection_layer"])
def test_sweep_command(tmp_path, param, values, written):
    out = str(tmp_path)
    assert main(["sweep", "--out", out, "--param", param,
                 "--values", values, "--seeds", "0,1"]) == 0
    rows = _read(_only_csv(out, "sweep"))
    assert rows[0][0] == "param"
    assert [r[:3] for r in rows[1:]] == [[param, v, "2"] for v in written]
    assert all(np.isfinite(float(cell)) for r in rows[1:] for cell in r[3:])
    assert rows[1][3:] != rows[2][3:]  # each value reaches the training runs


def test_sweep_row_equals_gap_report_summary(tmp_path):
    """Sweeping the default magnitude trains what gap-report's default
    lnsr_standard mode trains, so all six statistics agree."""
    sweep_out, gap_out = str(tmp_path / "sweep"), str(tmp_path / "gap")
    assert main(["sweep", "--out", sweep_out, "--param", "rel_magnitude",
                 "--values", "0.05", "--seeds", "0,1"]) == 0
    assert main(["gap-report", "--out", gap_out, "--modes", "lnsr_standard",
                 "--seeds", "0,1"]) == 0
    (row,) = _read(_only_csv(sweep_out, "sweep"))[1:]
    (summary,) = [r for r in _read(_only_csv(gap_out, "gap-report")) if r[0] == "summary"]
    assert row[3:] == summary[6:]


def test_verify_claim1_command(tmp_path):
    out = str(tmp_path)
    assert main(["verify-claim1", "--out", out, "--dim", "4",
                 "--sigmas", "0.1,0.05", "--mc-samples", "2000"]) == 0
    rows = _read(_only_csv(out, "verify-claim1"))
    assert rows[0][0] == "sigma"
    assert len(rows) == 3
    for row in rows[1:]:
        for cell in row:
            assert repr(float(cell)) == cell


def test_cross_term_command(tmp_path):
    out = str(tmp_path)
    assert main(["cross-term", "--out", out, "--pairs", "3",
                 "--dim", "4", "--mc-samples", "2000"]) == 0
    rows = _read(_only_csv(out, "cross-term"))
    assert len(rows) == 4
    assert rows[0] == ["pair", "dim", "sigma", "mc_mean", "mc_se",
                       "abs_mean_over_se"]


def test_noise_curve_command(tmp_path):
    out = str(tmp_path)
    assert main(["noise-curve", "--out", out, "--probes", "8",
                 "--rel-magnitude", "0.05"]) == 0
    rows = _read(_only_csv(out, "noise-curve"))
    assert rows[0][0] == "layer"
    assert float(rows[1][1]) == pytest.approx(0.05, abs=1e-6)


def test_pca_spectrum_command(tmp_path):
    out = str(tmp_path)
    assert main(["pca-spectrum", "--out", out, "--dim", "12", "--intrinsic", "3",
                 "--points", "200", "--samples", "150", "--k", "8"]) == 0
    rows = _read(_only_csv(out, "pca-spectrum"))
    sources = {r[0] for r in rows[1:]}
    assert sources == {"standard", "in_manifold"}
    # each source contributes one row per dimension
    assert len(rows) - 1 == 2 * 12


def test_bench_command(tmp_path):
    out = str(tmp_path)
    assert main(["bench", "--out", out, "--reps", "5",
                 "--standard-rows", "64,128", "--k-values", "4,8",
                 "--index-sizes", "64,128"]) == 0
    rows = _read(_only_csv(out, "bench"))
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"timing", "exponent"}


def test_gap_report_command(tmp_path):
    out = str(tmp_path)
    assert main(["gap-report", "--out", out, "--modes", "ft,lnsr_standard",
                 "--seeds", "0,1"]) == 0
    rows = _read(_only_csv(out, "gap-report"))
    run_rows = [r for r in rows[1:] if r[0] == "run"]
    summary_rows = [r for r in rows[1:] if r[0] == "summary"]
    assert len(run_rows) == 4       # 2 modes x 2 seeds
    assert len(summary_rows) == 2


# -------------------------------------------------------------- config file

def test_config_file_applies(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[encoder]\nvocab_size = 44\nembed_dim = 16\n"
                   "[train]\nepochs = 1\nlr = 0.004\n"
                   "[noise]\nrel_magnitude = none\n")
    class Args:
        config = str(ini)
        seed = None
    s = Settings(Args())
    assert s.encoder.vocab_size == 44
    assert s.encoder.embed_dim == 16
    assert s.train.epochs == 1
    assert s.train.lr == 0.004
    assert s.train.noise.rel_magnitude is None


def test_cli_seed_overrides_config(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[train]\nseed = 2\n")
    class Args:
        config = str(ini)
        seed = 7
    assert Settings(Args()).train.seed == 7


def test_config_file_errors(tmp_path):
    missing = str(tmp_path / "nope.ini")
    with pytest.raises(ValidationError):
        load_config_file(missing)
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ValidationError):
        load_config_file(str(bad_section))
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[train]\nnot_a_key = 1\n")
    with pytest.raises(ValidationError):
        load_config_file(str(bad_key))
    bad_value = tmp_path / "c.ini"
    bad_value.write_text("[train]\nlr = fast\n")
    with pytest.raises(ValidationError):
        load_config_file(str(bad_value))


# One non-default value for every key of every section.
_EVERY_KEY = {
    "encoder": {"vocab_size": 40, "embed_dim": 12, "num_layers": 3, "num_heads": 3,
                "ffn_dim": 20, "max_seq_len": 9, "num_classes": 4, "regression": True},
    "noise": {"mode": "in_manifold", "sigma": 0.25, "rel_magnitude": None},
    "regularizer": {"lambda_weights": (0.5, 0.25), "mode": "lnsr_inmanifold",
                    "injection_layer": 2},
    "train": {"lr": 0.004, "batch_size": 5, "beta1": 0.8, "beta2": 0.99,
              "adam_eps": 1e-7, "weight_decay": 0.01, "warmup_ratio": 0.1,
              "epochs": 4, "seed": 6, "knn_k": 7},
    "data": {"n_per_class": 9, "num_classes": 3, "seq_len": 6, "margin": 0.4,
             "seed": 2, "train_path": "a.tsv", "dev_path": "b.tsv"},
}


def test_config_keys_are_the_config_dataclass_fields(tmp_path):
    """Each section accepts every field of its config dataclass (nested
    configs aside) and casts it to the field's type; [data] accepts the
    keys of its defaults."""
    defaults = {section: {f.name: f.default for f in fields(config)
                          if not is_dataclass(f.type)}
                for section, config in (("encoder", EncoderConfig), ("noise", NoiseSpec),
                                        ("regularizer", RegularizerConfig),
                                        ("train", TrainConfig))}
    defaults["data"] = _DATA_DEFAULTS
    assert {s: set(keys) for s, keys in defaults.items()} == \
        {s: set(keys) for s, keys in _EVERY_KEY.items()}
    text = ""
    for section, values in _EVERY_KEY.items():
        text += f"[{section}]\n"
        for key, value in values.items():
            raw = ",".join(map(str, value)) if isinstance(value, tuple) else _fmt(value)
            text += f"{key} = {raw or 'none'}\n"
    ini = tmp_path / "every.ini"
    ini.write_text(text)
    got = load_config_file(str(ini))
    assert got == _EVERY_KEY
    for section, values in _EVERY_KEY.items():
        for key, want in values.items():
            assert type(got[section][key]) is type(want), (section, key)
            assert want != defaults[section][key], (section, key)


@pytest.mark.parametrize("section, key", [("train", "noise"), ("train", "reg"),
                                          ("regularizer", "norm_reduction")])
def test_config_keys_outside_the_schema_exit_1(tmp_path, capsys, section, key):
    ini = tmp_path / "extra.ini"
    ini.write_text(f"[{section}]\n{key} = sum_squares\n")
    assert main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 1
    assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err


def test_lambda_weights_list_parses(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[regularizer]\nlambda_weights = 0.5,0.25\n")
    class Args:
        config = str(ini)
        seed = None
    s = Settings(Args())
    assert s.train.reg.lambda_weights == (0.5, 0.25)


# ----------------------------------------------------------------- TSV data

TSV_TRAIN = ("0\tapple pear fig apple\n0\tpear plum fig\n0\tfig apple plum pear\n"
             "1\tcar bus tram\n1\tbus car car van\n1\tvan tram bus\n"
             "2\tred blue green\n2\tblue red red teal\n2\tteal green blue\n")
TSV_DEV = "0\tplum apple kiwi\n1\ttram van car\n2\tgreen teal red\n"


def _tsv_config(tmp_path, encoder="num_classes = 3\n"):
    (tmp_path / "train.tsv").write_text(TSV_TRAIN, encoding="utf-8")
    (tmp_path / "dev.tsv").write_text(TSV_DEV, encoding="utf-8")
    ini = tmp_path / "tsv.ini"
    ini.write_text(f"[encoder]\n{encoder}[data]\ntrain_path = {tmp_path / 'train.tsv'}\n"
                   f"dev_path = {tmp_path / 'dev.tsv'}\n")
    return str(ini)


def test_train_on_tsv_files(tmp_path):
    """Three labels from TSV files train a three-class encoder, and the
    same seed writes the same CSV."""
    ini = _tsv_config(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--config", ini, "--out", out_a, "--seed", "4"]) == 0
    assert main(["train", "--config", ini, "--out", out_b, "--seed", "4"]) == 0
    a, b = _only_csv(out_a, "train"), _only_csv(out_b, "train")
    rows = _read(a)
    assert rows[0] == ["epoch", "train_loss", "train_metric", "dev_metric"]
    assert len(rows) == 3
    assert open(a, "rb").read() == open(b, "rb").read()


LONG_LINE = "0\tapple pear fig apple pear fig apple pear fig plum\n"


@pytest.mark.parametrize("command, synthetic, encoder, needs, long_line_in", [
    ("train", True, "", "EncoderConfig.num_classes must be >= 3", None),
    ("gap-report", True, "", "EncoderConfig.num_classes must be >= 3", None),
    ("train", False, "", "EncoderConfig.num_classes must be >= 3", None),
    ("train", False, "num_classes = 3\nvocab_size = 12\n",
     "EncoderConfig.vocab_size must be >= 14", None),
    ("train", False, "num_classes = 3\n", "EncoderConfig.max_seq_len must be >= 10", "train"),
    ("noise-curve", False, "", "EncoderConfig.max_seq_len must be >= 10", "dev"),
    ("noise-curve", False, "vocab_size = 5\n", "EncoderConfig.vocab_size must be >= 14", None),
], ids=["synthetic-train", "synthetic-gap-report", "tsv-labels", "tsv-vocab", "tsv-seq-len",
        "noise-curve-seq-len", "noise-curve-vocab"])
def test_data_that_does_not_fit_the_encoder_exits_1(tmp_path, capsys, command, synthetic,
                                                    encoder, needs, long_line_in):
    """More classes, token ids or sequence positions than the encoder has
    is a configuration error naming the field and the value it needs, not
    a runtime failure; ``noise-curve`` checks its probe set."""
    if synthetic:
        ini = tmp_path / "exp.ini"
        ini.write_text("[data]\nnum_classes = 3\n")
        ini = str(ini)
    else:
        ini = _tsv_config(tmp_path, encoder=encoder)
    if long_line_in:
        with open(tmp_path / f"{long_line_in}.tsv", "a", encoding="utf-8") as fh:
            fh.write(LONG_LINE)
    out = str(tmp_path / "out")
    assert main([command, "--config", ini, "--out", out]) == 1
    assert needs in capsys.readouterr().err
    assert not glob.glob(os.path.join(out, "*.csv"))


def test_noise_curve_reads_no_labels(tmp_path):
    """Three classes of probes against a two-class head: the curve reads
    only token ids, so it runs."""
    out = str(tmp_path / "out")
    assert main(["noise-curve", "--config", _tsv_config(tmp_path, encoder=""),
                 "--out", out]) == 0
    assert len(_read(_only_csv(out, "noise-curve"))) == 3  # header + layers 1, 2


# --------------------------------------------------------------- exit codes

def test_bad_arguments_exit_1(tmp_path, capsys):
    assert main(["train", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["sweep", "--values", "1"]) == 1          # missing --param
    assert main(["train", "--config", str(tmp_path / "missing.ini")]) == 1
    capsys.readouterr()
    out = ["--out", str(tmp_path)]
    for command in _subcommands():
        assert main([command, "--seed", "-1"] + out) == 1
        assert "--seed" in capsys.readouterr().err
    for command in ("verify-claim1", "cross-term", "pca-spectrum", "bench"):
        # These read no config file, so --config is an unknown argument.
        assert main([command, "--config", "x.ini"] + out) == 1
        assert "--config" in capsys.readouterr().err
    for argv in (["sweep", "--param", "rel_magnitude", "--values", ","],
                 ["sweep", "--values", "0.1", "--param", "sigma"],
                 ["sweep", "--param", "injection_layer", "--values", "1.5"],
                 ["bench", "--standard-rows", ","],
                 ["verify-claim1", "--sigmas", ","],
                 ["gap-report", "--modes", ","]):
        assert main(argv + out) == 1
        assert argv[-2] in capsys.readouterr().err
    for command in ("sweep", "gap-report"):
        extra = ["--param", "rel_magnitude", "--values", "0.05"] if command == "sweep" else []
        assert main([command, "--seeds", "0"] + extra + out) == 1
        assert "--seeds" in capsys.readouterr().err
    # Numbers out of range exit 1 naming the option, and write nothing.
    for argv in (["bench", "--reps", "3"],
                 ["bench", "--standard-rows", "0"],
                 ["noise-curve", "--injection-layer", "5"],
                 ["noise-curve", "--injection-layer", "0"],
                 ["noise-curve", "--probes", "0"],
                 ["noise-curve", "--rel-magnitude", "-1"],
                 ["verify-claim1", "--dim", "0"],
                 ["verify-claim1", "--mc-samples", "10"],
                 ["cross-term", "--mc-samples", "10"],
                 ["cross-term", "--pairs", "0"],
                 ["pca-spectrum", "--samples", "1"],
                 ["pca-spectrum", "--intrinsic", "16"],
                 ["pca-spectrum", "--k", "0"]):
        assert main(argv + out) == 1, argv
        assert argv[-2] in capsys.readouterr().err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))
    ini = tmp_path / "data.ini"
    ini.write_text("[data]\nseed = -1\n")
    assert main(["train", "--config", str(ini)] + out) == 1
    assert "[data] seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["cross-term", "--sigma", "-1"], "--sigma"),
    (["verify-claim1", "--sigmas", "-0.1"], "--sigmas"),
    (["pca-spectrum", "--sigma", "0"], "--sigma"),
    (["bench", "--k-values", "100"], "--k-values"),
    (["pca-spectrum", "--points", "5", "--k", "10"], "--k"),
    (["pca-spectrum", "--points", "5", "--k", "5"], "--k"),
    (["pca-spectrum", "--curvature", "nan"], "--curvature"),
    (["pca-spectrum", "--curvature=-inf"], "--curvature"),
    (["pca-spectrum", "--curvature", "1e308"], "--curvature"),
    (["pca-spectrum", "--curvature=-1e200"], "--curvature"),
    (["pca-spectrum", "--sigma", "1e-200"], "--sigma"),
    (["pca-spectrum", "--sigma", "1e200"], "--sigma"),
    (["pca-spectrum", "--sigma", "1e154"], "--sigma"),
    (["pca-spectrum", "--sigma", "1e-154"], "--sigma"),
])
def test_float_and_basis_size_arguments_exit_1(tmp_path, capsys, argv, option):
    """A sigma that is not positive, whose noise's total variance
    overflows or whose variance is below the smallest normal float64, a
    basis size above its sample dimension, a neighbourhood as large as the
    point set, or a curvature that is not finite or overflows the manifold
    is an argument error naming its option, not a runtime one."""
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert option in capsys.readouterr().err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))


@pytest.mark.parametrize("argv, option, item", [
    (["sweep", "--param", "rel_magnitude", "--values", "0.05", "--seeds", "3,3"], "--seeds", "3"),
    (["gap-report", "--seeds", "0,1,0"], "--seeds", "0"),
    (["sweep", "--param", "rel_magnitude", "--values", "0.05,5e-2"], "--values", "0.05"),
    (["sweep", "--param", "injection_layer", "--values", "2,1,2"], "--values", "2"),
    (["gap-report", "--modes", "ft, ft"], "--modes", "'ft'"),
])
def test_repeated_list_items_exit_1(tmp_path, capsys, argv, option, item):
    """A repeated seed would pass one run off as a spread of two, and a
    repeated mode or value would report a row twice."""
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert option in err and f"{item} is repeated" in err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))


@pytest.mark.parametrize("sigma", ["1e150", "1e-150"])
def test_pca_spectrum_far_sigma_matches_unit_sigma(tmp_path, sigma):
    """A sigma far from 1 whose variances stay normal and whose total
    variance is finite gives the sigma = 1 spectra: the spectrum is
    normalised, and the eigensolver prescales by a power of two."""
    spectra = []
    for value in ("1", sigma):
        out = str(tmp_path / value)
        assert main(["pca-spectrum", "--out", out, "--sigma", value]) == 0
        rows = _read(_only_csv(out, "pca-spectrum"))[1:]
        spectra.append(([r[:2] for r in rows], np.array([float(r[2]) for r in rows])))
    (keys, want), (got_keys, got) = spectra
    assert got_keys == keys
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_pca_spectrum_in_manifold_rows_are_per_sample_draws(tmp_path):
    """The in-manifold spectrum is that of samples drawn one at a time
    after the standard batch, each ``sample_inmanifold_noise`` in the
    basis of the manifold's first point."""
    out = str(tmp_path)
    assert main(["pca-spectrum", "--out", out, "--seed", "2"]) == 0
    rows = _read(_only_csv(out, "pca-spectrum"))
    got = [float(r[2]) for r in rows[1:] if r[0] == "in_manifold"]
    rng = stream_rng(2, "noise")
    sample_standard_noise((400, 16), 1.0, rng)
    points = synth_manifold(400, 16, 3, 0.0, 2).points
    basis = neighborhood_basis(build_index(points), points[0], k=10)
    batch = np.stack([sample_inmanifold_noise(points[0], basis, 1.0, rng).data
                      for _ in range(400)])
    want = pca_noise_spectrum(batch, source="in_manifold").sorted_eigenvalues
    assert got == [float(v) for v in want]


def test_runtime_failure_exit_2(tmp_path, capsys):
    # A relative magnitude whose squared deviation overflows float64 gives
    # no finite ratio; the curve refuses it and no CSV is written.
    assert main(["noise-curve", "--out", str(tmp_path), "--probes", "4",
                 "--rel-magnitude", "1e200"]) == 2
    err = capsys.readouterr().err
    assert "runtime failure" in err
    assert "probe 0 " in err and "block 1 is not finite" in err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))


@pytest.mark.parametrize("fault", ["missing_checkpoint", "missing_tsv", "latin1_tsv"])
def test_unreadable_input_file_exits_1_naming_the_file(tmp_path, capsys, fault):
    """A checkpoint or TSV file that is missing, or a TSV that is not
    UTF-8, is an invalid input: exit 1, naming the file."""
    ini = _tsv_config(tmp_path)
    train = tmp_path / "train.tsv"
    argv = ["train", "--config", ini, "--out", str(tmp_path)]
    if fault == "missing_checkpoint":
        bad = tmp_path / "missing.ckpt"
        argv = ["noise-curve", "--checkpoint", str(bad), "--out", str(tmp_path)]
    elif fault == "missing_tsv":
        bad = train
        train.unlink()
    else:
        bad = train
        train.write_bytes(TSV_TRAIN.replace("fig", "fig caf\u00e9").encode("latin-1"))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{bad}: cannot read: " in err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))


def test_invalid_training_config_exit_1(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text("[train]\nlr = -1.0\n")
    assert main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 1
    capsys.readouterr()
    # Keys that configured nothing are rejected by name.
    for section, key, value in (("noise", "seed", "0"),
                                ("noise", "injection_layer", "1"),
                                ("encoder", "dropout_rate", "0.0"),
                                ("data", "kind", "classification")):
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 1
        assert repr(key) in capsys.readouterr().err
    # Non-finite numbers are rejected by field name.
    for section, key, value in (("noise", "sigma", "inf"),
                                ("noise", "rel_magnitude", "inf"),
                                ("train", "lr", "inf"),
                                ("train", "weight_decay", "inf"),
                                ("train", "seed", "-1"),
                                ("regularizer", "lambda_weights", "nan")):
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["train", "--config", str(ini), "--out", str(tmp_path)]) == 1
        assert key in capsys.readouterr().err
    # A file the INI parser rejects is a configuration error naming the file.
    for text in ("lr = 0.1\n",                                 # no section header
                 "[train]\nlr = 0.1\n[train]\nepochs = 1\n",  # duplicate section
                 "[train]\nlr = 0.1\nlr = 0.2\n",               # duplicate key
                 "[data]\ntrain_path = 50%.tsv\n"):            # bad interpolation
        ini.write_text(text)
        for command in ("train", "sweep", "noise-curve", "gap-report"):
            extra = ["--param", "rel_magnitude", "--values", "0.05"] if command == "sweep" else []
            argv = [command, "--config", str(ini), "--out", str(tmp_path)] + extra
            assert main(argv) == 1, (command, text)
            assert str(ini) in capsys.readouterr().err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))


def _corrupt_checkpoint(blob):
    return {"nan_weight": blob[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
            "bad_integer": blob.replace(b"num_layers=2\n", b"num_layers=2.5\n", 1),
            "truncated": blob[:-16],
            "bad_magic": b"LNSR9" + blob[5:]}


@pytest.mark.parametrize("fault, names", [("nan_weight", "non-finite value in parameter"),
                                          ("bad_integer", "'num_layers' is not an integer"),
                                          ("truncated", "payload bytes"),
                                          ("bad_magic", "bad magic")])
def test_corrupt_checkpoint_exits_1_naming_the_file(tmp_path, capsys, fault, names):
    """``noise-curve`` reads a good checkpoint, and each corrupt copy of it
    is an invalid input: exit 1, naming the file and what is wrong."""
    class Args:
        config = None
        seed = 0
    good = tmp_path / "good.ckpt"
    save_checkpoint(build_encoder(Settings(Args()).encoder, 0), good)
    out = ["--out", str(tmp_path)]
    assert main(["noise-curve", "--checkpoint", str(good)] + out) == 0
    capsys.readouterr()
    bad = tmp_path / f"{fault}.ckpt"
    bad.write_bytes(_corrupt_checkpoint(good.read_bytes())[fault])
    assert main(["noise-curve", "--checkpoint", str(bad)] + out) == 1
    err = capsys.readouterr().err
    assert f"checkpoint {bad}: " in err and names in err


def test_config_file_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes("[train]\nlr = 0.1\n# caf\u00e9\n".encode("latin-1"))
    for command in ("train", "noise-curve"):
        assert main([command, "--config", str(ini), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"malformed config file {ini}" in err
    assert not glob.glob(os.path.join(str(tmp_path), "*.csv"))


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_all_commands_registered():
    assert set(_subcommands()) == {"train", "sweep", "verify-claim1", "cross-term",
                                   "noise-curve", "pca-spectrum", "bench", "gap-report"}


# ------------------------------------------------------------- csv helpers

def test_fmt_values():
    assert _fmt(None) == ""
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(3) == "3"
    assert _fmt(np.int64(4)) == "4"
    x = 0.1 + 0.2
    assert float(_fmt(x)) == x


def test_write_csv_roundtrip(tmp_path):
    path = str(tmp_path / "t.csv")
    values = [1.0 / 3.0, 2.0 ** -40, 1e300, -0.0]
    write_csv(path, ("v",), [(v,) for v in values])
    rows = _read(path)
    back = [float(r[0]) for r in rows[1:]]
    assert all(a == b for a, b in zip(back, values))
