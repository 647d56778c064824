"""The symmetric eigensolver (LAPACK on one BLAS thread, after a
power-of-two prescale) against np.linalg oracles and closed forms, its
input checks and its failure path, the BLAS thread-count invariance of it,
of the neighbourhood bases and of the CLI's CSVs, and the one-thread pin."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lnsrlab
from lnsrlab import linalg
from lnsrlab.data import synth_manifold
from lnsrlab.encoder import EncoderConfig, build_encoder
from lnsrlab.errors import ContractError, ShapeError
from lnsrlab.linalg import jacobi_eigh

RNG = np.random.default_rng(7)


def random_symmetric(n, rng):
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def test_hand_2x2():
    vals = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(vals, [3.0, 1.0], atol=1e-12)


def test_matches_numpy_eigh():
    for n in (1, 2, 3, 5, 8, 12, 127, 128):
        a = random_symmetric(n, RNG)
        vals = jacobi_eigh(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert vals.shape == (n,)
        assert np.allclose(vals, ref, atol=1e-9)
        assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()


def test_descending_order_and_repeated_eigenvalues():
    vals = jacobi_eigh(np.eye(4) * 2.0)
    assert np.allclose(vals, 2.0)
    a = np.diag([1.0, 5.0, 3.0])
    vals = jacobi_eigh(a)
    assert np.allclose(vals, [5.0, 3.0, 1.0])


def test_rejects_nonsymmetric_and_nonsquare():
    with pytest.raises(ContractError):
        jacobi_eigh([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ShapeError):
        jacobi_eigh(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_before_symmetry(bad):
    a = np.eye(3)
    a[0, 1] = bad
    with pytest.raises(ContractError, match="non-finite entries"):
        jacobi_eigh(a)


def test_lapack_failure_is_a_contract_error(monkeypatch):
    a = random_symmetric(20, np.random.default_rng(20))

    def fails(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fails)
    with pytest.raises(ContractError, match=r"jacobi_eigh: LAPACK did not converge"
                                            r" \(Eigenvalues did not converge\)"):
        jacobi_eigh(a)
    monkeypatch.undo()
    vals = jacobi_eigh(a)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[::-1], atol=1e-9)


@pytest.mark.parametrize("k", [-600, 0, 600])
@pytest.mark.parametrize("n", [1, 2, 7, 16])
def test_power_of_two_scaling_is_exact(k, n):
    # At 2**600 the entries' squares overflow float64, at 2**-600 they
    # underflow; the spectrum must still scale with the matrix bit for bit.
    x = np.random.default_rng(n).normal(size=(3 * n, n))
    a = x.T @ x / (3 * n - 1)
    assert np.array_equal(jacobi_eigh(np.ldexp(a, k)), np.ldexp(jacobi_eigh(a), k))


@pytest.mark.parametrize("a", [np.diag([1.0, 5.0, 3.0, -2.0, 0.0]), np.zeros((4, 4)),
                               3.0 * np.eye(50)])
def test_diagonal_input_needs_no_sweep(a):
    """A diagonal matrix's eigenvalues are its diagonal, exactly."""
    vals = jacobi_eigh(a)
    assert np.array_equal(vals, np.sort(a.diagonal())[::-1])


def test_tridiagonal_input_passes_through_the_reduction():
    """tridiag(-1, 2, -1) of order n has eigenvalues 2 - 2 cos(j pi / (n+1))."""
    n = 50
    a = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.abs(jacobi_eigh(a) - exact[::-1]).max() <= 1e-14 * exact.max()


def test_split_tridiagonal_deflates_at_the_zero():
    """Blocks [[1, -1], [-1, 1]], [0] and [[2, 1], [1, 2]]: a tridiagonal
    that splits at zero off-diagonal entries, with a singular block."""
    a = np.zeros((5, 5))
    a[:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]
    a[3:, 3:] = [[2.0, 1.0], [1.0, 2.0]]
    assert np.allclose(jacobi_eigh(a), [3.0, 2.0, 1.0, 0.0, 0.0], atol=1e-15)


def test_wilkinson_close_pairs():
    """W21+ (diagonal |10 - i|, unit off-diagonal): its large eigenvalues
    come in pairs that agree to many digits, the top pair to within 1e-13."""
    a = np.diag(np.abs(10.0 - np.arange(21.0))) + np.eye(21, k=1) + np.eye(21, k=-1)
    vals = jacobi_eigh(a)
    ref = np.linalg.eigvalsh(a)[::-1]
    assert np.abs(vals - ref).max() <= 1e-12 * ref[0]
    assert np.all(np.diff(vals) <= 0.0)


def test_rank_one_covariance():
    rng = np.random.default_rng(1)
    x = np.outer(rng.normal(size=500), rng.normal(size=64))
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    vals = jacobi_eigh(cov)
    ref = np.linalg.eigvalsh(cov)[::-1]
    assert np.abs(vals - ref).max() <= 1e-12 * ref[0]
    assert vals[0] == pytest.approx(np.trace(cov), rel=1e-12)
    assert np.abs(vals[1:]).max() <= 1e-12 * ref[0]


_SOLVE_SCRIPT = """
import sys
import numpy as np
from lnsrlab.linalg import jacobi_eigh
for n in (127, 128, 256):
    m = np.random.default_rng(n).normal(size=(n, n))
    sys.stdout.write(jacobi_eigh(m + m.T).tobytes().hex() + "\\n")
"""


def outputs_under_one_and_two_blas_threads(script, *args):
    """The stdout of ``script`` run in a process with one OpenBLAS thread
    and in one with two."""
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(lnsrlab.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", script, *args], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        outputs.append(run.stdout)
    return outputs


def test_spectrum_does_not_depend_on_the_blas_thread_count():
    """The same matrices, built with elementwise operations only, solved in
    processes with one and with two OpenBLAS threads give the same bytes."""
    outputs = outputs_under_one_and_two_blas_threads(_SOLVE_SCRIPT)
    assert len(outputs[0].split()) == 3
    assert outputs[0] == outputs[1]


_BASES_SCRIPT = """
import hashlib
import sys
import numpy as np
from lnsrlab.manifold import build_index, neighborhood_bases
tables = np.load(sys.argv[1])
for name in ("geometry", "gap"):
    bases, sizes = neighborhood_bases(build_index(tables[name]), tables[name + "_queries"], 10)
    digest = hashlib.sha256(bases.tobytes() + sizes.tobytes()).hexdigest()
    sys.stdout.write(f"{name} {sizes.min()} {digest}\\n")
"""


def test_bases_do_not_depend_on_the_blas_thread_count(tmp_path):
    """``neighborhood_bases`` at the ``geometry`` workload's shape (a 10k x
    128 manifold, 64 queries) and at ``gap``'s (the 30 x 16 token table, 128
    queries), on inputs built here and saved, gives the same bytes in
    processes with one and with two OpenBLAS threads."""
    points = synth_manifold(10_000, 128, 10, 0.05, 11).points
    cfg = EncoderConfig(vocab_size=30, embed_dim=16, num_layers=2, num_heads=2,
                        ffn_dim=32, max_seq_len=8)
    vocab = build_encoder(cfg, 1).tok_emb.data
    rng = np.random.default_rng(3)
    path = tmp_path / "tables.npz"
    np.savez(path, geometry=points, geometry_queries=points[rng.choice(10_000, 64)],
             gap=vocab, gap_queries=vocab[rng.integers(0, 30, 128)])
    outputs = outputs_under_one_and_two_blas_threads(_BASES_SCRIPT, str(path))
    assert [line.split()[:2] for line in outputs[0].splitlines()] == [
        ["geometry", "10"], ["gap", "10"]]
    assert outputs[0] == outputs[1]


_CLI_SCRIPT = """
import contextlib
import glob
import os
import sys
import tempfile
from lnsrlab.cli import main
with tempfile.TemporaryDirectory() as out:
    for command in (["pca-spectrum", "--dim", "127"], ["train"], ["noise-curve"]):
        with contextlib.redirect_stdout(sys.stderr):
            assert main(command + ["--out", out]) == 0
        (path,) = glob.glob(os.path.join(out, command[0] + "-*.csv"))
        with open(path) as fh:
            sys.stdout.write(command[0] + "\\n" + fh.read())
"""


def test_cli_csvs_do_not_depend_on_the_blas_thread_count():
    """``pca-spectrum --dim 127``, whose covariance product rounds
    differently when OpenBLAS splits it over two threads, ``train`` and
    ``noise-curve`` write the same CSV contents in processes with one and
    with two OpenBLAS threads, because ``cli.main`` pins one."""
    outputs = outputs_under_one_and_two_blas_threads(_CLI_SCRIPT)
    assert [line for line in outputs[0].splitlines() if "," not in line] == [
        "pca-spectrum", "train", "noise-curve"]
    assert outputs[0] == outputs[1]


def test_rank_deficient_covariance():
    """The in-manifold spectrum's shape: a rank-10 covariance in 128 dims.
    Its zero cluster stays at the matrix's rounding level."""
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1000, 10)) @ rng.normal(size=(10, 128))
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    vals = jacobi_eigh(cov)
    ref = np.linalg.eigvalsh(cov)[::-1]
    assert np.abs(vals - ref).max() <= 1e-12 * ref[0]
    assert np.abs(vals[10:]).max() <= 1e-12 * ref[0]


@pytest.mark.parametrize("apq", [1e-310, 1e-160])
def test_tiny_off_diagonal_keeps_its_rotation(apq):
    """The first column below the diagonal is (0, 0, apq), whose square
    underflows to zero (apq = 1e-310) or to a subnormal (apq = 1e-160);
    the (1, 2) block of the matrix keeps it from being diagonal."""
    a = np.array([[0.0, 0.0, 0.0, apq],
                  [0.0, 2.0, 1.0, 0.0],
                  [0.0, 1.0, 2.0, 0.0],
                  [apq, 0.0, 0.0, 1.0]])
    assert np.allclose(jacobi_eigh(a), [3.0, 1.0, 1.0, 0.0], atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 7))
def test_property_reconstruction(seed, n):
    """The spectrum reconstructs the matrix's invariants: its trace and its
    squared Frobenius norm, and numpy's eigenvalues."""
    rng = np.random.default_rng(seed)
    a = random_symmetric(n, rng)
    vals = jacobi_eigh(a)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.sum() == pytest.approx(np.trace(a), abs=1e-8)
    assert (vals * vals).sum() == pytest.approx((a * a).sum(), rel=1e-10)
    assert np.allclose(vals, np.linalg.eigvalsh(a)[::-1], atol=1e-8)


def test_one_blas_thread_pins_and_restores_the_count():
    """Inside the block numpy's bundled OpenBLAS runs one thread; after it,
    and after an error in it, the count it found is back.  This numpy's
    OpenBLAS must be found: a missing one fails here, not only warns."""
    get, set_ = linalg._openblas_thread_calls()
    found = get()
    try:
        set_(2)
        with linalg.one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(KeyError), linalg.one_blas_thread():
            raise KeyError
        assert get() == 2
    finally:
        set_(found)


@pytest.mark.parametrize("fault", ["library", "symbol"])
def test_one_blas_thread_warns_and_runs_unpinned_without_openblas(monkeypatch, caplog, fault):
    import ctypes

    def cdll(path):
        if fault == "library":
            raise OSError(f"{path}: cannot open shared object file")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    # The calls are looked up once per process: forget the ones found so far.
    linalg._openblas_thread_calls.cache_clear()
    ran = []
    for _ in range(2):
        with linalg.one_blas_thread():
            ran.append(True)
    assert ran == [True, True]
    # A failed lookup is not cached: every entry tries again and warns.
    assert caplog.text.count("one_blas_thread: no OpenBLAS thread calls") == 2
