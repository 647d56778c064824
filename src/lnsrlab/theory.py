"""Numerical oracles for the noise-stability Taylor analysis.

For a smooth scalar function f and isotropic Gaussian noise eps with
per-coordinate variance sigma^2, the expected squared deviation
E[(f(x+eps)-f(x))^2] decomposes (to second order) into a Jacobian term, a
Hessian term, and a cross term that vanishes by odd-moment symmetry.  This
module computes each side independently: closed-form expressions from
finite-difference derivatives on one side, Monte-Carlo estimation on the
other, so each can falsify the other.

Two Hessian-term variants are emitted side by side.  ``r_h_paper`` is the
closed form sigma^4/4*(Tr(H)^2 + |offdiag(H)|_F^2), which counts only the
off-diagonal Frobenius mass.  ``r_h_exact``, sigma^4/4*(Tr(H)^2 +
2|H|_F^2), is the Hessian's exact Gaussian fourth-moment value; it differs
whenever H is nonzero because E[eps_i^4] = 3 sigma^4 contributes diagonal
mass the first form drops.  It is the whole sigma^4 term of E[delta^2] only
when third derivatives vanish: that term also holds J.grad(Tr H).  For
f = x^3 at x = 1 and sigma = 0.1, Monte Carlo (2e7 draws) gives
(E[delta^2] - sigma^2 J^2) / sigma^4 = 44.7 +- 0.35 where ``r_h_exact``
gives 27.  Both are first-class outputs; the Monte-Carlo estimate
adjudicates between them.  ``claim14_value`` is the combined approximation
sigma^2/4*(4|J|^2 + Tr(H)^2 + |offdiag(H)|_F^2), prefactor kept as stated
even though it folds a sigma^2 mismatch into the Hessian part.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractError

FD_JACOBIAN_H = 1e-5
# Second differences lose precision faster, so the Hessian step is coarser.
FD_HESSIAN_H = 1e-3
MC_MIN_SAMPLES = 1000


@dataclass
class TaylorReport:
    """One sigma's row of ``verify-claim1``: the fields are its CSV columns."""

    sigma: float
    mc_estimate: float
    mc_se: float
    r_j: float
    r_h_paper: float
    r_h_exact: float
    r_jh_mc: float
    claim14_value: float


def _require_finite(where: str, sigma: float, /, **values):
    for name, value in values.items():
        if not np.isfinite(value):
            raise ContractError(f"{where}: {name} is not finite at sigma={sigma!r}")


def _eval_scalar(f, x) -> float:
    v = float(f(np.asarray(x, dtype=np.float64)))
    if not np.isfinite(v):
        raise ContractError(f"function value is not finite at {x}")
    return v


def fd_jacobian(f, x) -> np.ndarray:
    """Gradient of scalar f by central differences, one coordinate at a time."""
    h = FD_JACOBIAN_H
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (_eval_scalar(f, xp) - _eval_scalar(f, xm)) / (2.0 * h)
    return g


def fd_hessian(f, x) -> np.ndarray:
    """Hessian of scalar f by central second differences, symmetrized."""
    h = FD_HESSIAN_H
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    d = x.shape[0]
    hess = np.zeros((d, d))
    f0 = _eval_scalar(f, x)
    for i in range(d):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        hess[i, i] = (_eval_scalar(f, xp) - 2.0 * f0 + _eval_scalar(f, xm)) / (h * h)
    for i in range(d):
        for j in range(i + 1, d):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            val = (_eval_scalar(f, xpp) - _eval_scalar(f, xpm)
                   - _eval_scalar(f, xmp) + _eval_scalar(f, xmm)) / (4.0 * h * h)
            hess[i, j] = hess[j, i] = val
    return 0.5 * (hess + hess.T)


def mc_noise_stability(f, x, sigma: float, n: int, rng: np.random.Generator, f_batch):
    """Monte-Carlo estimate of E[(f(x+eps)-f(x))^2], eps ~ N(0, sigma^2 I).

    Returns (estimate, standard error).  ``f`` gives f(x); ``f_batch`` maps
    an [n, d] matrix of points to their n values.
    """
    if n < MC_MIN_SAMPLES:
        raise ContractError(f"mc_noise_stability: need n >= {MC_MIN_SAMPLES}, got {n}")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    f0 = _eval_scalar(f, x)
    eps = rng.normal(0.0, sigma, size=(n, x.shape[0]))
    vals = np.asarray(f_batch(x[None, :] + eps), dtype=np.float64).reshape(-1)
    if vals.shape[0] != n:
        raise ContractError(f"f_batch returned {vals.shape[0]} values for {n} points")
    sq = (vals - f0) ** 2
    est = float(sq.mean())
    se = float(sq.std(ddof=1) / np.sqrt(n))
    return est, se


def _check_symmetric(h: np.ndarray):
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractError(f"H must be square, got shape {h.shape}")
    scale = max(float(np.abs(h).max()), 1.0)
    if np.abs(h - h.T).max() > 1e-8 * scale:
        raise ContractError("H must be symmetric within 1e-8")


def taylor_terms(j, h, sigma: float) -> dict:
    """Closed-form Taylor-decomposition terms for gradient j and Hessian h.

    r_j:            sigma^2 |j|^2
    r_h_paper:      sigma^4/4 (Tr(h)^2 + |offdiag(h)|_F^2)   (off-diagonal only)
    r_h_exact:      sigma^4/4 (Tr(h)^2 + 2 |h|_F^2)          (exact moments)
    claim14_value:  sigma^2/4 (4|j|^2 + Tr(h)^2 + |offdiag(h)|_F^2)
    """
    j = np.asarray(j, dtype=np.float64).reshape(-1)
    h = np.asarray(h, dtype=np.float64)
    _check_symmetric(h)
    if h.shape[0] != j.shape[0]:
        raise ContractError(f"J length {j.shape[0]} vs H shape {h.shape}")
    s2 = sigma * sigma
    s4 = s2 * s2
    jn2 = float(j @ j)
    tr = float(np.trace(h))
    fro2 = float((h * h).sum())
    offdiag2 = fro2 - float((np.diag(h) ** 2).sum())
    return {
        "r_j": s2 * jn2,
        "r_h_paper": 0.25 * s4 * (tr * tr + offdiag2),
        "r_h_exact": 0.25 * s4 * (tr * tr + 2.0 * fro2),
        "claim14_value": 0.25 * s2 * (4.0 * jn2 + tr * tr + offdiag2),
    }


def cross_term_mc(j, h, sigma: float, n: int, rng: np.random.Generator):
    """Monte-Carlo mean of (J.eps)(eps^T H eps / 2); zero by odd moments.

    Returns (mean, standard error).  A sigma so large that either one
    overflows raises ``ContractError`` naming the sigma and the quantity.
    """
    if n < MC_MIN_SAMPLES:
        raise ContractError(f"cross_term_mc: need n >= {MC_MIN_SAMPLES}, got {n}")
    j = np.asarray(j, dtype=np.float64).reshape(-1)
    h = np.asarray(h, dtype=np.float64)
    _check_symmetric(h)
    eps = rng.normal(0.0, sigma, size=(n, j.shape[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        lin = eps @ j
        quad = 0.5 * ((eps @ h) * eps).sum(axis=1)
        prod = lin * quad
        mean, se = float(prod.mean()), float(prod.std(ddof=1) / np.sqrt(n))
    _require_finite("cross_term_mc", sigma, mean=mean, standard_error=se)
    return mean, se


def random_smooth_map(dim: int, rng: np.random.Generator):
    """A random C^inf scalar map f(x) = a . tanh(W x + c), plus batch form.

    Used as a generic nonlinear test subject for the expansion checks:
    its Jacobian and Hessian are dense and nontrivial, and tanh keeps all
    derivatives bounded so finite differences stay well conditioned.
    Returns ``(f, f_batch)`` where ``f_batch`` maps [n, dim] -> [n].
    """
    if dim < 1:
        raise ContractError(f"random_smooth_map: dim must be >= 1, got {dim}")
    m = 2 * dim
    w = rng.normal(0.0, 1.0 / np.sqrt(dim), size=(m, dim))
    c = rng.normal(0.0, 0.5, size=m)
    a = rng.normal(0.0, 1.0, size=m)

    def f(x):
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        return float(a @ np.tanh(w @ x + c))

    def f_batch(xs):
        xs = np.asarray(xs, dtype=np.float64)
        return np.tanh(xs @ w.T + c) @ a

    return f, f_batch


def make_taylor_report(f, x, sigma: float, n: int, rng: np.random.Generator,
                       f_batch) -> TaylorReport:
    """Full report at one sigma: finite-difference terms plus MC estimates;
    a field that overflows raises ``ContractError`` naming it and the sigma."""
    j = fd_jacobian(f, x)
    h = fd_hessian(f, x)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = taylor_terms(j, h, sigma)
        est, se = mc_noise_stability(f, x, sigma, n, rng, f_batch)
    cross, _ = cross_term_mc(j, h, sigma, n, rng)
    report = TaylorReport(sigma=sigma, mc_estimate=est, mc_se=se, r_jh_mc=cross, **terms)
    _require_finite("make_taylor_report", sigma, **asdict(report))
    return report
