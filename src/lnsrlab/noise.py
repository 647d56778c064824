"""Gaussian perturbation sampling and relative-magnitude rescaling.

A perturbation is described by a :class:`NoiseSpec`: its mode (isotropic
Gaussian, manifold-constrained, or none), the raw standard deviation of the
draw, and an optional relative magnitude that rescales the draw against the
vector it perturbs.  Which layer receives the noise is the regularizer's
``injection_layer``.

Rescaling makes each perturbation row's norm an exact fraction of the
perturbed row's norm, ``|eps'| = rho * |x|``.  It is the one place the
relative-magnitude rule lives, for every noise kind.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .tensor import Tensor

NOISE_MODES = ("standard", "in_manifold", "none")
DEFAULT_REL_MAGNITUDE = 0.05


@dataclass(frozen=True)
class NoiseSpec:
    """Description of one perturbation policy.

    When ``rel_magnitude`` is None the raw ``sigma`` scale is used as-is;
    when set, draws are rescaled so their norm is ``rel_magnitude`` times
    the norm of the vector being perturbed (per token row in pipelines).
    Exactly one of the two conventions is therefore active at a time.
    """

    mode: str = "standard"
    sigma: float = 0.05
    rel_magnitude: float | None = DEFAULT_REL_MAGNITUDE

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise ValidationError(f"NoiseSpec.mode: {self.mode!r} not in {NOISE_MODES}")
        if not 0 < self.sigma < math.inf:
            raise ValidationError(f"NoiseSpec.sigma: must be positive and finite, got {self.sigma}")
        if self.rel_magnitude is not None and not 0 < self.rel_magnitude < math.inf:
            raise ValidationError(
                f"NoiseSpec.rel_magnitude: must be positive and finite or None,"
                f" got {self.rel_magnitude}"
            )


def sample_standard_noise(shape, sigma: float, rng: np.random.Generator) -> Tensor:
    """I.i.d. draws from N(0, sigma^2) with the given shape."""
    if not sigma > 0:
        raise ContractError(f"sample_standard_noise: sigma must be positive, got {sigma}")
    return Tensor(rng.normal(0.0, sigma, size=shape))


def rescale_relative_rows(noise, x, rho: float) -> np.ndarray:
    """Row-wise relative rescaling of [..., d] arrays (per-token convention).

    Each row (last axis) of the result has norm ``rho`` times the
    corresponding row of ``x``; zero rows of ``x`` map to zero rows of
    noise, and a zero noise row against a nonzero row of ``x`` raises.

    Norms are taken of each row scaled by the power of two that puts its
    largest |entry| in [0.5, 1), so no square overflows or underflows
    unless the row's entries span most of float64's range; the scale
    comes back as an exponent.  The factor ``f = rho * |x| / |noise|``
    multiplies the scaled noise row, so subnormal or huge noise still
    gives finite rows.  Scaling by a power of two is exact, so where
    nothing leaves float64's normal range the bits are those of
    ``noise * f`` taken directly.
    """
    nd = np.asarray(noise, dtype=np.float64)
    xd = np.asarray(x, dtype=np.float64)
    if nd.shape != xd.shape or nd.ndim < 1:
        raise ContractError(
            f"rescale_relative_rows: need matching [..., d] shapes, got {nd.shape} and {xd.shape}"
        )
    if not rho >= 0:
        raise ContractError(f"rescale_relative_rows: rho must be nonnegative, got {rho}")
    xnorms, xexp, _ = _scaled_rows(xd)
    nnorms, _, nscaled = _scaled_rows(nd)
    live = xnorms > 0.0
    if np.any(live & (nnorms == 0.0)):
        raise ContractError("rescale_relative_rows: zero-norm noise row against nonzero x row")
    eta = np.zeros_like(xnorms)
    eta[live] = np.ldexp(rho * xnorms[live] / nnorms[live], xexp[live])
    return nscaled * eta[..., None]


def _scaled_rows(a: np.ndarray):
    """``(norms, exps, scaled)``: ``scaled`` is each row times 2^-exps,
    its largest |entry| in [0.5, 1), and ``norms`` its norm, so the row's
    norm is ``ldexp(norms, exps)``.  A zero row has norm 0 and exponent 0."""
    exps = np.frexp(np.abs(a).max(axis=-1, initial=0.0))[1]
    scaled = np.ldexp(a, -exps[..., None])
    return np.linalg.norm(scaled, axis=-1), exps, scaled
