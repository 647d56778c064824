"""Layer-wise noise-stability penalty and ablation-mode objective assembly.

The penalty compares a clean and a perturbed activation trace layer by
layer: R = sum over r of lambda_r * |perturbed_r - clean_r|^2, with the
squared Frobenius norm taken over non-pad rows only.  Gradient flows
through both traces (no stop-gradient on either branch).

Four training modes share this module: plain fine-tuning, fine-tuning on
the perturbed input alone (noise as data augmentation), and the penalty
added to the clean task loss with standard or in-manifold noise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .encoder import ActivationTrace
from .errors import ContractError, ValidationError
from .tensor import Tensor

MODES = ("ft", "ft_noise_only", "lnsr_standard", "lnsr_inmanifold")
# Modes that need a perturbed forward pass at all.
NOISY_MODES = ("ft_noise_only", "lnsr_standard", "lnsr_inmanifold")


@dataclass
class RegularizerConfig:
    """Penalty weights and ablation mode.

    ``lambda_weights`` is a scalar broadcast over layers b..L or an explicit
    sequence of length L-b+1 (checked when the trace length is known).
    """

    lambda_weights: float | tuple = 1.0
    mode: str = "lnsr_standard"
    injection_layer: int = 1

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"RegularizerConfig.mode: {self.mode!r} not in {MODES}")
        if self.injection_layer < 1:
            raise ValidationError(
                f"RegularizerConfig.injection_layer: must be >= 1, got {self.injection_layer}"
            )
        for lam in self.resolved_lambdas(None):
            if not 0 <= lam < math.inf:
                raise ValidationError(
                    f"RegularizerConfig.lambda_weights: weight {lam} is negative or not finite"
                )

    def resolved_lambdas(self, num_terms: int | None):
        """Weights as a list of length ``num_terms`` (scalar broadcast)."""
        if isinstance(self.lambda_weights, (int, float)):
            if num_terms is None:
                return [float(self.lambda_weights)]
            return [float(self.lambda_weights)] * num_terms
        lams = [float(v) for v in self.lambda_weights]
        if num_terms is not None and len(lams) != num_terms:
            raise ContractError(
                f"lambda_weights length {len(lams)} but {num_terms} regularized"
                f" layers (b={self.injection_layer})"
            )
        return lams


@dataclass
class ObjectiveBreakdown:
    task_loss: float
    reg_term: float
    per_layer_terms: list = field(default_factory=list)


def lnsr_term(clean: ActivationTrace, perturbed: ActivationTrace,
              cfg: RegularizerConfig):
    """Weighted per-layer squared deviation between the two traces.

    Works on one sequence or a batch; a batch's terms are the sums of its
    sequences' terms.  Returns ``(R, per_layer_terms)``: R a differentiable
    scalar, the terms the unweighted per-layer squared deviations as floats.
    """
    if len(clean) != len(perturbed):
        raise ContractError(
            f"trace lengths differ: clean {len(clean)} vs perturbed {len(perturbed)}"
        )
    if not np.array_equal(clean.token_mask, perturbed.token_mask):
        raise ContractError("traces come from different token sequences (mask mismatch)")
    b = cfg.injection_layer
    num_layers = len(clean) - 1
    if not 1 <= b <= num_layers:
        raise ContractError(f"injection_layer {b} outside 1..{num_layers}")
    lams = cfg.resolved_lambdas(num_layers - b + 1)
    weight = Tensor(np.broadcast_to(clean.token_mask.astype(np.float64)[..., None],
                                    clean.layers[b].data.shape))
    per_layer = []
    r_total = None
    for offset, r in enumerate(range(b, num_layers + 1)):
        term = T.sumsq(T.mul(T.sub(perturbed.layers[r], clean.layers[r]), weight))
        per_layer.append(term.item())
        weighted = T.scale(term, lams[offset])
        r_total = weighted if r_total is None else T.add(r_total, weighted)
    return r_total, per_layer


def task_loss(logits: Tensor, label, regression: bool) -> Tensor:
    """Cross-entropy for classification, squared error against a scalar
    target for regression; summed over a batch of [B, C] logits, whose
    labels are then a length-B array."""
    if regression:
        target = np.asarray(label, dtype=np.float64).reshape(logits.data.shape)
        return T.mse(logits, target)
    return T.cross_entropy(logits, label)


def assemble_objective(clean_logits: Tensor, perturbed_logits: Tensor | None,
                       label, r_term: Tensor | None, mode: str,
                       regression: bool = False, per_layer_terms=None):
    """Mode-dependent scalar objective plus its breakdown.

    For a batch, ``label`` holds one label per sequence and the objective
    and its breakdown are sums over the batch.

    ft: task loss on the clean logits, penalty ignored.
    ft_noise_only: task loss on the perturbed logits (noise as augmentation).
    lnsr_standard / lnsr_inmanifold: clean task loss + penalty.
    """
    if mode not in MODES:
        raise ValidationError(f"assemble_objective: mode {mode!r} not in {MODES}")
    terms = list(per_layer_terms) if per_layer_terms is not None else []
    if mode == "ft_noise_only":
        if perturbed_logits is None:
            raise ContractError("ft_noise_only requires a perturbed forward pass")
        loss = task_loss(perturbed_logits, label, regression)
        return loss, ObjectiveBreakdown(task_loss=loss.item(), reg_term=0.0,
                                        per_layer_terms=terms)
    loss = task_loss(clean_logits, label, regression)
    if mode == "ft" or r_term is None:
        return loss, ObjectiveBreakdown(task_loss=loss.item(), reg_term=0.0,
                                        per_layer_terms=terms)
    total = T.add(loss, r_term)
    return total, ObjectiveBreakdown(task_loss=loss.item(), reg_term=r_term.item(),
                                     per_layer_terms=terms)
