"""InfoNCE-style contrastive losses and stochastic view generation.

Two views per source sample, interleaved as rows (2k, 2k+1). The
self-supervised loss treats only the sibling view as positive; the
supervised loss treats every view with the anchor's class label as
positive. Both are reduced as a *mean* over the 2K anchors so the loss
scale is batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DegenerateInputError, DimensionError, ParameterError
from .models import ModelTriple
from .tensor import Tensor


@dataclass
class AugmentSpec:
    """Vector-data stand-ins for weak/strong image augmentation.

    Weak: additive Gaussian jitter. Strong: larger jitter, then independent
    coordinate masking to zero, then a global uniform scale.
    """

    weak_jitter_sigma: float = 0.1
    strong_jitter_sigma: float = 0.3
    mask_prob: float = 0.15
    scale_range: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        ParameterError.check(self, ">= 0", "weak_jitter_sigma", "strong_jitter_sigma")
        ParameterError.check(self, "in [0, 1]", "mask_prob")
        if self.strong_jitter_sigma < self.weak_jitter_sigma:
            raise ParameterError("need strong_jitter_sigma >= weak_jitter_sigma")
        lo, hi = self.scale_range
        if not 0.0 < lo <= 1.0 <= hi < np.inf:
            raise ParameterError(f"scale_lo = {lo} and scale_hi = {hi} must satisfy "
                                 "0 < scale_lo <= 1 <= scale_hi < inf")


def augment(x: np.ndarray, spec: AugmentSpec, strength: str,
            rng: np.random.Generator) -> np.ndarray:
    if strength not in ("weak", "strong"):
        raise ParameterError(f"unknown augmentation strength {strength!r}")
    x = np.asarray(x, dtype=np.float64)
    if strength == "weak":
        return x + rng.normal(0.0, spec.weak_jitter_sigma, size=x.shape)
    out = x + rng.normal(0.0, spec.strong_jitter_sigma, size=x.shape)
    if spec.mask_prob > 0:
        out = out * (rng.random(x.shape) >= spec.mask_prob)
    lo, hi = spec.scale_range
    scales = rng.uniform(lo, hi, size=(x.shape[0], 1))
    return out * scales


def _check_batch(z: Tensor, tau: float):
    ParameterError.check_value("tau", tau, "invertible")
    if z.data.shape[0] % 2:
        raise DimensionError(f"contrastive loss: {z.data.shape[0]} rows are not two "
                             "views per source")
    if z.data.shape[0] < 4:
        raise DegenerateInputError("contrastive loss needs K >= 2 source samples")


def self_con_loss(z: Tensor, tau: float) -> Tensor:
    """Mean over anchors of -log softmax similarity with the sibling view."""
    _check_batch(z, tau)
    return T.info_nce(z, None, tau)


def sup_con_loss(z: Tensor, labels: np.ndarray, tau: float) -> Tensor:
    """Mean over anchors of the InfoNCE terms whose positives share the
    anchor's label, ``labels`` holding one class id per source row; anchors
    without a positive are skipped, so it is never NaN."""
    _check_batch(z, tau)
    labels = np.asarray(labels)
    if labels.shape != (z.data.shape[0] // 2,):
        raise DimensionError(f"sup_con_loss: labels {labels.shape} for "
                             f"{z.data.shape[0] // 2} source rows")
    return T.info_nce(z, np.repeat(labels, 2), tau)


def make_view_batch(m: ModelTriple, x: np.ndarray, spec: AugmentSpec,
                    rng: np.random.Generator) -> Tensor:
    """Two independent strong augmentations per row, projected to 2K unit
    rows: source row k's two views are rows 2k and 2k + 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise DegenerateInputError("make_view_batch: empty batch")
    k = x.shape[0]
    a1 = augment(x, spec, "strong", rng)
    a2 = augment(x, spec, "strong", rng)
    stacked = np.empty((2 * k, x.shape[1]))
    stacked[0::2] = a1
    stacked[1::2] = a2
    return m.forward_projection(stacked)
