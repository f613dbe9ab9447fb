"""InfoNCE-style contrastive losses and stochastic view generation.

Two views per source sample, interleaved as rows (2k, 2k+1). The
self-supervised loss treats only the sibling view as positive; the
supervised loss treats every view sharing the anchor's class label as
positive. Both are reduced as a *mean* over the 2K anchors so the loss
scale is batch-size independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DegenerateInputError, ParameterError
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
        lo, hi = self.scale_range
        if not (self.strong_jitter_sigma >= self.weak_jitter_sigma >= 0.0):
            raise ParameterError("need strong_jitter_sigma >= weak_jitter_sigma >= 0")
        if not 0.0 <= self.mask_prob <= 1.0:
            raise ParameterError("mask_prob must be in [0, 1]")
        if not 0.0 < lo <= 1.0 <= hi:
            raise ParameterError("scale_range must satisfy 0 < lo <= 1 <= hi")


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


@dataclass
class ViewBatch:
    """Projected views with pairing metadata.

    ``z`` holds 2K unit rows; ``source_index[i]`` identifies the originating
    sample so rows 2k and 2k+1 share an index; ``labels`` (optional) carries
    one class id per view, equal within a pair.
    """

    z: Tensor
    source_index: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.source_index = np.asarray(self.source_index, dtype=np.intp)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.intp)

    @property
    def num_views(self) -> int:
        return self.z.data.shape[0]


def _check_batch(v: ViewBatch, tau: float, need_labels: bool):
    if tau <= 0:
        raise ParameterError("temperature must be positive")
    if v.num_views < 4:
        raise DegenerateInputError("contrastive loss needs K >= 2 source samples")
    if need_labels and v.labels is None:
        raise DegenerateInputError("supervised contrastive loss requires labels")


def _info_nce(v: ViewBatch, keys: np.ndarray, tau: float) -> Tensor:
    """Mean over anchors of InfoNCE whose positives are the other views with
    the anchor's key; anchors with no positive are left out of the mean."""
    n = v.num_views
    sim = T.scale(T.matmul(v.z, T.transpose(v.z)), 1.0 / tau)
    not_self = 1.0 - np.eye(n)
    lse = T.logsumexp_rows(sim, mask=not_self)
    pos_mask = (keys[:, None] == keys[None, :]).astype(np.float64) * not_self
    counts = pos_mask.sum(axis=1)
    valid = counts > 0
    if not valid.any():
        raise DegenerateInputError("contrastive loss: no anchor has a positive")
    inv_counts = np.where(valid, 1.0 / np.maximum(counts, 1.0), 0.0)
    mean_pos = T.tsum(T.mul(sim, Tensor(pos_mask * inv_counts[:, None])),
                      axis=1, keepdims=True)
    per_anchor = lse - mean_pos
    if not valid.all():
        per_anchor = T.mul(per_anchor, Tensor(valid.astype(np.float64)[:, None]))
    return T.scale(T.tsum(per_anchor), 1.0 / valid.sum())


def self_con_loss(v: ViewBatch, tau: float) -> Tensor:
    """Mean over anchors of -log softmax similarity with the sibling view."""
    _check_batch(v, tau, need_labels=False)
    return _info_nce(v, v.source_index, tau)


def sup_con_loss(v: ViewBatch, tau: float) -> Tensor:
    """Mean over anchors of the InfoNCE terms whose positives share the
    anchor's label; anchors without one are skipped, so it is never NaN."""
    _check_batch(v, tau, need_labels=True)
    return _info_nce(v, v.labels, tau)


def make_view_batch(m: ModelTriple, x: np.ndarray, labels, spec: AugmentSpec,
                    strength: str, rng: np.random.Generator) -> ViewBatch:
    """Two independent augmentations per row, projected and interleaved."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 0:
        raise DegenerateInputError("make_view_batch: empty batch")
    k = x.shape[0]
    a1 = augment(x, spec, strength, rng)
    a2 = augment(x, spec, strength, rng)
    stacked = np.empty((2 * k, x.shape[1]))
    stacked[0::2] = a1
    stacked[1::2] = a2
    z = m.forward_projection(stacked)
    source_index = np.repeat(np.arange(k), 2)
    view_labels = None if labels is None else np.repeat(np.asarray(labels), 2)
    return ViewBatch(z=z, source_index=source_index, labels=view_labels)
