"""Semi-supervised objective: label guessing, sharpening, MixUp and the
three-term loss (labeled cross-entropy, unlabeled L2/CE, uniform-prior
regularizer with linearly ramped unlabeled weight).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .contrastive import AugmentSpec, augment
from .errors import DegenerateInputError, ParameterError
from .models import DuoModel, ModelTriple
from .tensor import Tensor


@dataclass
class SslHyper:
    lambda_u: float = 25.0
    lambda_r: float = 1.0
    sharpen_t: float = 0.5
    mixup_alpha: float = 4.0
    num_augs: int = 2
    warmup_ramp_epochs: int = 16
    unlabeled_loss: str = "l2"  # "l2" or "ce"

    def __post_init__(self):
        if self.lambda_u < 0 or self.lambda_r < 0:
            raise ParameterError("loss weights must be non-negative")
        if not 0.0 < self.sharpen_t <= 1.0:
            raise ParameterError("sharpen_t must be in (0, 1]")
        if self.mixup_alpha <= 0:
            raise ParameterError("mixup_alpha must be positive")
        if self.num_augs < 1:
            raise ParameterError("num_augs must be >= 1")
        if self.unlabeled_loss not in ("l2", "ce"):
            raise ParameterError("unlabeled_loss must be 'l2' or 'ce'")

    def ramped_lambda_u(self, epoch: float) -> float:
        """Linear 0 -> lambda_u over warmup_ramp_epochs; full weight if no ramp."""
        if self.warmup_ramp_epochs <= 0:
            return self.lambda_u
        return self.lambda_u * float(np.clip(epoch / self.warmup_ramp_epochs, 0.0, 1.0))


def sharpen(p: np.ndarray, t: float) -> np.ndarray:
    """Row-wise p^(1/t), renormalized; entropy minimization knob."""
    if t <= 0:
        raise ParameterError("sharpening temperature must be positive")
    p = np.asarray(p, dtype=np.float64)
    powered = np.power(p, 1.0 / t)
    return powered / powered.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    eye = np.eye(num_classes)
    return eye[np.asarray(labels, dtype=np.intp)]


def mean_weak_proba(nets: tuple[ModelTriple, ...], x: np.ndarray, spec: AugmentSpec,
                    num_augs: int, rng: np.random.Generator) -> np.ndarray:
    """Mean softmax of every net in ``nets`` over ``num_augs`` shared weak views."""
    acc = np.zeros((x.shape[0], nets[0].arch.num_classes))
    for _ in range(num_augs):
        view = augment(x, spec, "weak", rng)
        for net in nets:
            acc += net.predict_proba(view)
    acc /= len(nets) * num_augs
    return acc


def guess_labels(duo: DuoModel, u: np.ndarray, spec: AugmentSpec,
                 hyper: SslHyper, rng: np.random.Generator) -> np.ndarray:
    """Co-guessing: average both nets' softmax over weak views, then sharpen."""
    u = np.asarray(u, dtype=np.float64)
    if u.shape[0] < 1:
        raise DegenerateInputError("guess_labels: empty batch")
    return sharpen(mean_weak_proba(duo.nets, u, spec, hyper.num_augs, rng),
                   hyper.sharpen_t)


def co_refine(clean_prob: np.ndarray, noisy_one_hot: np.ndarray,
              own_pred: np.ndarray, t: float) -> np.ndarray:
    """Blend noisy label and own prediction by clean probability, then sharpen."""
    w = np.asarray(clean_prob, dtype=np.float64)[:, None]
    refined = w * noisy_one_hot + (1.0 - w) * own_pred
    return sharpen(refined, t)


def mixup(x1: np.ndarray, p1: np.ndarray, x2: np.ndarray, p2: np.ndarray,
          alpha: float, rng: np.random.Generator, lam: float | None = None):
    """Convex combination with lam' = max(lam, 1-lam), biased toward the first arg."""
    if alpha <= 0:
        raise ParameterError("mixup alpha must be positive")
    if lam is None:
        lam = rng.beta(alpha, alpha)
    lam = max(lam, 1.0 - lam)
    x_mix = lam * x1 + (1.0 - lam) * x2
    p_mix = lam * p1 + (1.0 - lam) * p2
    return x_mix, p_mix


@dataclass
class SemiBatch:
    """Mixed inputs with per-row probability targets and origin tracking."""

    mixed_x: np.ndarray
    mixed_targets: np.ndarray
    is_labeled: np.ndarray

    def __post_init__(self):
        sums = self.mixed_targets.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-6):
            raise DegenerateInputError("SemiBatch target rows must sum to 1")


def build_semi_batch(x_lab: np.ndarray, p_lab: np.ndarray, x_unl: np.ndarray,
                     p_unl: np.ndarray, alpha: float,
                     rng: np.random.Generator) -> SemiBatch:
    """MixUp each row with a random partner drawn from the combined pool."""
    pool_x = np.concatenate([x_lab, x_unl]) if len(x_unl) else np.asarray(x_lab)
    pool_p = np.concatenate([p_lab, p_unl]) if len(x_unl) else np.asarray(p_lab)
    perm = rng.permutation(pool_x.shape[0])
    mixed_x, mixed_p = mixup(pool_x, pool_p, pool_x[perm], pool_p[perm], alpha, rng)
    is_labeled = np.zeros(pool_x.shape[0], dtype=bool)
    is_labeled[: len(x_lab)] = True
    return SemiBatch(mixed_x=mixed_x, mixed_targets=mixed_p, is_labeled=is_labeled)


def semi_loss(m: ModelTriple, batch: SemiBatch, hyper: SslHyper, epoch: float):
    """Return (Lx, Lu, Lreg, total) tensors for one mixed batch."""
    lab_idx = np.flatnonzero(batch.is_labeled)
    unl_idx = np.flatnonzero(~batch.is_labeled)
    if len(lab_idx) == 0:
        raise DegenerateInputError("semi_loss: batch has no labeled rows")
    logits = m.forward_logits(batch.mixed_x)
    lx = T.softmax_cross_entropy(T.gather_rows(logits, lab_idx),
                                 batch.mixed_targets[lab_idx])
    if len(unl_idx) > 0:
        unl_logits = T.gather_rows(logits, unl_idx)
        unl_targets = batch.mixed_targets[unl_idx]
        if hyper.unlabeled_loss == "l2":
            # mean squared error over all prediction entries
            probs = T.softmax_rows(unl_logits)
            diff = probs - Tensor(unl_targets)
            lu = T.tmean(T.mul(diff, diff))
        else:
            lu = T.softmax_cross_entropy(unl_logits, unl_targets)
    else:
        lu = Tensor(0.0)
    num_classes = batch.mixed_targets.shape[1]
    mean_pred = T.tmean(T.softmax_rows(logits), axis=0)
    prior = 1.0 / num_classes
    # KL(uniform || mean prediction)
    lreg = T.tsum(T.scale(Tensor(np.full(num_classes, np.log(prior))) - T.log(mean_pred),
                          prior))
    total = lx + T.scale(lu, hyper.ramped_lambda_u(epoch)) + T.scale(lreg, hyper.lambda_r)
    return lx, lu, lreg, total
