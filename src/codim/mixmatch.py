"""Semi-supervised objective: label guessing, sharpening, MixUp and the
three-term loss (labeled cross-entropy, unlabeled L2 and uniform-prior
regularizer, the last two weighted by the caller).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .contrastive import AugmentSpec, augment
from .errors import DegenerateInputError, ParameterError
from .models import ModelTriple


def sharpen(p: np.ndarray, t: float) -> np.ndarray:
    """Row-wise p^(1/t), renormalized; entropy minimization knob."""
    ParameterError.check_value("t", t, "invertible")
    powered = np.power(p, 1.0 / t)
    return powered / powered.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes)[labels]


def mean_weak_proba(nets: tuple[ModelTriple, ...], x: np.ndarray, spec: AugmentSpec,
                    num_augs: int, rng: np.random.Generator) -> np.ndarray:
    """Mean softmax of every net in ``nets`` over ``num_augs`` shared weak
    views, drawn in turn and queried in one batch per net."""
    n = x.shape[0]
    views = np.concatenate([augment(x, spec, "weak", rng) for _ in range(num_augs)])
    probs = [net.predict_proba(views) for net in nets]
    acc = np.zeros((n, nets[0].arch.num_classes))
    for a in range(num_augs):
        for p in probs:
            acc += p[a * n:(a + 1) * n]
    acc /= len(nets) * num_augs
    return acc


def guess_labels(nets: tuple[ModelTriple, ...], u: np.ndarray, spec: AugmentSpec,
                 num_augs: int, t: float, rng: np.random.Generator) -> np.ndarray:
    """Co-guessing: every net's mean softmax over weak views, sharpened by ``t``."""
    if u.shape[0] < 1:
        raise DegenerateInputError("guess_labels: empty batch")
    return sharpen(mean_weak_proba(nets, u, spec, num_augs, rng), t)


def co_refine(clean_prob: np.ndarray, noisy_one_hot: np.ndarray,
              own_pred: np.ndarray, t: float) -> np.ndarray:
    """Blend noisy label and own prediction by clean probability, then sharpen."""
    w = clean_prob[:, None]
    refined = w * noisy_one_hot + (1.0 - w) * own_pred
    return sharpen(refined, t)


def mixup(x1: np.ndarray, p1: np.ndarray, x2: np.ndarray, p2: np.ndarray,
          alpha: float, rng: np.random.Generator):
    """Convex combination with lam' = max(lam, 1-lam) for lam ~ Beta(alpha,
    alpha), biased toward the first arg."""
    ParameterError.check_value("mixup alpha", alpha, "> 0")
    lam = rng.beta(alpha, alpha)
    lam = max(lam, 1.0 - lam)
    x_mix = lam * x1 + (1.0 - lam) * x2
    p_mix = lam * p1 + (1.0 - lam) * p2
    return x_mix, p_mix


def build_semi_batch(x_lab: np.ndarray, p_lab: np.ndarray, x_unl: np.ndarray,
                     p_unl: np.ndarray, alpha: float, rng: np.random.Generator):
    """MixUp each row with a random partner drawn from the combined pool.
    Returns the mixed inputs, their targets, whose rows must sum to 1, and
    the mask of the rows that came from the labeled side."""
    pool_x, pool_p = np.concatenate([x_lab, x_unl]), np.concatenate([p_lab, p_unl])
    perm = rng.permutation(pool_x.shape[0])
    mixed_x, mixed_p = mixup(pool_x, pool_p, pool_x[perm], pool_p[perm], alpha, rng)
    if np.any(np.abs(mixed_p.sum(axis=1) - 1.0) > 1e-6):
        raise DegenerateInputError("build_semi_batch: target rows must sum to 1")
    is_labeled = np.zeros(pool_x.shape[0], dtype=bool)
    is_labeled[: len(x_lab)] = True
    return mixed_x, mixed_p, is_labeled


def semi_loss(m: ModelTriple, x: np.ndarray, targets: np.ndarray, is_labeled: np.ndarray,
              lambda_u: float, lambda_r: float):
    """Return the floats Lx, Lu, Lreg and the total loss's node for one mixed
    batch, Lu weighted by ``lambda_u`` and Lreg by ``lambda_r``."""
    return T.mixmatch_loss(m.forward_logits(x), targets, is_labeled, lambda_u, lambda_r)
