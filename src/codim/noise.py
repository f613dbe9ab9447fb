"""Synthetic label-noise injection and GMM-based clean/noisy partitioning."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .models import ModelTriple


@dataclass
class NoiseSpec:
    kind: str  # "symmetric" or "asymmetric"
    ratio: float
    seed: int = 0
    class_map: dict[int, int] | None = None
    redraw_over_all: bool = True  # symmetric: redraw over all C classes (default)
                                  # vs strictly over the other C-1 classes

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        if not 0.0 <= self.ratio <= 1.0:
            raise ParameterError("noise ratio must be in [0, 1]")
        if self.kind == "asymmetric":
            if self.class_map is None:
                raise ParameterError("asymmetric noise requires a class_map")
            for src, dst in self.class_map.items():
                if src == dst:
                    raise ParameterError(f"class_map maps class {src} to itself")
        elif self.class_map is not None:
            raise ParameterError("symmetric noise forbids a class_map")


def adjacent_pair_map(num_classes: int) -> dict[int, int]:
    """Pair adjacent class ids (0<->1, 2<->3, ...); an odd last class wraps to 0."""
    mapping = {}
    for c in range(num_classes):
        if c % 2 == 0:
            mapping[c] = c + 1 if c + 1 < num_classes else 0
        else:
            mapping[c] = c - 1
    return mapping


def inject_noise(labels: np.ndarray, num_classes: int, spec: NoiseSpec):
    """Corrupt round(ratio*N) labels; returns (noisy_labels, flip_mask).

    flip_mask marks the *selected* indices: under the default symmetric
    convention a selected label may be redrawn as its own class, so the
    expected fraction of labels actually differing is ratio*(C-1)/C.
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = len(labels)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_flip = int(round(spec.ratio * n))
    selected = rng.choice(n, size=n_flip, replace=False)
    noisy = labels.copy()
    flip_mask = np.zeros(n, dtype=bool)
    flip_mask[selected] = True
    if spec.kind == "symmetric":
        if spec.redraw_over_all:
            noisy[selected] = rng.integers(0, num_classes, size=n_flip)
        else:
            draws = rng.integers(0, num_classes - 1, size=n_flip)
            draws += draws >= labels[selected]
            noisy[selected] = draws
    else:
        mapping = np.arange(num_classes)
        for src, dst in spec.class_map.items():
            mapping[src] = dst
        noisy[selected] = mapping[labels[selected]]
    return noisy, flip_mask


def per_sample_losses(m: ModelTriple, x: np.ndarray, noisy_labels: np.ndarray) -> np.ndarray:
    """Per-sample CE of the noisy label, min-max normalized to [0, 1]."""
    probs = m.predict_proba(x)
    if not np.isfinite(probs).all():
        raise DegenerateInputError("per_sample_losses: non-finite predictions")
    n = len(noisy_labels)
    losses = -np.log(np.maximum(probs[np.arange(n), np.asarray(noisy_labels, dtype=np.intp)],
                                1e-300))
    lo, hi = losses.min(), losses.max()
    if hi - lo < 1e-12:
        return np.zeros_like(losses)
    return (losses - lo) / (hi - lo)


@dataclass
class GmmParams:
    """Two-component 1-D mixture, components sorted by ascending mean."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    iterations: int
    log_likelihood: float
    ll_history: list[float] = field(default_factory=list)


def _densities(values, weights, means, variances):
    """Per-component weighted densities and their totals floored at 1e-300."""
    dens = np.stack([w * (np.exp(-0.5 * (values - mu) ** 2 / var)
                          / np.sqrt(2.0 * np.pi * var))
                     for w, mu, var in zip(weights, means, variances)])
    return dens, np.maximum(dens.sum(axis=0), 1e-300)


def fit_gmm_1d(values: np.ndarray, max_iter: int = 100, tol: float = 1e-6,
               var_floor: float = 1e-6) -> GmmParams:
    """Two-component EM on 1-D data.

    Init: split at the median, component stats from the two halves. Iterates
    until the log-likelihood change drops below ``tol``. Raises on nearly
    constant input; the caller should then treat all samples as clean.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 10:
        raise DegenerateInputError("fit_gmm_1d needs at least 10 values")
    if not np.isfinite(values).all():
        raise DegenerateInputError("fit_gmm_1d: values must be finite")
    if values.max() - values.min() < 1e-6:
        raise DegenerateInputError("fit_gmm_1d: values are (nearly) constant")

    med = np.median(values)
    low, high = values[values <= med], values[values > med]
    if len(high) == 0:  # ties at the median
        order = np.argsort(values)
        low, high = values[order[: n // 2]], values[order[n // 2:]]
    weights = np.array([len(low) / n, len(high) / n])
    means = np.array([low.mean(), high.mean()])
    variances = np.maximum(np.array([low.var(), high.var()]), var_floor)

    ll_history = []
    prev_ll = -np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        dens, totals = _densities(values, weights, means, variances)
        ll = float(np.log(totals).sum())
        ll_history.append(ll)
        resp = dens / totals
        counts = resp.sum(axis=1)
        weights = counts / n
        means = (resp * values).sum(axis=1) / np.maximum(counts, 1e-300)
        variances = np.maximum(
            (resp * (values - means[:, None]) ** 2).sum(axis=1)
            / np.maximum(counts, 1e-300),
            var_floor,
        )
        if abs(ll - prev_ll) < tol:
            break
        prev_ll = ll

    order = np.argsort(means)
    return GmmParams(weights=weights[order], means=means[order],
                     variances=variances[order], iterations=iterations,
                     log_likelihood=ll_history[-1], ll_history=ll_history)


@dataclass
class Partition:
    """Posterior clean probabilities with the thresholded index split."""

    clean_prob: np.ndarray
    clean_idx: np.ndarray
    noisy_idx: np.ndarray
    threshold: float

    @classmethod
    def split(cls, clean_prob: np.ndarray, threshold: float) -> "Partition":
        """Clean = ``clean_prob >= threshold``, for a threshold in [0, 1]."""
        is_clean = clean_prob >= threshold
        return cls(clean_prob=clean_prob, clean_idx=np.flatnonzero(is_clean),
                   noisy_idx=np.flatnonzero(~is_clean), threshold=threshold)


def make_partition(g: GmmParams, values: np.ndarray, threshold: float) -> Partition:
    """Clean probability = posterior of the low-mean component at each value."""
    dens, totals = _densities(np.asarray(values, dtype=np.float64),
                              g.weights, g.means, g.variances)
    return Partition.split(dens[0] / totals, threshold)


def partition_by_losses(m: ModelTriple, x: np.ndarray, noisy_labels: np.ndarray,
                        threshold: float) -> Partition:
    """Co-divide building block: losses under ``m``, GMM fit, posterior split.

    Degenerate cases fall back to all-clean (constant losses) or to keeping
    the lowest-loss 10% as clean (empty clean set).
    """
    losses = per_sample_losses(m, x, noisy_labels)
    n = len(losses)
    try:
        g = fit_gmm_1d(losses)
    except DegenerateInputError:
        return Partition.split(np.ones(n), threshold)
    part = make_partition(g, losses, threshold)
    if len(part.clean_idx) == 0:
        keep = np.argsort(losses)[: max(1, n // 10)]
        clean_prob = part.clean_prob.copy()
        clean_prob[keep] = np.maximum(clean_prob[keep], threshold)
        part = Partition.split(clean_prob, threshold)
    return part
