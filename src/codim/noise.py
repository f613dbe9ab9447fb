"""Synthetic label-noise injection and GMM-based clean/noisy partitioning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError
from .models import ModelTriple


NOISE_KINDS = ("none", "symmetric", "asymmetric")


@dataclass
class NoiseSpec:
    kind: str  # one of NOISE_KINDS
    ratio: float
    seed: int = 0
    redraw_over_all: bool = True  # symmetric: redraw over all C classes (default)
                                  # vs strictly over the other C-1 classes

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ParameterError(f"unknown noise kind {self.kind!r}")
        ParameterError.check_value("noise_ratio", self.ratio, "in [0, 1]")
        ParameterError.check_value("noise_seed", self.seed, ">= 0")


def inject_noise(labels: np.ndarray, num_classes: int, spec: NoiseSpec) -> np.ndarray:
    """Redraw the labels of round(ratio*N) randomly chosen rows; returns the
    noisy labels, a copy of ``labels`` for kind "none" or ratio 0.

    Asymmetric noise flips a row to its pair partner: 0<->1, 2<->3, ..., with
    an odd last class going to 0. Raises ParameterError where, within a class,
    some wrong label would be expected at least as often as the true one: no
    method can recover the classes then. The ratio must stay below (C-1)/C
    for strict symmetric noise, 1 for symmetric noise redrawn over all
    classes and 0.5 for asymmetric noise.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if spec.kind == "none" or spec.ratio == 0:
        return labels.copy()
    if spec.kind == "symmetric" and spec.redraw_over_all:
        regime, bound = "symmetric (redrawn over all classes)", 1.0
    else:
        regime = "asymmetric" if spec.kind == "asymmetric" else "strict symmetric"
        if num_classes < 2:
            raise ParameterError(f"{regime} noise needs num_classes >= 2")
        bound = 0.5 if spec.kind == "asymmetric" else (num_classes - 1) / num_classes
    if spec.ratio >= bound:
        raise ParameterError(
            f"{regime} noise at ratio {spec.ratio} with C = {num_classes} classes "
            f"makes a wrong label at least as frequent as the true one; "
            f"the ratio must be < {bound:.4g}")
    n = len(labels)
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n_flip = int(round(spec.ratio * n))
    selected = rng.choice(n, size=n_flip, replace=False)
    noisy = labels.copy()
    if spec.kind == "asymmetric":
        partner = np.arange(num_classes) ^ 1
        if num_classes % 2:  # an odd last class has no partner: it goes to 0
            partner[-1] = 0
        noisy[selected] = partner[labels[selected]]
    elif spec.redraw_over_all:
        noisy[selected] = rng.integers(0, num_classes, size=n_flip)
    else:
        draws = rng.integers(0, num_classes - 1, size=n_flip)
        draws += draws >= labels[selected]
        noisy[selected] = draws
    return noisy


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
    ll_history: list[float]  # one log-likelihood per EM iteration

    @property
    def iterations(self) -> int:
        return len(self.ll_history)


def _densities(values, weights, means, variances, dens=None, totals=None):
    """Per-component weighted densities, shape (2, n), and their totals floored
    at 1e-300; written in place into ``dens`` and ``totals`` when given."""
    if dens is None:
        dens, totals = np.empty((2, len(values))), np.empty(len(values))
    np.subtract(values, means[:, None], out=dens)
    np.square(dens, out=dens)
    np.multiply(dens, -0.5, out=dens)
    np.divide(dens, variances[:, None], out=dens)
    np.exp(dens, out=dens)
    np.divide(dens, np.sqrt(2.0 * np.pi * variances)[:, None], out=dens)
    np.multiply(dens, weights[:, None], out=dens)
    np.add(dens[0], dens[1], out=totals)
    np.maximum(totals, 1e-300, out=totals)
    return dens, totals


def _median(values: np.ndarray):
    """``np.median`` of finite values, less the NaN check that imports numpy.ma."""
    n = len(values)
    part = np.partition(values, [(n - 1) // 2, n // 2])
    return part[n // 2] if n % 2 else (part[n // 2 - 1] + part[n // 2]) / 2


def fit_gmm_1d(values: np.ndarray) -> GmmParams:
    """Two-component EM on 1-D data.

    Init: split at the median, component stats from the two halves. Iterates
    until the log-likelihood change drops below ``tol``. Raises on nearly
    constant input; the caller should then treat all samples as clean.
    """
    max_iter, tol, var_floor = 100, 1e-6, 1e-6
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n < 10:
        raise DegenerateInputError("fit_gmm_1d needs at least 10 values")
    if not np.isfinite(values).all():
        raise DegenerateInputError("fit_gmm_1d: values must be finite")
    if values.max() - values.min() < 1e-6:
        raise DegenerateInputError("fit_gmm_1d: values are (nearly) constant")

    med = _median(values)
    low, high = values[values <= med], values[values > med]
    if len(high) == 0:  # ties at the median
        order = np.argsort(values)
        low, high = values[order[: n // 2]], values[order[n // 2:]]
    weights = np.array([len(low) / n, len(high) / n])
    means = np.array([low.mean(), high.mean()])
    variances = np.maximum(np.array([low.var(), high.var()]), var_floor)

    # EM in three preallocated buffers: resp holds the densities, then the
    # responsibilities; tmp the weighted values and squared deviations. Each
    # step keeps the operation order of the fresh-array form, so the fit is
    # bit-identical to it (tests/test_noise.py keeps that form as the oracle).
    resp, tmp, totals = np.empty((2, n)), np.empty((2, n)), np.empty(n)
    ll_history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        _densities(values, weights, means, variances, resp, totals)
        ll = float(np.log(totals, out=tmp[0]).sum())
        ll_history.append(ll)
        np.divide(resp, totals, out=resp)
        counts = resp.sum(axis=1)
        weights = counts / n
        means = np.multiply(resp, values, out=tmp).sum(axis=1) / np.maximum(counts, 1e-300)
        np.subtract(values, means[:, None], out=tmp)
        np.square(tmp, out=tmp)
        np.multiply(resp, tmp, out=tmp)
        variances = np.maximum(tmp.sum(axis=1) / np.maximum(counts, 1e-300), var_floor)
        if abs(ll - prev_ll) < tol:
            break
        prev_ll = ll

    order = np.argsort(means)
    return GmmParams(weights=weights[order], means=means[order],
                     variances=variances[order], ll_history=ll_history)


@dataclass
class Partition:
    """Posterior clean probabilities with the thresholded index split."""

    clean_prob: np.ndarray
    clean_idx: np.ndarray
    noisy_idx: np.ndarray
    threshold: float
    gmm: GmmParams | None = None  # None: a fallback skipped the fit
    fallback: str | None = None  # the fallback that set clean_prob, if any

    @classmethod
    def split(cls, clean_prob: np.ndarray, threshold: float, gmm: GmmParams | None = None,
              fallback: str | None = None) -> "Partition":
        """Clean = ``clean_prob >= threshold``, for a threshold in [0, 1]."""
        ParameterError.check_value("threshold", threshold, "in [0, 1]")
        is_clean = clean_prob >= threshold
        return cls(clean_prob, np.flatnonzero(is_clean), np.flatnonzero(~is_clean),
                   threshold, gmm, fallback)


def make_partition(g: GmmParams, values: np.ndarray, threshold: float) -> Partition:
    """Clean probability = posterior of the low-mean component at each value."""
    dens, totals = _densities(np.asarray(values, dtype=np.float64),
                              g.weights, g.means, g.variances)
    return Partition.split(dens[0] / totals, threshold, gmm=g)


def partition_losses(losses: np.ndarray, threshold: float) -> Partition:
    """GMM fit to per-sample losses and the posterior split at ``threshold``;
    non-finite losses raise. Fallbacks: all clean without a fit on constant
    or fewer than 10 losses, the lowest-loss 10% when no sample is clean."""
    losses = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(losses).all():
        raise DegenerateInputError("partition_losses: losses must be finite")
    try:
        g = fit_gmm_1d(losses)
    except DegenerateInputError:
        return Partition.split(np.ones_like(losses), threshold,
                               fallback="all clean: constant or fewer than 10 losses")
    part = make_partition(g, losses, threshold)
    if not np.isfinite(part.clean_prob).all():
        raise DegenerateInputError("partition_losses: the GMM fit overflowed")
    if len(part.clean_idx) == 0:
        keep = np.argsort(losses)[: max(1, len(losses) // 10)]
        clean_prob = part.clean_prob.copy()
        clean_prob[keep] = np.maximum(clean_prob[keep], threshold)
        part = Partition.split(clean_prob, threshold, gmm=g,
                               fallback="lowest-loss 10% clean: the fit found none")
    return part


def partition_by_losses(m: ModelTriple, x: np.ndarray, noisy_labels: np.ndarray,
                        threshold: float) -> Partition:
    """Co-divide building block: ``partition_losses`` of the losses under ``m``."""
    return partition_losses(per_sample_losses(m, x, noisy_labels), threshold)
