"""Evaluation: accuracy, partition quality, augmentation-consistency metric,
2-D embedding export and simple SVG/CSV emission."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .contrastive import AugmentSpec, augment
from .errors import DegenerateInputError, ParameterError
from .models import ModelTriple


def test_accuracy(predict_proba, test_x: np.ndarray, test_labels: np.ndarray) -> float:
    """Fraction of argmax-correct predictions."""
    preds = np.argmax(predict_proba(test_x), axis=1)
    return float(np.mean(preds == np.asarray(test_labels)))


def auc_score(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUC (ties count 0.5); equals brute-force pairwise counting."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = positives.sum()
    n_neg = (~positives).sum()
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("auc_score needs both positives and negatives")
    if not np.isfinite(scores).all():
        raise DegenerateInputError("auc_score: scores must be finite")
    # a tie group holding ranks first..last gets their mean
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    ranks = ((last - counts + 1 + last) / 2.0)[group]
    rank_sum = ranks[positives].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class PartitionQuality:
    auc: float
    precision: float
    recall: float


def partition_quality(clean_prob: np.ndarray, flip_mask: np.ndarray,
                      threshold: float) -> PartitionQuality:
    """Score clean probabilities against ground truth (clean = not flipped)."""
    clean_prob = np.asarray(clean_prob, dtype=np.float64)
    is_clean = ~np.asarray(flip_mask, dtype=bool)
    auc = auc_score(clean_prob, is_clean)
    predicted_clean = clean_prob >= threshold
    n_pred = predicted_clean.sum()
    precision = float((predicted_clean & is_clean).sum() / n_pred) if n_pred else 0.0
    recall = float((predicted_clean & is_clean).sum() / max(is_clean.sum(), 1))
    return PartitionQuality(auc=auc, precision=precision, recall=recall)


def consistency_metric(m: ModelTriple, x: np.ndarray, spec: AugmentSpec,
                       n_neighbors: int = 8,
                       rng: np.random.Generator | None = None) -> float:
    """Mean over samples of whether any of n weakly augmented neighbors flips
    the predicted class; a finite-sample estimate of the neighborhood
    disagreement rate (0 = perfectly consistent)."""
    if n_neighbors < 1:
        raise ParameterError("n_neighbors must be >= 1")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    x = np.asarray(x, dtype=np.float64)
    base = np.argmax(m.predict_proba(x), axis=1)
    changed = np.zeros(len(x), dtype=bool)
    for _ in range(n_neighbors):
        neighbor = augment(x, spec, "weak", rng)
        changed |= np.argmax(m.predict_proba(neighbor), axis=1) != base
    return float(changed.mean())


def pca_2d(features: np.ndarray):
    """Top-2 principal components; deterministic sign convention."""
    centered = features - features.mean(axis=0, keepdims=True)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    # fix sign so the largest-magnitude entry of each component is positive
    for i in range(comps.shape[0]):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


_PALETTE = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]


def export_embeddings_2d(m: ModelTriple, x: np.ndarray, labels: np.ndarray,
                         out_path, size: int = 480):
    """PCA scatter of the feature space as a deterministic SVG file."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] < 3:
        raise DegenerateInputError("export_embeddings_2d needs at least 3 samples")
    feats = m.feat.forward_np(x)
    pts = feats[:, :2] if feats.shape[1] <= 2 else pca_2d(feats)
    if pts.shape[1] < 2:
        pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
    labels = np.asarray(labels, dtype=np.intp)
    lo = pts.min(axis=0)
    span = np.maximum(pts.max(axis=0) - lo, 1e-12)
    margin = 30
    scaled = margin + (pts - lo) / span * (size - 2 * margin)
    lines = []
    for (px, py), lab in zip(scaled, labels):
        color = _PALETTE[lab % len(_PALETTE)]
        lines.append(f'<circle cx="{px:.2f}" cy="{size - py:.2f}" r="2.5" '
                     f'fill="{color}" fill-opacity="0.7"/>')
    for i, c in enumerate(sorted(set(labels.tolist()))):
        color = _PALETTE[c % len(_PALETTE)]
        y = 16 + 16 * i
        lines.append(f'<circle cx="12" cy="{y}" r="4" fill="{color}"/>')
        lines.append(f'<text x="22" y="{y + 4}" font-size="12" '
                     f'font-family="sans-serif">class {c}</text>')
    _write_svg(out_path, size, size, lines)


def export_curves_svg(series: dict[str, list[float]], out_path,
                      width: int = 640, height: int = 360):
    """Line plot of one or more per-epoch series as a deterministic SVG."""
    if not series:
        raise DegenerateInputError("export_curves_svg: no series given")
    margin = 40
    all_vals = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    span = max(hi - lo, 1e-12)
    n = max(len(v) for v in series.values())
    lines = [f'<text x="{margin}" y="16" font-size="12" font-family="sans-serif">'
             f'range [{lo:.4g}, {hi:.4g}]</text>']
    for i, (name, vals) in enumerate(sorted(series.items())):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for j, v in enumerate(vals):
            px = margin + (width - 2 * margin) * (j / max(n - 1, 1))
            py = height - margin - (height - 2 * margin) * ((v - lo) / span)
            pts.append(f"{px:.2f},{py:.2f}")
        lines.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        y = 32 + 14 * i
        lines.append(f'<text x="{width - margin - 120}" y="{y}" font-size="12" '
                     f'fill="{color}" font-family="sans-serif">{name}</text>')
    _write_svg(out_path, width, height, lines)


def _write_svg(path, width: int, height: int, body: list[str]):
    """A deterministic SVG file: white canvas, then the ``body`` elements."""
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>', *body, "</svg>"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_csv(path, header: list[str], rows):
    """RFC-4180 CSV with a fixed header row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
