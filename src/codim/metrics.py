"""Evaluation: accuracy, partition AUC, augmentation-consistency metric,
2-D embedding export and simple SVG/CSV emission."""

from __future__ import annotations

import numpy as np

from .contrastive import AugmentSpec, augment
from .errors import DegenerateInputError
from .models import ModelTriple

CONSISTENCY_NEIGHBORS = 8  # weakly augmented neighbors per row


def test_accuracy(proba: np.ndarray, test_labels: np.ndarray) -> float:
    """Fraction of rows of the ``(n, C)`` probabilities ``proba`` whose argmax
    is the row's label."""
    preds = np.argmax(proba, axis=1)
    return float(np.mean(preds == test_labels))


def auc_score(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-statistic AUC (ties count 0.5); equals brute-force pairwise counting."""
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


def consistency_metric(m: ModelTriple, x: np.ndarray, spec: AugmentSpec,
                       rng: np.random.Generator) -> float:
    """Mean over samples of whether any of ``CONSISTENCY_NEIGHBORS`` weakly
    augmented neighbors flips the predicted class; a finite-sample estimate
    of the neighborhood disagreement rate (0 = perfectly consistent)."""
    if len(x) == 0:
        raise DegenerateInputError("consistency_metric needs at least one row")
    base = np.argmax(m.predict_proba(x), axis=1)
    changed = np.zeros(len(x), dtype=bool)
    for _ in range(CONSISTENCY_NEIGHBORS):
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


def export_embeddings_2d(m: ModelTriple, x: np.ndarray, labels: np.ndarray, out_path):
    """PCA scatter of the feature space as a deterministic 480x480 SVG file."""
    size = 480
    if x.shape[0] < 3:
        raise DegenerateInputError("export_embeddings_2d needs at least 3 samples")
    feats = m.feat.forward_np(x)
    pts = feats[:, :2] if feats.shape[1] <= 2 else pca_2d(feats)
    if pts.shape[1] < 2:
        pts = np.column_stack([pts[:, 0], np.zeros(len(pts))])
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


def export_curves_svg(series: dict[str, list[float]], out_path):
    """Line plot of one or more per-epoch series as a deterministic 640x360 SVG."""
    width, height = 640, 360
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


def write_csv(path, header: list[str], *columns):
    """The ``header`` row, then one CRLF-ended row per position of the numeric
    ``columns``, each cell as ``"{}"`` writes it: ``str`` of an int, ``repr`` of
    a float, as ``csv.writer`` does. Arrays are read by ``tolist()``, so pass
    bools as ints; columns of unequal length raise ``ValueError``."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    row = ",".join(["{}"] * len(columns)) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(row.format(*cells) for cells in zip(*columns, strict=True))
