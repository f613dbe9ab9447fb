"""Evaluation metrics against brute-force oracles, plus SVG/CSV emission."""

import csv
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from codim.contrastive import AugmentSpec
from codim.errors import DegenerateInputError
from codim.metrics import (auc_score, consistency_metric, export_curves_svg,
                           export_embeddings_2d, partition_quality, pca_2d,
                           write_csv)
from codim.metrics import test_accuracy as accuracy_of
from codim.models import Arch, ModelTriple

from conftest import rng_for


def brute_auc(scores, positives):
    pos = scores[positives]
    neg = scores[~positives]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def loop_rank_auc(scores, positives):
    """Mean-rank AUC with ties ranked by a sequential scan of the sorted scores."""
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i, rank = 0, 1.0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (rank + rank + (j - i)) / 2.0
        rank += j - i + 1
        i = j + 1
    n_pos, n_neg = positives.sum(), (~positives).sum()
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def test_accuracy_oracle():
    probs = np.array([[0.9, 0.1], [0.3, 0.7], [0.6, 0.4]])
    acc = accuracy_of(lambda x: probs, np.zeros((3, 1)), np.array([0, 1, 1]))
    assert acc == pytest.approx(2.0 / 3.0)


def test_auc_matches_brute_force_including_ties():
    for case in range(20):
        rng = rng_for(0xE0, case)
        n = int(rng.integers(10, 200))
        # quantized scores force ties
        scores = np.round(rng.uniform(size=n), 1)
        positives = rng.random(n) < 0.4
        if positives.all() or not positives.any():
            continue
        assert auc_score(scores, positives) == pytest.approx(
            brute_auc(scores, positives), abs=1e-12)


def test_auc_equals_sequential_tie_ranking_exactly():
    for case in range(300):
        rng = rng_for(0xE1, case)
        n = int(rng.integers(2, 300))
        scores = rng.normal(size=n)
        if case % 3 == 1:
            scores = np.round(scores, 1)
        elif case % 3 == 2:
            scores = rng.choice([-0.0, 0.0, 0.5, -1.0], size=n)
        positives = rng.random(n) < 0.5
        if positives.all() or not positives.any():
            continue
        assert auc_score(scores, positives) == loop_rank_auc(scores, positives)


def test_auc_extremes_and_degenerate():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    assert auc_score(scores, np.array([False, False, True, True])) == 1.0
    assert auc_score(scores, np.array([True, True, False, False])) == 0.0
    with pytest.raises(DegenerateInputError):
        auc_score(scores, np.array([True, True, True, True]))


def test_partition_quality_counts():
    clean_prob = np.array([0.9, 0.8, 0.3, 0.6])
    flip_mask = np.array([False, False, True, True])
    q = partition_quality(clean_prob, flip_mask, threshold=0.5)
    # predicted clean = {0, 1, 3}; true clean = {0, 1}
    assert q.precision == pytest.approx(2.0 / 3.0)
    assert q.recall == 1.0
    assert q.auc == pytest.approx(brute_auc(clean_prob, ~flip_mask))


def _model(seed=0):
    return ModelTriple(Arch(input_dim=2, num_classes=3, feat_hidden=(16, 16)),
                       seed=seed)


def test_consistency_monotone_in_jitter():
    """More aggressive weak jitter flips predictions for more samples."""
    m = _model()
    x = rng_for(0xE1).normal(size=(400, 2)) * 2.0
    small = consistency_metric(m, x, AugmentSpec(weak_jitter_sigma=0.01),
                               n_neighbors=8, rng=rng_for(1))
    large = consistency_metric(m, x, AugmentSpec(weak_jitter_sigma=1.0,
                                                 strong_jitter_sigma=1.0),
                               n_neighbors=8, rng=rng_for(1))
    assert small <= large
    assert 0.0 <= small and large <= 1.0


def test_consistency_zero_for_constant_model():
    class Constant:
        def predict_proba(self, x):
            out = np.zeros((len(x), 2))
            out[:, 0] = 1.0
            return out

    val = consistency_metric(Constant(), np.zeros((50, 2)), AugmentSpec(),
                             n_neighbors=4, rng=rng_for(2))
    assert val == 0.0


def test_pca_2d_recovers_rank2_structure():
    rng = rng_for(0xE2)
    latent = rng.normal(size=(200, 2)) * np.array([5.0, 2.0])
    basis, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    high = latent @ basis[:2]  # exactly rank 2 in 10-D
    pts = pca_2d(high)
    assert pts.shape == (200, 2)
    # pairwise distances are preserved exactly for a rank-2 cloud
    d_latent = np.linalg.norm(latent[:50, None] - latent[None, :50], axis=2)
    d_pts = np.linalg.norm(pts[:50, None] - pts[None, :50], axis=2)
    assert np.allclose(d_latent, d_pts, atol=1e-8)
    # deterministic output
    assert np.array_equal(pts, pca_2d(high))


def test_export_embeddings_svg_valid(tmp_path):
    m = _model()
    x = rng_for(0xE3).normal(size=(30, 2))
    labels = rng_for(0xE4).integers(0, 3, size=30)
    out = tmp_path / "emb.svg"
    export_embeddings_2d(m, x, labels, out)
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) >= 30
    with pytest.raises(DegenerateInputError):
        export_embeddings_2d(m, x[:2], labels[:2], tmp_path / "too_small.svg")


def test_export_curves_svg_valid(tmp_path):
    out = tmp_path / "curves.svg"
    export_curves_svg({"a": [1.0, 2.0, 1.5], "b": [0.0, 0.5, 0.25]}, out)
    root = ET.parse(out).getroot()
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2
    with pytest.raises(DegenerateInputError):
        export_curves_svg({}, tmp_path / "empty.svg")


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [[0, "a,b", 1.5], [1, 'quote"d', -2.0]]
    write_csv(path, ["i", "s", "v"], rows)
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["i", "s", "v"]
    assert got[1] == ["0", "a,b", "1.5"]
    assert got[2] == ["1", 'quote"d', "-2.0"]


def test_auc_ties_signed_zero_and_rejects_non_finite():
    scores = np.array([-0.0, 0.0, 1.0, -1.0, 0.0])
    positives = np.array([True, False, True, False, True])
    assert auc_score(scores, positives) == brute_auc(scores, positives)
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateInputError, match="finite"):
            auc_score(np.array([0.1, bad, 0.3]), np.array([True, False, False]))
