"""Evaluation metrics against brute-force oracles, plus SVG/CSV emission."""

import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from codim.contrastive import AugmentSpec
from codim.errors import DegenerateInputError
from codim.metrics import (auc_score, consistency_metric, export_curves_svg,
                           export_embeddings_2d, pca_2d, write_csv)
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
    acc = accuracy_of(probs, np.array([0, 1, 1]))
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


def _model(seed=0):
    return ModelTriple(Arch(input_dim=2, num_classes=3, feat_hidden=(16, 16),
                            proj_hidden=64, proj_dim=16),
                       seed=seed)


def test_consistency_monotone_in_jitter():
    """More aggressive weak jitter flips predictions for more samples."""
    m = _model()
    x = rng_for(0xE1).normal(size=(400, 2)) * 2.0
    small = consistency_metric(m, x, AugmentSpec(weak_jitter_sigma=0.01), rng=rng_for(1))
    large = consistency_metric(m, x, AugmentSpec(weak_jitter_sigma=1.0,
                                                 strong_jitter_sigma=1.0),
                               rng=rng_for(1))
    assert small <= large
    assert 0.0 <= small and large <= 1.0


def test_consistency_zero_for_constant_model():
    class Constant:
        def predict_proba(self, x):
            out = np.zeros((len(x), 2))
            out[:, 0] = 1.0
            return out

    val = consistency_metric(Constant(), np.zeros((50, 2)), AugmentSpec(), rng=rng_for(2))
    assert val == 0.0


def test_consistency_rejects_empty_rows_before_predicting():
    class Unreachable:
        def predict_proba(self, x):
            raise AssertionError("predicted on an empty batch")

    with pytest.raises(DegenerateInputError, match="at least one row"):
        consistency_metric(Unreachable(), np.zeros((0, 2)), AugmentSpec(), rng=rng_for(2))


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


def _csv_writer_bytes(header, rows) -> bytes:
    """The oracle: the bytes ``csv.writer`` writes for ``header`` and ``rows``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


_ODD_FLOATS = [0.1 + 0.2, 1e-05, 1e16, 5e-324, -0.0, float("inf"), float("nan"),
               -1.5, 1.7976931348623157e308]


def test_write_csv_round_trip(tmp_path):
    """Int, 0/1 and float columns: the bytes ``csv.writer`` writes, CRLF
    rows, and every float reads back as the same float."""
    n = len(_ODD_FLOATS)
    ints, flags = list(range(-3, n - 3)), [i % 2 for i in range(n)]
    path = tmp_path / "t.csv"
    write_csv(path, ["i", "flag", "v"], ints, flags, _ODD_FLOATS)
    got = path.read_bytes()
    assert got == _csv_writer_bytes(["i", "flag", "v"], zip(ints, flags, _ODD_FLOATS))
    assert got.count(b"\r\n") == n + 1
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[0]) for r in rows] == ints and [int(r[1]) for r in rows] == flags
    back = np.array([float(r[2]) for r in rows])
    assert np.array_equal(back, _ODD_FLOATS, equal_nan=True)
    assert np.array_equal(np.signbit(back), np.signbit(_ODD_FLOATS))


def test_write_csv_numpy_scalars_and_arrays_match_csv_writer(tmp_path):
    """NumPy int and float scalars, and whole int and float64 arrays, are
    written as the Python numbers they hold."""
    floats = np.array(_ODD_FLOATS)
    ints = np.arange(len(floats), dtype=np.int64) - 2
    small = ints.astype(np.int8)
    want = _csv_writer_bytes(["a", "b", "c"], zip(ints.tolist(), small.tolist(),
                                                   floats.tolist()))
    write_csv(tmp_path / "scalars.csv", ["a", "b", "c"], list(ints), list(small),
              list(floats))
    write_csv(tmp_path / "arrays.csv", ["a", "b", "c"], ints, small, floats)
    assert (tmp_path / "scalars.csv").read_bytes() == want
    assert (tmp_path / "arrays.csv").read_bytes() == want


def test_write_csv_zero_rows_is_the_header_alone(tmp_path):
    write_csv(tmp_path / "empty.csv", ["index", "loss"], [], np.array([]))
    assert (tmp_path / "empty.csv").read_bytes() == b"index,loss\r\n"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "ragged.csv", ["a", "b"], [1, 2, 3], [0.5, 1.5])


def test_auc_ties_signed_zero_and_rejects_non_finite():
    scores = np.array([-0.0, 0.0, 1.0, -1.0, 0.0])
    positives = np.array([True, False, True, False, True])
    assert auc_score(scores, positives) == brute_auc(scores, positives)
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateInputError, match="finite"):
            auc_score(np.array([0.1, bad, 0.3]), np.array([True, False, False]))
