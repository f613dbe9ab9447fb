"""Noise injection statistics and the 1-D two-component GMM fitter."""

import numpy as np
import pytest

from codim.errors import DegenerateInputError, ParameterError
from codim.models import Arch, ModelTriple
from codim.noise import (GmmParams, NoiseSpec, Partition, adjacent_pair_map,
                         fit_gmm_1d, inject_noise, make_partition,
                         partition_by_losses, per_sample_losses)

from conftest import rng_for


def test_spec_validation():
    with pytest.raises(ParameterError):
        NoiseSpec("uniform", 0.4)
    with pytest.raises(ParameterError):
        NoiseSpec("symmetric", 1.5)
    with pytest.raises(ParameterError):
        NoiseSpec("asymmetric", 0.4)  # missing class_map
    with pytest.raises(ParameterError):
        NoiseSpec("asymmetric", 0.4, class_map={0: 0})
    with pytest.raises(ParameterError):
        NoiseSpec("symmetric", 0.4, class_map={0: 1})


def test_adjacent_pair_map():
    assert adjacent_pair_map(4) == {0: 1, 1: 0, 2: 3, 3: 2}
    assert adjacent_pair_map(3) == {0: 1, 1: 0, 2: 0}


def test_symmetric_binomial_oracle():
    """r=0.5, C=10, N=10^4: each selected label lands back on its own class
    with probability 1/10, so the differing fraction is Binomial(5000, 0.9)/N
    with mean 0.45; the measurement must fall within 3 sigma."""
    n, c, r = 10_000, 10, 0.5
    labels = rng_for(0xD0).integers(0, c, size=n)
    noisy, flip_mask = inject_noise(labels, c, NoiseSpec("symmetric", r, seed=7))
    assert flip_mask.sum() == round(r * n)
    frac = (noisy != labels).mean()
    sigma = np.sqrt(r * n * 0.9 * 0.1) / n
    assert abs(frac - 0.45) <= 3 * sigma, f"fraction {frac}"
    # labels only change on selected indices
    assert (noisy[~flip_mask] == labels[~flip_mask]).all()


def test_symmetric_strict_convention_always_differs():
    labels = rng_for(0xD1).integers(0, 4, size=5000)
    noisy, flip_mask = inject_noise(
        labels, 4, NoiseSpec("symmetric", 0.4, seed=3, redraw_over_all=False))
    assert (noisy[flip_mask] != labels[flip_mask]).all()
    assert flip_mask.sum() == 2000
    # redrawn labels are uniform over the other 3 classes
    counts = np.bincount(noisy[flip_mask], minlength=4)
    assert counts.min() > 0


def test_asymmetric_flips_exact_count_through_map():
    n, c, r = 3000, 4, 0.4
    labels = rng_for(0xD2).integers(0, c, size=n)
    mapping = adjacent_pair_map(c)
    noisy, flip_mask = inject_noise(
        labels, c, NoiseSpec("asymmetric", r, seed=5, class_map=mapping))
    assert flip_mask.sum() == round(r * n) == 1200
    assert (noisy[flip_mask] != labels[flip_mask]).all()
    lut = np.array([mapping[i] for i in range(c)])
    assert (noisy[flip_mask] == lut[labels[flip_mask]]).all()
    assert (noisy[~flip_mask] == labels[~flip_mask]).all()


def test_inject_noise_deterministic():
    labels = np.arange(100) % 5
    spec = NoiseSpec("symmetric", 0.3, seed=11)
    a = inject_noise(labels, 5, spec)
    b = inject_noise(labels, 5, spec)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ------------------------------------------------------------------ GMM

def test_gmm_recovers_known_generator():
    """2000 draws from 0.7*N(0.1, 0.05^2) + 0.3*N(0.9, 0.1^2)."""
    rng = rng_for(0xD3)
    n = 2000
    comp = rng.random(n) < 0.7
    values = np.where(comp, rng.normal(0.1, 0.05, n), rng.normal(0.9, 0.1, n))
    g = fit_gmm_1d(values)
    assert abs(g.means[0] - 0.1) <= 0.03
    assert abs(g.means[1] - 0.9) <= 0.03
    assert abs(g.weights[0] - 0.7) <= 0.05
    assert abs(g.weights[1] - 0.3) <= 0.05
    assert g.means[0] < g.means[1]  # sorted components


def test_gmm_log_likelihood_monotone_on_100_random_datasets():
    for case in range(100):
        rng = rng_for(0xD4, case)
        n = int(rng.integers(30, 300))
        values = np.concatenate([
            rng.normal(rng.uniform(-2, 0), rng.uniform(0.05, 1.0), n),
            rng.normal(rng.uniform(0.5, 3), rng.uniform(0.05, 1.0), n),
        ])
        g = fit_gmm_1d(values)
        diffs = np.diff(np.asarray(g.ll_history))
        assert (diffs >= -1e-8).all(), f"case {case}: EM decreased the log-likelihood"


def test_gmm_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        fit_gmm_1d(np.arange(5.0))  # too few
    with pytest.raises(DegenerateInputError):
        fit_gmm_1d(np.full(100, 0.5))  # constant


def test_make_partition_posterior():
    g = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([0.0, 1.0]),
                  variances=np.array([0.01, 0.01]), iterations=1,
                  log_likelihood=0.0)
    part = make_partition(g, np.array([0.0, 1.0, 0.5]), threshold=0.5)
    assert part.clean_prob[0] > 0.99
    assert part.clean_prob[1] < 0.01
    assert part.clean_prob[2] == pytest.approx(0.5, abs=1e-9)
    assert 0 in part.clean_idx and 1 in part.noisy_idx


# --------------------------------------------------- losses + fallbacks

class _StubModel:
    """predict_proba stub so partitioning can be driven with planted losses."""

    def __init__(self, probs):
        self._probs = np.asarray(probs, dtype=np.float64)

    def predict_proba(self, x):
        return self._probs


def test_per_sample_losses_normalized():
    probs = np.array([[0.9, 0.1], [0.5, 0.5], [0.1, 0.9]])
    losses = per_sample_losses(_StubModel(probs), np.zeros((3, 1)),
                               np.array([0, 0, 0]))
    assert losses[0] == 0.0 and losses[2] == 1.0
    assert 0.0 < losses[1] < 1.0
    # constant losses collapse to zero
    flat = per_sample_losses(_StubModel(np.full((4, 2), 0.5)), np.zeros((4, 1)),
                             np.zeros(4, dtype=int))
    assert np.array_equal(flat, np.zeros(4))


def test_partition_by_losses_separates_planted_mixture():
    rng = rng_for(0xD5)
    n = 400
    is_clean = np.arange(n) < 280
    p_correct = np.where(is_clean, rng.uniform(0.85, 0.99, n),
                         rng.uniform(0.02, 0.2, n))
    probs = np.column_stack([p_correct, 1.0 - p_correct])
    part = partition_by_losses(_StubModel(probs), np.zeros((n, 1)),
                               np.zeros(n, dtype=int), threshold=0.5)
    frac_clean_correct = is_clean[part.clean_idx].mean()
    assert frac_clean_correct > 0.95
    assert len(part.clean_idx) + len(part.noisy_idx) == n


def test_partition_constant_losses_falls_back_to_all_clean():
    part = partition_by_losses(_StubModel(np.full((50, 2), 0.5)),
                               np.zeros((50, 1)), np.zeros(50, dtype=int), 0.5)
    assert len(part.clean_idx) == 50
    assert (part.clean_prob == 1.0).all()


def test_gmm_rejects_non_finite_values():
    values = rng_for(0xD6).uniform(size=100)
    for bad in (np.nan, np.inf, -np.inf):
        planted = values.copy()
        planted[17] = bad
        with pytest.raises(DegenerateInputError, match="finite"):
            fit_gmm_1d(planted)


def test_partition_by_losses_rejects_non_finite_predictions():
    n = 20
    with pytest.raises(DegenerateInputError, match="non-finite"):
        partition_by_losses(_StubModel(np.full((n, 2), np.nan)), np.zeros((n, 1)),
                            np.zeros(n, dtype=int), threshold=0.5)
    m = ModelTriple(Arch(input_dim=2, num_classes=2, feat_hidden=(4, 4),
                         proj_hidden=4, proj_dim=2), seed=0)
    m.feat.weights[0].data[:] = np.nan
    x = rng_for(0xD7).normal(size=(n, 2))
    with pytest.raises(DegenerateInputError, match="non-finite"):
        partition_by_losses(m, x, np.zeros(n, dtype=int), threshold=0.5)


def test_partition_split_thresholds_inclusively():
    part = Partition.split(np.array([0.2, 0.5, 0.9, 0.49]), 0.5)
    assert part.clean_idx.tolist() == [1, 2]
    assert part.noisy_idx.tolist() == [0, 3]
    assert part.threshold == 0.5


def test_partition_empty_clean_set_keeps_lowest_tenth():
    # evenly spread losses: the low component's posterior stays below 1
    # everywhere, so at threshold 1 the GMM split has no clean sample
    n = 200
    p_correct = rng_for(0xD8).permutation(np.linspace(0.05, 0.95, n))
    probs = np.column_stack([p_correct, 1.0 - p_correct])
    losses = per_sample_losses(_StubModel(probs), np.zeros((n, 1)), np.zeros(n, dtype=int))
    g = fit_gmm_1d(losses)
    assert len(make_partition(g, losses, 1.0).clean_idx) == 0
    part = partition_by_losses(_StubModel(probs), np.zeros((n, 1)),
                               np.zeros(n, dtype=int), threshold=1.0)
    lowest = np.sort(np.argsort(losses)[: n // 10])
    assert np.array_equal(part.clean_idx, lowest)
    assert np.array_equal(part.noisy_idx, np.setdiff1d(np.arange(n), lowest))
    assert (part.clean_prob[lowest] == 1.0).all()
