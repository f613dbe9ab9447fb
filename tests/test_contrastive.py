"""Contrastive losses against brute-force double-loop oracles, plus
augmentation and view-batch mechanics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codim import tensor as T
from codim.contrastive import (AugmentSpec, augment, make_view_batch, self_con_loss,
                               sup_con_loss)
from codim.errors import DegenerateInputError, DimensionError, ParameterError
from codim.models import Arch, ModelTriple
from codim.tensor import Tensor

from conftest import check_gradients, rng_for


def random_view_batch(rng, k, dim, num_classes=None):
    """2k random unit rows as a leaf tensor, views 2i and 2i + 1 of source
    i, and one label per source (None without ``num_classes``)."""
    z = rng.normal(size=(2 * k, dim))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = None
    if num_classes is not None:
        labels = rng.integers(0, num_classes, size=k)
    return Tensor(z, requires_grad=True), labels


def brute_self_con(z, source_index, tau):
    n = len(z)
    total = 0.0
    for i in range(n):
        sibling = [j for j in range(n) if j != i and source_index[j] == source_index[i]]
        assert len(sibling) == 1
        pos = z[i] @ z[sibling[0]] / tau
        denom = sum(np.exp(z[i] @ z[j] / tau) for j in range(n) if j != i)
        total += -(pos - np.log(denom))
    return total / n


def brute_sup_con(z, labels, tau):
    n = len(z)
    terms = []
    for i in range(n):
        positives = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not positives:
            continue
        denom = np.log(sum(np.exp(z[i] @ z[j] / tau) for j in range(n) if j != i))
        inner = sum(z[i] @ z[j] / tau - denom for j in positives) / len(positives)
        terms.append(-inner)
    return sum(terms) / len(terms)


# ------------------------------------------------------------ hand cases

def test_self_con_orthonormal_hand_value():
    # 2 sources, views = 4 orthonormal rows: every similarity is 0 except
    # self (masked out), so each anchor sees uniform odds over 3 candidates.
    assert self_con_loss(Tensor(np.eye(4)), tau=1.0).item() == pytest.approx(np.log(3.0), abs=1e-12)


def test_sup_con_orthonormal_hand_value():
    # all views share a label: mean positive similarity 0, denominator log 3
    assert sup_con_loss(Tensor(np.eye(4)), np.array([0, 0]), tau=1.0).item() == pytest.approx(np.log(3.0), abs=1e-12)


def test_self_con_identical_views_hand_value():
    # sibling is a perfect match at similarity 1/tau; the two other rows are
    # orthogonal
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    tau = 0.5
    denom = np.exp(1.0 / tau) + 2.0 * np.exp(0.0)
    want = -(1.0 / tau - np.log(denom))
    assert self_con_loss(Tensor(z), tau).item() == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------ oracles

def test_losses_match_brute_force_on_50_random_batches():
    for case in range(50):
        rng = rng_for(0xB0, case)
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 17))
        z, labels = random_view_batch(rng, k, dim, num_classes=3)
        tau = float(rng.uniform(0.05, 2.0))
        got_self = self_con_loss(z, tau).item()
        want_self = brute_self_con(z.data, np.repeat(np.arange(k), 2), tau)
        assert abs(got_self - want_self) <= 1e-10
        if np.unique(labels).size < 2 * k:  # at least one positive exists
            got_sup = sup_con_loss(z, labels, tau).item()
            want_sup = brute_sup_con(z.data, np.repeat(labels, 2), tau)
            assert abs(got_sup - want_sup) <= 1e-10


def test_sup_con_reduces_to_self_con_with_distinct_labels():
    # one view per "class": give each SOURCE a unique label so the only
    # positive of each anchor is its sibling view, recovering the
    # self-supervised loss exactly
    for case in range(10):
        rng = rng_for(0xB1, case)
        k = int(rng.integers(2, 8))
        z, _ = random_view_batch(rng, k, 8)
        a = self_con_loss(z, 0.3).item()
        b = sup_con_loss(z, np.arange(k), 0.3).item()
        assert a == pytest.approx(b, abs=1e-14)


def test_losses_invariant_to_view_permutation():
    rng = rng_for(0xB2)
    z, labels = random_view_batch(rng, 6, 5, num_classes=3)
    base_self = self_con_loss(z, 0.4).item()
    base_sup = sup_con_loss(z, labels, 0.4).item()
    sources, view_labels = np.repeat(np.arange(6), 2), np.repeat(labels, 2)
    for _ in range(5):
        perm = rng.permutation(12)
        pz = Tensor(z.data[perm])
        assert abs(T.info_nce(pz, sources[perm], 0.4).item() - base_self) <= 1e-12
        assert abs(T.info_nce(pz, view_labels[perm], 0.4).item() - base_sup) <= 1e-12


def test_self_con_holds_one_n_by_n_array():
    """SelfCon's positives are the sibling rows, gathered: its forward and
    backward pass on 512 views hold the similarity buffer and no n x n
    positives matrix beside it."""
    z, _ = random_view_batch(rng_for(0xB9), 256, 16)
    n = len(z.data)
    tracemalloc.start()
    try:
        loss = self_con_loss(z, 0.5)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n * n * 8 < peak < 1.5 * n * n * 8


def test_sup_con_skips_anchor_without_positives():
    rng = rng_for(0xB3)
    z, _ = random_view_batch(rng, 3, 4)
    # no sibling pairs: only the first two rows share a key
    keys = np.array([0, 0, 1, 2, 3, 4])
    got = T.info_nce(z, keys, 0.7).item()
    want = brute_sup_con(z.data, keys, 0.7)
    assert got == pytest.approx(want, abs=1e-12)
    assert np.isfinite(got)


def test_losses_at_tiny_tau_match_brute_force_and_stay_finite():
    """At tau = 1e-3 similarities reach 1000, past exp's float64 range: the
    row-max shift keeps value and gradient finite. The oracle shifts each
    anchor's log-sum-exp by its own largest term."""
    tau = 1e-3
    for case in range(5):
        z, labels = random_view_batch(rng_for(0xB6, case), 6, 4, num_classes=3)
        sim = z.data @ z.data.T / tau
        for loss, keys in ((lambda: self_con_loss(z, tau), np.repeat(np.arange(6), 2)),
                           (lambda: sup_con_loss(z, labels, tau), np.repeat(labels, 2))):
            want, anchors = 0.0, 0
            for i in range(len(z.data)):
                others = [j for j in range(len(z.data)) if j != i]
                positives = [j for j in others if keys[j] == keys[i]]
                if not positives:
                    continue
                top = max(sim[i, j] for j in others)
                lse = top + np.log(sum(np.exp(sim[i, j] - top) for j in others))
                want += lse - sum(sim[i, j] for j in positives) / len(positives)
                anchors += 1
            z.grad = None
            out = loss()
            out.backward()
            assert out.item() == pytest.approx(want / anchors, rel=1e-12)
            assert np.isfinite(z.grad).all()


@pytest.mark.parametrize("tau", [0.0, -0.5, float("nan"), 1e-320, float("inf")])
def test_tau_without_a_finite_inverse_rejected(tau):
    """nan and 1e-320 gave nan, inf a constant loss with zero gradient."""
    z, labels = random_view_batch(rng_for(0xB7), 4, 3, num_classes=2)
    for loss in (lambda: self_con_loss(z, tau), lambda: sup_con_loss(z, labels, tau)):
        with pytest.raises(ParameterError, match="tau"):
            loss()


def test_contrastive_losses_finite_difference():
    for case in range(20):
        rng = rng_for(0xB4, case)
        z, labels = random_view_batch(rng, 4, 5, num_classes=2)
        check_gradients(lambda: self_con_loss(z, 0.5), [z])
        check_gradients(lambda: sup_con_loss(z, labels, 0.5), [z])


def test_loss_validation():
    rng = rng_for(0xB5)
    z, _ = random_view_batch(rng, 4, 3)
    with pytest.raises(ParameterError):
        self_con_loss(z, 0.0)
    with pytest.raises(DegenerateInputError):
        self_con_loss(random_view_batch(rng, 1, 3)[0], 0.5)
    with pytest.raises(DimensionError):
        sup_con_loss(z, np.arange(3), 0.5)  # one label short
    with pytest.raises(DegenerateInputError):
        T.info_nce(z, np.arange(8), 0.5)  # nobody has a positive


@pytest.mark.parametrize("loss", [
    lambda z: self_con_loss(z, 0.5),
    lambda z: sup_con_loss(z, np.array([0, 1]), 0.5),
], ids=["self", "sup"])
def test_odd_view_count_rejected(loss):
    """5 rows are not two views per source: self_con_loss gave 1.699 and
    left the last row out."""
    z, _ = random_view_batch(rng_for(0xB8), 3, 3)
    with pytest.raises(DimensionError, match="5 rows"):
        loss(Tensor(z.data[:5]))


def test_sup_con_labels_must_be_one_per_source():
    """Labels of shape (2, 2) for 4 sources were flattened into keys that
    paired views of different sources (2.884)."""
    z, labels = random_view_batch(rng_for(0xB9), 4, 3, num_classes=2)
    with pytest.raises(DimensionError, match=r"labels \(2, 2\) for 4 source rows"):
        sup_con_loss(z, labels.reshape(2, 2), 0.5)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 6), dim=st.integers(2, 8),
       tau=st.floats(0.05, 3.0), seed=st.integers(0, 10_000))
def test_self_con_positive_and_finite(k, dim, tau, seed):
    z, _ = random_view_batch(rng_for(seed), k, dim)
    val = self_con_loss(z, tau).item()
    assert np.isfinite(val)
    # lse over >=3 candidates strictly exceeds the single positive term
    assert val > 0.0


# ------------------------------------------------------------ augmentation

def test_augment_spec_validation():
    with pytest.raises(ParameterError):
        AugmentSpec(weak_jitter_sigma=0.5, strong_jitter_sigma=0.1)
    with pytest.raises(ParameterError):
        AugmentSpec(mask_prob=1.5)
    with pytest.raises(ParameterError, match="scale_lo = 1.2 and scale_hi = 1.4 must"):
        AugmentSpec(scale_range=(1.2, 1.4))
    with pytest.raises(ParameterError, match="scale_lo = 0.9 and scale_hi = inf must"):
        AugmentSpec(scale_range=(0.9, np.inf))
    for name in ("weak_jitter_sigma", "strong_jitter_sigma", "mask_prob"):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ParameterError, match=f"{name} = {bad} must be finite"):
                AugmentSpec(**{name: bad})


def test_augment_statistics():
    spec = AugmentSpec(weak_jitter_sigma=0.1, strong_jitter_sigma=0.3,
                       mask_prob=0.25, scale_range=(0.9, 1.1))
    x = np.zeros((4000, 5))
    rng = rng_for(0xA0)
    weak = augment(x, spec, "weak", rng)
    assert weak.std() == pytest.approx(0.1, rel=0.05)
    strong = augment(np.ones((4000, 5)), spec, "strong", rng)
    assert (strong == 0.0).mean() == pytest.approx(0.25, abs=0.02)
    with pytest.raises(ParameterError):
        augment(x, spec, "medium", rng)


def test_augment_deterministic_under_seed():
    spec = AugmentSpec()
    x = rng_for(1).normal(size=(10, 3))
    a = augment(x, spec, "strong", rng_for(42))
    b = augment(x, spec, "strong", rng_for(42))
    assert np.array_equal(a, b)


def test_make_view_batch_interleaves_pairs():
    arch = Arch(input_dim=3, num_classes=2, feat_hidden=(64, 64), proj_hidden=64,
                proj_dim=16)
    m = ModelTriple(arch, seed=0)
    x = rng_for(2).normal(size=(5, 3))
    z = make_view_batch(m, x, AugmentSpec(), rng_for(3))
    assert z.data.shape == (10, 16)
    # row k's views sit at 2k and 2k + 1, in the order they were drawn
    rng = rng_for(3)
    for first in (0, 1):
        want = m.forward_projection(augment(x, AugmentSpec(), "strong", rng)).data
        assert np.allclose(z.data[first::2], want, atol=1e-12)
    # rows are unit-norm projections
    assert np.allclose((z.data ** 2).sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        make_view_batch(m, np.zeros((0, 3)), AugmentSpec(), rng_for(4))
