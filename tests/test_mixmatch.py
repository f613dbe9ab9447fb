"""Semi-supervised building blocks: sharpening, refinement, guessing, MixUp
and the three-term objective, each against a hand or numpy oracle."""

import numpy as np
import pytest
import scipy.stats

from codim.contrastive import AugmentSpec, augment
from codim.errors import DegenerateInputError, ParameterError
from codim.mixmatch import (build_semi_batch, co_refine, guess_labels, mean_weak_proba,
                            mixup, one_hot, semi_loss, sharpen)
from codim.models import Arch, DuoModel, ModelTriple
from codim.trainers import TrainConfig

from conftest import check_gradients, rng_for


def make_duo(input_dim=3, num_classes=3, seed=0):
    arch = Arch(input_dim=input_dim, num_classes=num_classes,
                feat_hidden=(8, 8), proj_hidden=8, proj_dim=4)
    return DuoModel(ModelTriple(arch, seed=seed), ModelTriple(arch, seed=seed + 1))


# ------------------------------------------------------------- sharpen

def test_sharpen_hand_values():
    p = np.array([[0.5, 0.25, 0.25]])
    got = sharpen(p, 0.5)  # squares then renormalizes
    want = np.array([[4.0, 1.0, 1.0]]) / 6.0
    assert np.allclose(got, want, atol=1e-12)


def test_sharpen_t1_is_identity_and_reduces_entropy():
    rng = rng_for(0xC0)
    p = rng.dirichlet(np.ones(4), size=50)
    assert np.allclose(sharpen(p, 1.0), p, atol=1e-12)
    sharp = sharpen(p, 0.4)
    ent = lambda q: -(q * np.log(np.maximum(q, 1e-300))).sum(axis=1)
    assert (ent(sharp) <= ent(p) + 1e-12).all()
    for t in (0.0, float("nan"), 1e-320, float("inf")):  # nan rows, or uniform at inf
        with pytest.raises(ParameterError):
            sharpen(p, t)


def test_one_hot():
    assert np.array_equal(one_hot(np.array([2, 0]), 3),
                          [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


# ------------------------------------------------------------- co_refine

def test_co_refine_extremes():
    noisy = one_hot(np.array([0, 1]), 3)
    pred = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]])
    # fully trusted label -> sharpened one-hot stays one-hot
    assert np.allclose(co_refine(np.ones(2), noisy, pred, 0.5), noisy, atol=1e-12)
    # fully distrusted label -> sharpened own prediction
    assert np.allclose(co_refine(np.zeros(2), noisy, pred, 0.5),
                       sharpen(pred, 0.5), atol=1e-12)


def test_co_refine_blend_oracle():
    rng = rng_for(0xC1)
    w = rng.uniform(size=4)
    noisy = one_hot(rng.integers(0, 3, size=4), 3)
    pred = rng.dirichlet(np.ones(3), size=4)
    want = sharpen(w[:, None] * noisy + (1 - w[:, None]) * pred, 0.5)
    assert np.allclose(co_refine(w, noisy, pred, 0.5), want, atol=1e-12)


# ------------------------------------------------------------- mixup

def test_mixup_forced_lambda():
    x1, x2 = np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
    p1, p2 = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
    xm, pm = mixup(x1, p1, x2, p2, alpha=4.0, rng=rng_for(0))
    # lam' = max(lam, 1 - lam) of the generator's one Beta(4, 4) draw, biased
    # toward the first argument
    lam = rng_for(0).beta(4.0, 4.0)
    lam = max(lam, 1.0 - lam)
    assert np.array_equal(xm, lam * x1 + (1.0 - lam) * x2)
    assert np.array_equal(pm, lam * p1 + (1.0 - lam) * p2)


def test_mixup_weight_distribution_matches_folded_beta():
    alpha = 4.0
    rng = rng_for(0xC2)
    lams = []
    x1, x2 = np.zeros((1, 1)), np.ones((1, 1))
    p = np.array([[1.0]])
    for _ in range(4000):
        xm, _ = mixup(x1, p, x2, p, alpha, rng)
        lams.append(1.0 - xm[0, 0])  # recovers lam'
    lams = np.array(lams)
    assert (lams >= 0.5).all()
    # lam' = max(B, 1-B) with B ~ Beta(a, a): CDF(t) = 2*BetaCDF(t) - 1 on [0.5, 1]
    cdf = lambda t: 2.0 * scipy.stats.beta.cdf(t, alpha, alpha) - 1.0
    stat, pvalue = scipy.stats.kstest(lams, cdf)
    assert pvalue > 1e-3, f"KS p-value {pvalue}"
    with pytest.raises(ParameterError):
        mixup(x1, p, x2, p, 0.0, rng)


# ------------------------------------------------------------- guessing

def test_guess_labels_matches_manual_loop():
    duo = make_duo()
    spec = AugmentSpec()
    u = rng_for(0xC3).normal(size=(6, 3))
    got = guess_labels(duo.nets, u, spec, 3, 0.5, rng_for(0xC4))
    # replicate: same rng stream drives the augmentations in order
    rng = rng_for(0xC4)
    acc = np.zeros((6, 3))
    for _ in range(3):
        view = augment(u, spec, "weak", rng)
        acc += duo.net_a.predict_proba(view) + duo.net_b.predict_proba(view)
    want = sharpen(acc / 6.0, 0.5)
    assert np.allclose(got, want, atol=1e-14)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        guess_labels(duo.nets, np.zeros((0, 3)), spec, 3, 0.5, rng)


@pytest.mark.parametrize("num_nets", [1, 2])
def test_mean_weak_proba_batched_matches_per_view_loop(num_nets):
    """One predict_proba call per net over all weak views gives the per-view
    loop's mean, and leaves the rng where the loop leaves it."""
    nets = make_duo().nets[:num_nets]
    spec = AugmentSpec()
    u = rng_for(0xC5).normal(size=(7, 3))
    rng = rng_for(0xC6)
    got = mean_weak_proba(nets, u, spec, 3, rng)
    ref_rng = rng_for(0xC6)
    want = np.zeros((7, 3))
    for _ in range(3):
        view = augment(u, spec, "weak", ref_rng)
        for net in nets:
            want += net.predict_proba(view)
    want /= 3 * num_nets
    assert np.abs(got - want).max() <= 1e-12
    assert rng.random() == ref_rng.random()


# ------------------------------------------------------------- batches

def test_build_semi_batch_bookkeeping():
    rng = rng_for(0xC5)
    x_lab = rng.normal(size=(4, 3))
    p_lab = one_hot(np.array([0, 1, 2, 0]), 3)
    x_unl = rng.normal(size=(5, 3))
    p_unl = rng.dirichlet(np.ones(3), size=5)
    mixed_x, mixed_targets, is_labeled = build_semi_batch(x_lab, p_lab, x_unl, p_unl,
                                                          4.0, rng)
    assert mixed_x.shape == (9, 3)
    assert is_labeled.sum() == 4
    assert is_labeled[:4].all() and not is_labeled[4:].any()
    assert np.allclose(mixed_targets.sum(axis=1), 1.0, atol=1e-12)


def test_semi_batch_target_contract():
    with pytest.raises(DegenerateInputError):
        build_semi_batch(np.zeros((2, 2)), np.array([[0.5, 0.2], [0.5, 0.5]]),
                         np.zeros((0, 2)), np.zeros((0, 2)), 4.0, rng_for(0xC8))


# ------------------------------------------------------------- semi loss

def manual_semi_loss(m, x, targets, lab, hyper, epoch):
    probs = m.predict_proba(x)
    lx = -np.mean((targets[lab]
                   * np.log(probs[lab])).sum(axis=1))
    if (~lab).any():
        lu = np.mean((probs[~lab] - targets[~lab]) ** 2)
    else:
        lu = 0.0
    pi = 1.0 / targets.shape[1]
    mean_pred = probs.mean(axis=0)
    lreg = np.sum(pi * (np.log(pi) - np.log(mean_pred)))
    ramp = hyper.lambda_u * min(max(epoch / hyper.warmup_ramp_epochs, 0.0), 1.0) \
        if hyper.warmup_ramp_epochs > 0 else hyper.lambda_u
    return lx, lu, lreg, lx + ramp * lu + hyper.lambda_r * lreg


def test_semi_loss_matches_numpy_oracle():
    duo = make_duo()
    cfg = TrainConfig()
    rng = rng_for(0xC6)
    batch = build_semi_batch(rng.normal(size=(4, 3)), one_hot(np.array([0, 1, 2, 1]), 3),
                             rng.normal(size=(6, 3)), rng.dirichlet(np.ones(3), size=6),
                             4.0, rng)
    lx, lu, lreg, total = semi_loss(duo.net_a, *batch, cfg.ramped_lambda_u(3.0), cfg.lambda_r)
    mx, mu, mreg, mtotal = manual_semi_loss(duo.net_a, *batch, cfg, 3.0)
    assert lx == pytest.approx(mx, abs=1e-10)
    assert lu == pytest.approx(mu, abs=1e-10)
    assert lreg == pytest.approx(mreg, abs=1e-10)
    assert total.item() == pytest.approx(mtotal, abs=1e-10)


def test_semi_loss_requires_labeled_rows():
    duo = make_duo()
    with pytest.raises(DegenerateInputError):
        semi_loss(duo.net_a, np.zeros((2, 3)), np.full((2, 3), 1.0 / 3.0),
                  np.array([False, False]), TrainConfig().ramped_lambda_u(0.0), 1.0)


def test_semi_loss_end_to_end_gradient():
    duo = make_duo()
    cfg = TrainConfig()
    rng = rng_for(0xC7)
    batch = build_semi_batch(rng.normal(size=(3, 3)), one_hot(np.array([0, 1, 2]), 3),
                             rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4),
                             4.0, rng)
    params = list(duo.net_a.params().values())
    check_gradients(lambda: semi_loss(duo.net_a, *batch, cfg.ramped_lambda_u(2.0),
                                      cfg.lambda_r)[3],
                    params, tol=1e-5, max_entries=6)


def test_ramped_lambda_u():
    cfg = TrainConfig(lambda_u=20.0, warmup_ramp_epochs=10)
    assert cfg.ramped_lambda_u(0.0) == 0.0
    assert cfg.ramped_lambda_u(5.0) == pytest.approx(10.0)
    assert cfg.ramped_lambda_u(25.0) == 20.0
    assert TrainConfig(lambda_u=7.0, warmup_ramp_epochs=0).ramped_lambda_u(0.0) == 7.0


def test_ssl_hyper_validation():
    """The range rules of TrainConfig's six MixMatch fields."""
    with pytest.raises(ParameterError):
        TrainConfig(lambda_u=-1.0)
    with pytest.raises(ParameterError):
        TrainConfig(sharpen_t=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(mixup_alpha=0.0)
    for bad in ({"lambda_u": np.nan}, {"lambda_r": np.nan}, {"mixup_alpha": np.nan},
                {"lambda_u": np.inf}, {"lambda_r": np.inf}, {"mixup_alpha": np.inf},
                {"sharpen_t": 1e-320}, {"sharpen_t": np.nan}):
        (name, value), = bad.items()
        with pytest.raises(ParameterError, match=f"{name} = {value}"):
            TrainConfig(**bad)
    for name in ("warmup_ramp_epochs", "num_augs"):
        with pytest.raises(ParameterError, match=f"{name} = -1 must be >= "):
            TrainConfig(**{name: -1})
    with pytest.raises(ParameterError, match="sharpen_t = 1.5"):
        TrainConfig(sharpen_t=1.5)
