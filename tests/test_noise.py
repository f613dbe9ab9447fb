"""Noise injection statistics and the 1-D two-component GMM fitter."""

import os
import pathlib
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from codim.data import BlobSpec, gen_blobs
from codim.errors import DegenerateInputError, ParameterError
from codim.models import Arch, ModelTriple
from codim.noise import (GmmParams, NoiseSpec, Partition, _median, fit_gmm_1d,
                         inject_noise, make_partition, partition_by_losses,
                         partition_losses, per_sample_losses)

from conftest import rng_for


def test_spec_validation():
    with pytest.raises(ParameterError):
        NoiseSpec("uniform", 0.4)
    with pytest.raises(ParameterError):
        NoiseSpec("symmetric", 1.5)
    for kind in ("none", "symmetric", "asymmetric"):
        with pytest.raises(ParameterError, match="noise_seed = -1"):
            NoiseSpec(kind, 0.4, seed=-1)
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ParameterError, match=f"noise_ratio = {bad} must be finite"):
                NoiseSpec(kind, bad)
    for regime, spec in (("strict symmetric", NoiseSpec("symmetric", 0.4, redraw_over_all=False)),
                         ("asymmetric", NoiseSpec("asymmetric", 0.4))):
        with pytest.raises(ParameterError, match=f"^{regime} noise needs num_classes >= 2$"):
            inject_noise(np.zeros(10, dtype=int), 1, spec)


@pytest.mark.parametrize("c, spec, bound", [
    (4, NoiseSpec("symmetric", 0.75, redraw_over_all=False), "0.75"),
    (3, NoiseSpec("symmetric", 2 / 3, redraw_over_all=False), "0.6667"),
    (2, NoiseSpec("symmetric", 0.5, redraw_over_all=False), "0.5"),
    (4, NoiseSpec("symmetric", 1.0), "1"),
    (4, NoiseSpec("asymmetric", 0.5), "0.5"),
], ids=["strict-c4", "strict-c3", "strict-c2", "over-all", "asymmetric"])
def test_noise_without_a_true_majority_rejected(c, spec, bound):
    """At the bound a wrong label is expected as often as the true one within
    a class; one ulp below it the noise is injected."""
    labels = np.arange(40) % c
    with pytest.raises(ParameterError, match=(rf"ratio {spec.ratio} with C = {c} "
                                              rf".* must be < {bound}$")):
        inject_noise(labels, c, spec)
    below = replace(spec, ratio=np.nextafter(spec.ratio, 0.0))
    changed = (inject_noise(labels, c, below) != labels).sum()
    if spec.kind == "symmetric" and spec.redraw_over_all:
        assert 0 < changed <= round(below.ratio * 40)  # a redraw may keep its label
    else:
        assert changed == round(below.ratio * 40)


# the asymmetric pair flip, written out class by class: 0<->1, 2<->3, ...,
# and an odd last class, which has no partner, to 0
PAIR_MAPS = {3: np.array([1, 0, 0]), 4: np.array([1, 0, 3, 2]), 5: np.array([1, 0, 3, 2, 0])}


@pytest.mark.parametrize("c", [4, 3])
def test_asymmetric_noise_flips_to_the_pair_partner(c):
    labels = np.arange(40 * c) % c
    noisy = inject_noise(labels, c, NoiseSpec("asymmetric", 0.45, seed=2))
    changed = noisy != labels
    assert changed.sum() == round(0.45 * len(labels))
    assert np.array_equal(noisy[changed], PAIR_MAPS[c][labels[changed]])
    assert set(labels[changed]) == set(range(c))


@pytest.mark.parametrize("ratio", [0.0, 0.4, 1.0])
def test_none_noise_leaves_the_labels_alone(ratio):
    labels = np.arange(40) % 4
    noisy = inject_noise(labels, 4, NoiseSpec("none", ratio, seed=3))
    assert np.array_equal(noisy, labels)
    noisy[0] = 3
    assert labels[0] == 0


def test_symmetric_binomial_oracle():
    """r=0.5, C=10, N=10^4: each selected label lands back on its own class
    with probability 1/10, so the differing fraction is Binomial(5000, 0.9)/N
    with mean 0.45; the measurement must fall within 3 sigma."""
    n, c, r = 10_000, 10, 0.5
    labels = rng_for(0xD0).integers(0, c, size=n)
    noisy = inject_noise(labels, c, NoiseSpec("symmetric", r, seed=7))
    frac = (noisy != labels).mean()
    sigma = np.sqrt(r * n * 0.9 * 0.1) / n
    assert abs(frac - 0.45) <= 3 * sigma, f"fraction {frac}"


def test_symmetric_strict_convention_always_differs():
    labels = rng_for(0xD1).integers(0, 4, size=5000)
    noisy = inject_noise(
        labels, 4, NoiseSpec("symmetric", 0.4, seed=3, redraw_over_all=False))
    changed = noisy != labels
    assert changed.sum() == 2000
    # redrawn labels are uniform over the other 3 classes
    counts = np.bincount(noisy[changed], minlength=4)
    assert counts.min() > 0


def test_asymmetric_flips_exact_count_through_map():
    n, c, r = 3000, 4, 0.4
    labels = rng_for(0xD2).integers(0, c, size=n)
    noisy = inject_noise(labels, c, NoiseSpec("asymmetric", r, seed=5))
    changed = noisy != labels
    assert changed.sum() == round(r * n) == 1200
    assert (noisy[changed] == PAIR_MAPS[c][labels[changed]]).all()


def test_inject_noise_deterministic():
    labels = np.arange(100) % 5
    spec = NoiseSpec("symmetric", 0.3, seed=11)
    assert np.array_equal(inject_noise(labels, 5, spec), inject_noise(labels, 5, spec))


def _selected_rows_inject_noise(labels, num_classes, spec):
    """The injector as it was when it also returned the rows it selected
    (majority checks left out): the oracle of the draws, and of which rows
    a draw selected."""
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
        noisy[selected] = PAIR_MAPS[num_classes][labels[selected]]
    return noisy, flip_mask
NOISE_KINDS = {
    "strict": (4, [0.2, 0.4, 0.7], lambda r, s: NoiseSpec(
        "symmetric", r, seed=s, redraw_over_all=False)),
    "over-all": (4, [0.2, 0.5, 0.8, 0.9], lambda r, s: NoiseSpec("symmetric", r, seed=s)),
    "full-map": (4, [0.2, 0.4, 0.45], lambda r, s: NoiseSpec("asymmetric", r, seed=s)),
    "odd-pair-map": (5, [0.2, 0.4, 0.45], lambda r, s: NoiseSpec("asymmetric", r, seed=s)),
}


@pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
def test_noisy_labels_match_the_selected_rows_oracle(kind):
    """Same draws as the oracle, byte for byte, and ``flip_mask`` marks the
    rows whose label changed: every selected row, except for noise redrawn
    over all classes, where a redraw may keep its label."""
    c, ratios, make = NOISE_KINDS[kind]
    clean = gen_blobs(BlobSpec(num_classes=c, samples_per_class=150, seed=3))
    for ratio in ratios:
        for seed in range(4):
            spec = make(ratio, seed)
            ds = clean.with_noise(spec)
            want, selected = _selected_rows_inject_noise(ds.clean_labels, c, spec)
            got = inject_noise(ds.clean_labels, c, spec)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert ds.noisy_labels.tobytes() == want.tobytes()
            assert np.array_equal(ds.flip_mask, ds.noisy_labels != ds.clean_labels)
            assert not (ds.flip_mask & ~selected).any()
            if kind == "over-all":
                assert ds.flip_mask.sum() < selected.sum()
            else:
                assert np.array_equal(ds.flip_mask, selected)
                assert ds.flip_mask.sum() == round(ratio * ds.n)


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


def _em_datasets():
    """100 random two-component datasets of 60 to 600 values."""
    for case in range(100):
        rng = rng_for(0xD4, case)
        n = int(rng.integers(30, 300))
        yield case, np.concatenate([
            rng.normal(rng.uniform(-2, 0), rng.uniform(0.05, 1.0), n),
            rng.normal(rng.uniform(0.5, 3), rng.uniform(0.05, 1.0), n),
        ])


def test_gmm_log_likelihood_monotone_on_100_random_datasets():
    for case, values in _em_datasets():
        g = fit_gmm_1d(values)
        diffs = np.diff(np.asarray(g.ll_history))
        assert (diffs >= -1e-8).all(), f"case {case}: EM decreased the log-likelihood"


def _reference_em(values):
    """``fit_gmm_1d`` with fresh arrays at every step, and the posterior of the
    low-mean component: the oracle for the in-place EM."""
    max_iter, tol, var_floor = 100, 1e-6, 1e-6
    n = len(values)
    med = np.median(values)
    low, high = values[values <= med], values[values > med]
    if len(high) == 0:
        order = np.argsort(values)
        low, high = values[order[: n // 2]], values[order[n // 2:]]
    weights = np.array([len(low) / n, len(high) / n])
    means = np.array([low.mean(), high.mean()])
    variances = np.maximum(np.array([low.var(), high.var()]), var_floor)

    def densities(w, mu, var):
        dens = np.stack([wk * (np.exp(-0.5 * (values - mk) ** 2 / vk)
                               / np.sqrt(2.0 * np.pi * vk))
                         for wk, mk, vk in zip(w, mu, var)])
        return dens, np.maximum(dens.sum(axis=0), 1e-300)

    ll_history, prev_ll = [], -np.inf
    for iterations in range(1, max_iter + 1):
        dens, totals = densities(weights, means, variances)
        ll = float(np.log(totals).sum())
        ll_history.append(ll)
        resp = dens / totals
        counts = resp.sum(axis=1)
        weights = counts / n
        means = (resp * values).sum(axis=1) / np.maximum(counts, 1e-300)
        variances = np.maximum((resp * (values - means[:, None]) ** 2).sum(axis=1)
                               / np.maximum(counts, 1e-300), var_floor)
        if abs(ll - prev_ll) < tol:
            break
        prev_ll = ll
    order = np.argsort(means)
    params = weights[order], means[order], variances[order]
    dens, totals = densities(*params)
    return (*params, iterations, ll_history), dens[0] / totals


def test_gmm_equals_reference_em_bit_for_bit():
    ties = np.concatenate([np.linspace(0.0, 0.5, 15), np.full(25, 1.0)])
    assert not (ties > np.median(ties)).any()  # the split-by-rank branch
    for case, values in [*_em_datasets(), ("ties at the median", ties)]:
        g = fit_gmm_1d(values)
        fit, posterior = _reference_em(values)
        got = (g.weights, g.means, g.variances, g.iterations, g.ll_history)
        for name, a, b in zip(("weights", "means", "variances", "iterations",
                               "ll_history"), got, fit):
            assert np.array_equal(a, b), f"case {case}: {name} {a} != {b}"
        assert np.array_equal(make_partition(g, values, 0.5).clean_prob, posterior), case


def test_median_equals_np_median_bit_for_bit():
    """``np.median`` is the oracle: odd and even n, ties, sums of the middle
    pair that overflow to inf, and subnormal scales."""
    rng = rng_for(0x3D)
    cases = [np.array([1e308, 1.5e308, -1e308, 1.7e308]),
             np.array([-1.7e308, -1.6e308, 0.0]), np.array([-1.7e308, -1.6e308]),
             np.array([2.0, 2.0, 1.0, 2.0]), np.array([-0.0, 0.0]), np.array([3.0])]
    for n in range(1, 41):
        cases += [rng.normal(size=n), rng.integers(0, 3, n).astype(float),
                  rng.choice([-1.7e308, -1e308, 0.0, 1e308, 1.7e308], n),
                  rng.normal(size=n) * 1e-300]
    with np.errstate(over="ignore"):
        for values in cases:
            got, want = _median(values), np.median(values)
            assert type(got) is type(want), values
            assert got == want or (np.isnan(got) and np.isnan(want)), values
            assert np.signbit(got) == np.signbit(want), values


def test_fit_and_partition_leave_numpy_ma_unimported(tmp_path):
    """``np.median``'s NaN check imports numpy.ma on first use, a cost paid
    in every process; a co-divide run and ``codim partition`` do without it."""
    code = textwrap.dedent(r"""
        import sys
        import numpy as np
        from codim import cli
        from codim.config import make_dataset, make_train_config, parse_config_text
        from codim.trainers import CodimTrainer
        values = parse_config_text("samples_per_class = 10\nepochs = 2\nwarmup_epochs = 1\n")
        CodimTrainer(make_dataset(values), make_train_config(values)).run()
        losses = np.random.default_rng(0).gamma(2.0, size=50).tolist()
        with open("losses.csv", "w") as fh:
            fh.write("".join(f"{v!r}\n" for v in losses))
        assert cli.main(["partition", "losses.csv"]) == 0
        print("numpy.ma" in sys.modules)
    """)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_gmm_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        fit_gmm_1d(np.arange(5.0))  # too few
    with pytest.raises(DegenerateInputError):
        fit_gmm_1d(np.full(100, 0.5))  # constant


def test_make_partition_posterior():
    g = GmmParams(weights=np.array([0.5, 0.5]), means=np.array([0.0, 1.0]),
                  variances=np.array([0.01, 0.01]), ll_history=[0.0])
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
    assert part.gmm is None and "constant" in part.fallback
    few = partition_losses(np.array([0.1, 0.9, 0.2, 0.8, 0.5]), 0.5)
    assert few.clean_idx.tolist() == [0, 1, 2, 3, 4] and few.noisy_idx.size == 0
    assert few.gmm is None and "fewer than 10" in few.fallback


def test_partition_losses_records_the_fit():
    losses = np.concatenate([np.linspace(0.0, 0.2, 60), np.linspace(0.8, 1.0, 40)])
    part = partition_losses(losses, 0.5)
    assert part.fallback is None
    assert part.gmm.means[0] < 0.5 < part.gmm.means[1]
    assert np.array_equal(part.clean_prob, make_partition(part.gmm, losses, 0.5).clean_prob)
    assert part.clean_idx.tolist() == list(range(60))


def test_partition_losses_rejects_non_finite_losses():
    for bad in (np.nan, np.inf):
        with pytest.raises(DegenerateInputError, match="finite"):
            partition_losses(np.array([0.1] * 20 + [bad]), 0.5)


def test_partition_losses_rejects_an_overflowed_fit():
    losses = np.concatenate([np.full(20, 1e308), np.full(20, -1e308), np.linspace(0, 1, 20)])
    with np.errstate(all="ignore"), pytest.raises(DegenerateInputError, match="overflow"):
        partition_losses(losses, 0.5)


def test_every_partition_rejects_threshold_outside_unit_interval():
    # evenly spread losses reach the lowest-10% fallback at threshold > 1,
    # which used to mark 20 samples "clean" with clean_prob = 2.0
    n = 200
    probs = np.column_stack([np.linspace(0.05, 0.95, n), np.linspace(0.95, 0.05, n)])
    for threshold in (2.0, -0.5, np.nan):
        with pytest.raises(ParameterError, match="threshold"):
            partition_by_losses(_StubModel(probs), np.zeros((n, 1)),
                                np.zeros(n, dtype=int), threshold=threshold)
    with pytest.raises(ParameterError, match="threshold"):  # the all-clean fallback
        partition_losses(np.full(50, 0.3), 1.5)
    g = fit_gmm_1d(np.linspace(0.0, 1.0, 50))
    with pytest.raises(ParameterError, match="threshold"):
        make_partition(g, np.linspace(0.0, 1.0, 50), -1.0)
    with pytest.raises(ParameterError, match="threshold"):
        Partition.split(np.ones(3), 1.0 + 1e-12)


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
