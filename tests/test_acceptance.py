"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

The end-to-end criteria (5-7, 9) run the frozen protocols of
``scripts/reproduce.py`` on seeds 0-4; its docstring describes each one, and
``python3 scripts/reproduce.py`` prints the same per-seed numbers as tables.
Every run is fully deterministic, so these results are reproducible
byte-for-byte. 5a runs on the memorizing protocol because CE on the 2-D
protocol already sits at the Bayes ceiling (nearest-true-mean accuracy
0.961-0.970 on seeds 0-4), so CE + 5 points would exceed 1.0; 5a also checks,
per seed, that CE on the clean labels beats CE on the noisy ones by >= 5
points, so the protocol can never again leave no room for the gap it asks
for.
"""

import time

import numpy as np
import pytest

import reproduce
from codim import tensor as T
from codim.checkpoint import load_checkpoint, save_checkpoint
from codim.contrastive import self_con_loss, sup_con_loss
from codim.data import (IDX_IMAGES_MAGIC, BlobSpec, _read_idx, gen_blobs,
                        write_idx_images)
from codim.errors import IdxParseError
from codim.mixmatch import build_semi_batch, one_hot, semi_loss
from codim.models import Arch, ModelTriple
from codim.noise import NoiseSpec, fit_gmm_1d, inject_noise
from codim.tensor import Tensor
from codim.trainers import TrainConfig, train_codim

from conftest import check_gradients, rng_for
from test_contrastive import brute_self_con, brute_sup_con, random_view_batch

SEEDS = range(5)


def report(criterion: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


def run_protocol(protocol):
    """One row per seed, each the seed plus ``protocol(seed)``'s numbers,
    and the seconds the runs took."""
    start = time.time()
    rows = [dict(seed=s, **protocol(s)) for s in SEEDS]
    return rows, time.time() - start


# ----------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def blob_benchmark():
    """2-D blobs: CE baseline first (the oracle), then CoDiM-Sup."""
    return run_protocol(reproduce.blobs_2d)


@pytest.fixture(scope="module")
def memorizing_benchmark():
    """Memorizing blobs: CE on clean labels (the headroom oracle), CE on
    noisy labels, then CoDiM-Sup."""
    return run_protocol(reproduce.memorizing)


@pytest.fixture(scope="module")
def cssl_benchmark():
    """20% labeled blobs, no noise; plain SSL measured first."""
    return run_protocol(reproduce.cssl)[0]


# ----------------------------------------------------------- criterion 1

def test_criterion_1_gradient_suite():
    start = time.time()
    worst = 0.0
    # tensor-core ops, 20 instances each (the full per-op matrix lives in
    # test_tensor.py; this re-runs a compact end-to-end selection)
    for i in range(20):
        rng = rng_for(0xAC1, i)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        x = rng.normal(size=(5, 4))
        targets = rng.dirichlet(np.ones(3), size=5)

        def net_loss():
            h = T.matmul(Tensor(x), w, bias=b, relu=True)
            return T.softmax_cross_entropy(h, targets)

        worst = max(worst, check_gradients(net_loss, [w, b], tol=1e-6))
    # contrastive losses through raw embeddings
    for i in range(20):
        z, labels = random_view_batch(rng_for(0xAC2, i), 4, 5, num_classes=2)
        worst = max(worst, check_gradients(lambda: self_con_loss(z, 0.5), [z]))
        worst = max(worst, check_gradients(lambda: sup_con_loss(z, labels, 0.5), [z]))
    # semi-supervised loss end-to-end through a model (1e-5 budget)
    m = ModelTriple(Arch(3, 3, feat_hidden=(8, 8), proj_hidden=8, proj_dim=4), 0)
    rng = rng_for(0xAC3)
    batch = build_semi_batch(rng.normal(size=(3, 3)), one_hot(np.array([0, 1, 2]), 3),
                             rng.normal(size=(4, 3)), rng.dirichlet(np.ones(3), size=4),
                             4.0, rng)
    cfg = TrainConfig()
    e2e = check_gradients(lambda: semi_loss(m, *batch, cfg.ramped_lambda_u(2.0),
                                            cfg.lambda_r)[3],
                          list(m.params().values()), tol=1e-5, max_entries=4)
    elapsed = time.time() - start
    ok = elapsed < 60.0
    report("1 (gradient suite)",
           ok, f"worst op error {worst:.2e}, end-to-end {e2e:.2e}, {elapsed:.1f}s")
    assert ok


# ----------------------------------------------------------- criterion 2

def test_criterion_2_contrastive_oracles():
    worst = 0.0
    for case in range(50):
        rng = rng_for(0xAC4, case)
        k = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 17))
        z, labels = random_view_batch(rng, k, dim, num_classes=3)
        tau = float(rng.uniform(0.05, 2.0))
        worst = max(worst, abs(self_con_loss(z, tau).item()
                               - brute_self_con(z.data, np.repeat(np.arange(k), 2), tau)))
        worst = max(worst, abs(sup_con_loss(z, labels, tau).item()
                               - brute_sup_con(z.data, np.repeat(labels, 2), tau)))
    # supervised loss reduces to the self-supervised one when every source
    # carries a unique label
    z, _ = random_view_batch(rng_for(0xAC5), 5, 6)
    reduction_gap = abs(sup_con_loss(z, np.arange(5), 0.3).item()
                        - self_con_loss(z, 0.3).item())
    ok = worst <= 1e-10 and reduction_gap <= 1e-12
    report("2 (contrastive oracles)", ok,
           f"worst brute-force gap {worst:.2e}, reduction gap {reduction_gap:.2e}")
    assert ok


# ----------------------------------------------------------- criterion 3

def test_criterion_3_gmm_recovery():
    rng = rng_for(0xAC6)
    n = 2000
    comp = rng.random(n) < 0.7
    values = np.where(comp, rng.normal(0.1, 0.05, n), rng.normal(0.9, 0.1, n))
    g = fit_gmm_1d(values)
    mean_err = max(abs(g.means[0] - 0.1), abs(g.means[1] - 0.9))
    weight_err = max(abs(g.weights[0] - 0.7), abs(g.weights[1] - 0.3))
    monotone = True
    for case in range(100):
        r = rng_for(0xAC7, case)
        vals = np.concatenate([r.normal(-1, 0.3, 80), r.normal(1, 0.5, 80)])
        hist = fit_gmm_1d(vals).ll_history
        monotone &= bool((np.diff(hist) >= -1e-8).all())
    ok = mean_err <= 0.03 and weight_err <= 0.05 and monotone
    report("3 (GMM recovery)", ok,
           f"mean err {mean_err:.4f} (<=0.03), weight err {weight_err:.4f} "
           f"(<=0.05), EM monotone on 100 datasets: {monotone}")
    assert ok


# ----------------------------------------------------------- criterion 4

def test_criterion_4_noise_statistics():
    n, c, r = 10_000, 10, 0.5
    labels = rng_for(0xAC8).integers(0, c, size=n)
    noisy = inject_noise(labels, c, NoiseSpec("symmetric", r, seed=17))
    frac = (noisy != labels).mean()
    sigma = np.sqrt(r * n * 0.9 * 0.1) / n
    sym_ok = abs(frac - 0.45) <= 3 * sigma
    labels4 = rng_for(0xAC9).integers(0, 4, size=5000)
    noisy4 = inject_noise(labels4, 4, NoiseSpec("asymmetric", 0.4, seed=3))
    mask4 = noisy4 != labels4
    asym_ok = (mask4.sum() == round(0.4 * 5000)
               and (noisy4[mask4] != labels4[mask4]).all())
    ok = sym_ok and asym_ok
    report("4 (noise statistics)", ok,
           f"measured fraction {frac:.4f} vs 0.45±{3 * sigma:.4f}; "
           f"asymmetric flipped {mask4.sum()}/2000 expected")
    assert ok


# ----------------------------------------------------------- criterion 5

def test_criterion_5a_codim_beats_ce(memorizing_benchmark):
    rows, elapsed = memorizing_benchmark
    headroom = all(r["clean_ce"] - r["ce"] >= 0.05 for r in rows)
    wins = sum(r["codim"] - r["ce"] >= 0.05 for r in rows)
    detail = "; ".join(
        f"seed {r['seed']}: clean CE {r['clean_ce']:.3f}, CE {r['ce']:.3f}, "
        f"CoDiM {r['codim']:.3f} ({100 * (r['codim'] - r['ce']):+.1f}pt)"
        for r in rows)
    ok = headroom and wins >= 4
    report("5a (CoDiM-Sup >= CE + 5pt on 4/5 seeds, memorizing protocol)", ok,
           f"{wins}/5 seeds; clean CE >= CE + 5pt on every seed: {headroom}; "
           f"{detail}; {elapsed:.0f}s")
    assert headroom, ("protocol has no headroom: CE on clean labels is not "
                      f"5pt above CE on noisy labels on every seed; {detail}")
    assert wins >= 4, detail


def test_criterion_5b_partition_auc(blob_benchmark):
    aucs = [(r["seed"], r["auc_at_10"]) for r in blob_benchmark[0]]
    ok = all(a >= 0.85 for _, a in aucs)
    report("5b (partition AUC >= 0.85 by epoch 10, all seeds)", ok,
           ", ".join(f"seed {s}: {a:.3f}" for s, a in aucs))
    assert ok


def test_criterion_5c_best_at_least_last(blob_benchmark):
    rows, elapsed = blob_benchmark
    ok = all(r["codim_best"] >= r["codim_last"] and r["ce_best"] >= r["ce_last"]
             for r in rows)
    budget_ok = elapsed <= 15 * 60
    report("5c (best >= last, runtime budget)", ok and budget_ok,
           f"best>=last on all runs: {ok}; total benchmark time "
           f"{elapsed:.0f}s (<=900s)")
    assert ok and budget_ok


# ----------------------------------------------------------- criterion 6

def test_criterion_6_consistency_direction(blob_benchmark):
    rows = blob_benchmark[0]
    wins = sum(r["consistency_end"] < r["consistency_warm"] for r in rows)
    detail = ", ".join(
        f"seed {r['seed']}: {r['consistency_warm']:.4f}->{r['consistency_end']:.4f}"
        for r in rows)
    ok = wins >= 4
    report("6 (consistency drops from warmup to end, 4/5 seeds)", ok,
           f"{wins}/5; {detail}")
    assert ok


# ----------------------------------------------------------- criterion 7

def test_criterion_7_cssl_vs_ssl(cssl_benchmark):
    cssl_wins = sum(r["cssl"] >= r["plain_ssl"] for r in cssl_benchmark)
    pre_wins = sum(r["cssl"] >= r["cssl_no_pre"] for r in cssl_benchmark)
    detail = "; ".join(f"seed {r['seed']}: ssl {r['plain_ssl']:.3f} cssl {r['cssl']:.3f} "
                       f"no-pre {r['cssl_no_pre']:.3f}" for r in cssl_benchmark)
    ok = cssl_wins >= 4 and pre_wins >= 4
    report("7 (CSSL >= SSL and pretrained >= not, 4/5 seeds)", ok,
           f"cssl>=ssl {cssl_wins}/5, pre>=nopre {pre_wins}/5; {detail}")
    assert ok


# ----------------------------------------------------------- criterion 8

def test_criterion_8_determinism_and_persistence(tmp_path):
    ds = gen_blobs(BlobSpec(3, 2, 40, 3.0, 1.0, seed=0)).with_noise(
        NoiseSpec("symmetric", 0.3, seed=1))
    cfg = TrainConfig(pretrain_steps=10, warmup_epochs=1, epochs=2,
                      iters_per_epoch=2, batch_size=16, feat_hidden=(8, 8),
                      proj_hidden=8, proj_dim=4, seed=0)
    paths = []
    for tag in ("a", "b"):
        _, record = train_codim(ds, cfg)
        p = tmp_path / f"metrics_{tag}.csv"
        record.to_csv(p)
        paths.append(p)
    csv_identical = paths[0].read_bytes() == paths[1].read_bytes()
    m = ModelTriple(cfg.arch(2, 3), seed=0)
    c1, c2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    save_checkpoint(c1, m.state_dict())
    save_checkpoint(c2, load_checkpoint(c1))
    ckpt_identical = c1.read_bytes() == c2.read_bytes()
    ok = csv_identical and ckpt_identical
    report("8 (determinism & persistence)", ok,
           f"repeat-run metrics byte-identical: {csv_identical}; "
           f"checkpoint save->load->save bit-identical: {ckpt_identical}")
    assert ok


# ----------------------------------------------------------- criterion 9

def test_criterion_9_label_correction():
    rows = run_protocol(reproduce.relabel)[0]
    wins = sum(r["wrong_after"] < r["wrong_before"] for r in rows)
    ok = wins >= 4
    report("9 (label correction reduces wrong labels, 4/5 seeds)", ok,
           f"{wins}/5; " + ", ".join(f"seed {r['seed']}: {r['wrong_before']}->"
                                     f"{r['wrong_after']}" for r in rows))
    assert ok


# ----------------------------------------------------------- criterion 10

def test_criterion_10_idx_parser(tmp_path):
    images = np.arange(3 * 4 * 4, dtype=np.uint8).reshape(3, 4, 4)
    img_path = tmp_path / "img.idx"
    write_idx_images(img_path, images)
    round_trip = np.array_equal(_read_idx(img_path, IDX_IMAGES_MAGIC), images)
    blob = bytearray(img_path.read_bytes())
    blob[0] = 0x7F
    bad = tmp_path / "bad.idx"
    bad.write_bytes(bytes(blob))
    try:
        _read_idx(bad, IDX_IMAGES_MAGIC)
        magic_rejected = False
    except IdxParseError as exc:
        magic_rejected = "bad magic" in str(exc) and "offset 0" in str(exc)
    cut = tmp_path / "cut.idx"
    cut.write_bytes(img_path.read_bytes()[:-5])
    try:
        _read_idx(cut, IDX_IMAGES_MAGIC)
        truncation_rejected = False
    except IdxParseError as exc:
        truncation_rejected = "truncated payload" in str(exc)
    ok = round_trip and magic_rejected and truncation_rejected
    report("10 (IDX parser)", ok,
           f"round trip exact: {round_trip}, corrupt magic rejected: "
           f"{magic_rejected}, truncation rejected: {truncation_rejected}")
    assert ok
