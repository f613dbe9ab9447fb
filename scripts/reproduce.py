#!/usr/bin/env python3
"""Reproduce the frozen experiments behind the acceptance gate.

Each protocol is a function of the seed that returns the numbers its
criterion in tests/test_acceptance.py reads. The gate calls the same
functions on seeds 0-4, so the tables printed here are the numbers behind
its ACCEPTANCE lines; the pass rules live only in the tests.

  memorizing (5a)       4 classes in d = 20 (18 nuisance dimensions), 150
                        per class (400 train / 200 test), 40% strict
                        symmetric noise, a 128-128 MLP. Best test accuracy of
                        CE on the clean labels, CE on the noisy ones and
                        CoDiM-Sup. CE fits the flipped labels here.
  blobs_2d (5b, 5c, 6)  4 classes in d = 2, 750 per class, the same noise,
                        the default 64-64 MLP. CE and CoDiM-Sup best/last
                        accuracy, CoDiM's best partition AUC within 10
                        epochs, and its consistency after warm-up and at the
                        end. CE already sits at the Bayes ceiling here.
  cssl (7)              4 classes in d = 2, 30 per class, no noise, labels
                        on 20% of the training set. Best accuracy of plain
                        SSL, CSSL with pretraining and CSSL without.
  relabel (9)           the 2-D blobs at 80% symmetric noise: self-supervised
                        pretraining, then label correction on the frozen
                        encoder. Wrong labels (noisy != clean) before and
                        after.

After each table a line gives the protocol's wall seconds, the CPU user and
sys seconds and the minor page faults of this process over it.

Usage: python3 scripts/reproduce.py [--seeds N] [--protocol NAME ...] [--out-dir DIR]
"""

import argparse
import os
import resource
import sys
import time

# One BLAS thread unless the caller set one, as in the tests and the
# benchmark: the protocols' matrices are small, so more threads mostly spin.
# Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from codim.contrastive import AugmentSpec
from codim.data import BlobSpec, gen_blobs
from codim.metrics import write_csv
from codim.models import ModelTriple
from codim.noise import NoiseSpec
from codim.trainers import (CodimTrainer, TrainConfig, label_correction,
                            pretrain_selfcon, train_ce, train_cssl)

# Augmentations that never mask a coordinate: zeroing one of two coordinates
# destroys class information and makes the contrastive terms harmful.
NO_MASK_AUG = AugmentSpec(weak_jitter_sigma=0.1, strong_jitter_sigma=0.25,
                          mask_prob=0.0, scale_range=(0.8, 1.2))


def _strict_noise_40(seed: int) -> NoiseSpec:
    """40% symmetric noise; every corrupted label differs from the original."""
    return NoiseSpec("symmetric", 0.4, seed=seed + 100, redraw_over_all=False)


def _blobs_2d_clean(seed: int):
    return gen_blobs(BlobSpec(4, 2, 750, 3.0, 1.0, seed=seed))


def memorizing(seed: int) -> dict:
    clean = gen_blobs(BlobSpec(4, 20, 150, 3.0, 1.0, seed=seed))
    noisy = clean.with_noise(_strict_noise_40(seed))
    cfg = TrainConfig(mode="sup", seed=seed, feat_hidden=(128, 128))
    return dict(clean_ce=train_ce(clean, cfg)[1].best_acc,
                ce=train_ce(noisy, cfg)[1].best_acc,
                codim=CodimTrainer(noisy, cfg).run()[1].best_acc)


def blobs_2d(seed: int) -> dict:
    ds = _blobs_2d_clean(seed).with_noise(_strict_noise_40(seed))
    cfg = TrainConfig(mode="sup", seed=seed)  # default MLP, E=30
    _, ce = train_ce(ds, cfg)
    trainer = CodimTrainer(ds, cfg)
    _, codim = trainer.run()
    return dict(ce_best=ce.best_acc, ce_last=ce.last_acc,
                codim_best=codim.best_acc, codim_last=codim.last_acc,
                auc_at_10=max(row.partition_auc for row in codim.rows[:10]),
                consistency_warm=trainer.post_warmup_consistency,
                consistency_end=trainer.final_consistency)


def cssl(seed: int) -> dict:
    ds = gen_blobs(BlobSpec(4, 2, 30, 2.5, 1.0, seed=seed))

    def best(lam: float, pretrain: bool) -> float:
        cfg = TrainConfig(mode="cssl", seed=seed, epochs=20,
                          pretrain_steps=500 if pretrain else 0,
                          lambda_sup=lam, lambda_self=lam, warmup_epochs=0,
                          aug=NO_MASK_AUG, labeled_ratio=0.2)
        return train_cssl(ds, cfg)[1].best_acc

    return dict(plain_ssl=best(0.0, False), cssl=best(1.0, True),
                cssl_no_pre=best(1.0, False))


def relabel(seed: int) -> dict:
    ds = _blobs_2d_clean(seed).with_noise(NoiseSpec("symmetric", 0.8, seed=seed + 100))
    cfg = TrainConfig(seed=seed, pretrain_steps=1000, aug=NO_MASK_AUG)
    m = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=seed)
    pretrain_selfcon(ds, m, cfg)
    fixed = label_correction(ds, m, cfg)
    return dict(wrong_before=int(ds.flip_mask.sum()),
                wrong_after=int(fixed.flip_mask.sum()))


PROTOCOLS = {f.__name__: f for f in (memorizing, blobs_2d, cssl, relabel)}


def _cell(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=5, help="run seeds 0..N-1")
    ap.add_argument("--protocol", action="append", choices=list(PROTOCOLS),
                    help="run this protocol; repeatable (default: all)")
    ap.add_argument("--out-dir", default=None,
                    help="write one <protocol>.csv per protocol into this directory")
    args = ap.parse_args(argv)
    if args.seeds < 1:
        ap.error("--seeds must be >= 1")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    for name in args.protocol or PROTOCOLS:
        print(f"\n{name}")
        start, usage = time.time(), resource.getrusage(resource.RUSAGE_SELF)
        rows = []
        for seed in range(args.seeds):
            row = dict(seed=seed, **PROTOCOLS[name](seed))
            widths = [max(len(key), 8) for key in row]
            if not rows:
                print(" ".join(f"{key:>{w}}" for key, w in zip(row, widths)))
            print(" ".join(f"{_cell(v):>{w}}" for v, w in zip(row.values(), widths)),
                  flush=True)
            rows.append(row)
        wall, end = time.time() - start, resource.getrusage(resource.RUSAGE_SELF)
        # a storm of minor page faults shows here as sys seconds
        print(f"{args.seeds} seeds in {wall:.0f}s: "
              f"user {end.ru_utime - usage.ru_utime:.1f}s, "
              f"sys {end.ru_stime - usage.ru_stime:.1f}s, "
              f"{end.ru_minflt - usage.ru_minflt} minor page faults")
        if args.out_dir:
            out = os.path.join(args.out_dir, f"{name}.csv")
            write_csv(out, list(rows[0]), [list(row.values()) for row in rows])
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
