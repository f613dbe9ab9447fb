#!/usr/bin/env python3
"""Reproduce the frozen experiments behind the acceptance gate.

Each protocol is a function of the seed that returns the numbers its
criterion in tests/test_acceptance.py reads. The gate calls the same
functions on seeds 0-4, so the tables printed here are the numbers behind
its ACCEPTANCE lines; the pass rules live only in the tests. A protocol's
run is the codim config text of the constant named after it plus the seed
lines of ``_values``, built by ``make_dataset`` and ``make_train_config`` as
``codim`` builds a run.

  memorizing (5a)       CE on the clean labels, CE on the noisy ones and
                        CoDiM-Sup, best accuracy. The 18 nuisance dimensions
                        let CE fit the flipped labels.
  blobs_2d (5b, 5c, 6)  CE and CoDiM-Sup best/last accuracy, CoDiM's best
                        partition AUC within 10 epochs, and its consistency
                        after warm-up and at the end. In 2-D, CE already
                        sits at the Bayes ceiling.
  cssl (7)              Best accuracy of plain SSL, CSSL with pretraining
                        and CSSL without, on trusted labels.
  relabel (9)           Wrong labels (noisy != clean) before and after label
                        correction on a self-supervised pretrained encoder.

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

from codim.config import make_dataset, make_train_config, parse_config_text
from codim.metrics import write_csv
from codim.models import ModelTriple
from codim.trainers import (CodimTrainer, label_correction, pretrain_selfcon,
                            train_ce, train_codim, train_cssl)

# Augmentation that never masks a coordinate: zeroing one of two coordinates
# destroys class information and makes the contrastive terms harmful.
_NO_MASK_AUG = "strong_jitter_sigma = 0.25\nmask_prob = 0\nscale_lo = 0.8\nscale_hi = 1.2\n"

# strict symmetric noise: every corrupted label differs from the original
BLOBS_2D = "redraw_over_all = false\n"
MEMORIZING = BLOBS_2D + "dim = 20\nsamples_per_class = 150\nfeat_hidden = 128,128\n"
CSSL = ("samples_per_class = 30\nclass_separation = 2.5\nnoise_kind = none\n"
        "mode = cssl\nepochs = 20\nwarmup_epochs = 0\nlabeled_ratio = 0.2\n" + _NO_MASK_AUG)
RELABEL = "noise_ratio = 0.8\npretrain_steps = 1000\n" + _NO_MASK_AUG


def _values(text: str, seed: int) -> dict:
    """The config values of protocol ``text`` on ``seed``."""
    return parse_config_text(
        f"{text}data_seed = {seed}\nnoise_seed = {seed + 100}\nseed = {seed}\n")


def memorizing(seed: int) -> dict:
    values = _values(MEMORIZING, seed)
    clean = make_dataset({**values, "noise_kind": "none"})
    noisy, cfg = make_dataset(values), make_train_config(values)
    return dict(clean_ce=train_ce(clean, cfg)[1].best_acc,
                ce=train_ce(noisy, cfg)[1].best_acc,
                codim=train_codim(noisy, cfg)[1].best_acc)


def blobs_2d(seed: int) -> dict:
    values = _values(BLOBS_2D, seed)
    ds, cfg = make_dataset(values), make_train_config(values)
    _, ce = train_ce(ds, cfg)
    trainer = CodimTrainer(ds, cfg)
    _, codim = trainer.run()
    return dict(ce_best=ce.best_acc, ce_last=ce.last_acc,
                codim_best=codim.best_acc, codim_last=codim.last_acc,
                auc_at_10=max(row.partition_auc for row in codim.rows[:10]),
                consistency_warm=trainer.post_warmup_consistency,
                consistency_end=trainer.final_consistency)


def cssl(seed: int) -> dict:
    values = _values(CSSL, seed)
    ds = make_dataset(values)

    def best(lam: float, pretrain: bool) -> float:
        cfg = make_train_config({**values, "lambda_sup": lam, "lambda_self": lam,
                                 "pretrain_steps": 500 if pretrain else 0})
        return train_cssl(ds, cfg)[1].best_acc

    return dict(plain_ssl=best(0.0, False), cssl=best(1.0, True),
                cssl_no_pre=best(1.0, False))


def relabel(seed: int) -> dict:
    values = _values(RELABEL, seed)
    ds, cfg = make_dataset(values), make_train_config(values)
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
            write_csv(out, list(rows[0]), *zip(*(row.values() for row in rows)))
            print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
