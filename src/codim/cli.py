"""Command-line entry point.

Exit codes: 0 success, 2 usage/config error (also out-of-range config values,
malformed partition inputs and a threshold outside [0, 1]), 3 runtime/numerical
error (also a non-finite training loss or non-finite predictions).
Every run directory gets a resolved-config snapshot, a manifest, the
machine-readable CSVs and checkpoints; stdout carries a short summary.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import subprocess
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (MODE_ALIASES, load_config, make_dataset, make_train_config,
                     resolved_config_text)
from .errors import ConfigError
from .metrics import export_curves_svg, export_embeddings_2d, write_csv
from .models import ModelTriple
from .noise import fit_gmm_1d, make_partition
from .trainers import (MODES, RUN_RECORD_HEADER, pretrain_selfcon, train_ce,
                       train_codim, train_cssl)


def _build_id() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return f"codim-{__version__}"


def _prepare_run_dir(values: dict) -> str:
    out_dir = values["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    snapshot = resolved_config_text(values)
    with open(os.path.join(out_dir, "config_resolved.txt"), "w") as fh:
        fh.write(snapshot)
    digest = hashlib.sha256(snapshot.encode()).hexdigest()
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"build = {_build_id()}\n")
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"seed = {values['seed']}\n")
        fh.write(f"data_seed = {values['data_seed']}\n")
    return out_dir


def cmd_gen(args) -> int:
    values = load_config(args.config)
    out_dir = _prepare_run_dir(values)
    ds = make_dataset(values)
    header = (["index"] + [f"x{i}" for i in range(ds.dim)]
              + ["clean_label", "noisy_label", "flip"])
    write_csv(os.path.join(out_dir, "train.csv"), header,
              [[i, *ds.x[i].tolist(), ds.clean_labels[i],
                ds.noisy_labels[i], int(ds.flip_mask[i])] for i in range(ds.n)])
    write_csv(os.path.join(out_dir, "test.csv"),
              ["index"] + [f"x{i}" for i in range(ds.dim)] + ["label"],
              [[i, *ds.test_x[i].tolist(), ds.test_labels[i]]
               for i in range(len(ds.test_labels))])
    print(f"wrote {ds.n} train / {len(ds.test_labels)} test samples to {out_dir}")
    return 0


def cmd_pretrain(args) -> int:
    values = load_config(args.config)
    out_dir = _prepare_run_dir(values)
    ds = make_dataset(values)
    cfg = make_train_config(values)
    model = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=cfg.seed)
    losses = pretrain_selfcon(ds, model, cfg)
    save_checkpoint(os.path.join(out_dir, "pretrain.ckpt"), model.state_dict())
    write_csv(os.path.join(out_dir, "pretrain_loss.csv"), ["step", "loss"],
              [[i, repr(v)] for i, v in enumerate(losses)])
    final = losses[-1] if losses else float("nan")
    print(f"pre-trained {cfg.pretrain_steps} steps, final loss {final:.4f}; "
          f"checkpoint in {out_dir}")
    return 0


def cmd_train(args) -> int:
    values = load_config(args.config)
    out_dir = _prepare_run_dir(values)
    ds = make_dataset(values)
    mode = args.mode if args.mode is not None else values["mode"]
    cfg = make_train_config(values, mode=mode)
    pretrained = load_checkpoint(args.pretrained) if args.pretrained else None
    if mode == "ce":
        net, record = train_ce(ds, cfg)
        nets = {"net_a": net}
    else:
        duo, record = train_codim(ds, cfg, pretrained_state=pretrained)
        nets = {"net_a": duo.net_a, "net_b": duo.net_b}
    for name, net in nets.items():
        save_checkpoint(os.path.join(out_dir, f"{name}.ckpt"), net.state_dict())
    export_embeddings_2d(nets["net_a"], ds.test_x, ds.test_labels,
                         os.path.join(out_dir, "embeddings.svg"))
    record.to_csv(os.path.join(out_dir, "metrics.csv"))
    print(f"mode={mode}  Best: {100 * record.best_acc:.2f}  "
          f"Last: {100 * record.last_acc:.2f}")
    return 0


def cmd_cssl(args) -> int:
    values = load_config(args.config)
    if args.labeled_ratio is not None:
        values["labeled_ratio"] = args.labeled_ratio
    if not 0.0 < values["labeled_ratio"] <= 1.0:
        raise ConfigError("labeled_ratio must be in (0, 1]")
    values["noise_kind"] = "none"  # trusted-label setting
    out_dir = _prepare_run_dir(values)
    ds = make_dataset(values)
    cfg = make_train_config(values)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    mask = np.zeros(ds.n, dtype=bool)
    n_lab = max(1, int(round(values["labeled_ratio"] * ds.n)))
    mask[rng.choice(ds.n, size=n_lab, replace=False)] = True
    net, record = train_cssl(ds, mask, cfg)
    record.to_csv(os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(os.path.join(out_dir, "net_a.ckpt"), net.state_dict())
    print(f"labeled_ratio={values['labeled_ratio']}  "
          f"Best: {100 * record.best_acc:.2f}  Last: {100 * record.last_acc:.2f}")
    return 0


def cmd_partition(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(f"--threshold must be in [0, 1], got {args.threshold}")
    if not os.path.exists(args.losses_csv):
        raise ConfigError(f"losses file not found: {args.losses_csv}")
    with open(args.losses_csv, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        float(rows[0][-1])
    except (IndexError, ValueError):
        rows = rows[1:]  # a header row, or no rows
    try:
        losses = np.array([float(r[-1]) for r in rows])
    except ValueError as exc:
        raise ConfigError(f"bad loss value in {args.losses_csv}: {exc}") from exc
    if len(losses) == 0 or not np.isfinite(losses).all():
        raise ConfigError(f"{args.losses_csv} needs one or more losses, all finite")
    gmm = fit_gmm_1d(losses)
    part = make_partition(gmm, losses, args.threshold)
    out = args.out or (os.path.splitext(args.losses_csv)[0] + "_partition.csv")
    write_csv(out, ["index", "clean_prob", "is_clean"],
              [[i, p, int(p >= args.threshold)]
               for i, p in enumerate(part.clean_prob.tolist())])
    print(f"components: means={gmm.means.round(4).tolist()} "
          f"weights={gmm.weights.round(4).tolist()}; "
          f"{len(part.clean_idx)}/{len(losses)} clean at threshold "
          f"{args.threshold}; wrote {out}")
    return 0


def cmd_report(args) -> int:
    metrics_path = os.path.join(args.run_dir, "metrics.csv")
    if not os.path.exists(metrics_path):
        raise ConfigError(f"no metrics.csv in {args.run_dir}")
    with open(metrics_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    if header != RUN_RECORD_HEADER:
        raise ConfigError(f"unexpected metrics header in {metrics_path}")
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    export_curves_svg({k: cols[k] for k in ("loss_x", "loss_u", "loss_reg", "loss_cl")},
                      os.path.join(args.run_dir, "losses.svg"))
    export_curves_svg({k: cols[k] for k in ("test_acc_a", "test_acc_b", "test_acc_ens")},
                      os.path.join(args.run_dir, "accuracy.svg"))
    export_curves_svg({"partition_auc": cols["partition_auc"],
                       "consistency": cols["consistency"]},
                      os.path.join(args.run_dir, "diagnostics.svg"))
    best = max(cols["test_acc_ens"])
    last = cols["test_acc_ens"][-1]
    print(f"{len(rows)} epochs  Best: {100 * best:.2f}  Last: {100 * last:.2f}  "
          f"final partition AUC: {cols['partition_auc'][-1]:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codim",
        description="Contrastive semi-supervised and noisy-label training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset into the run directory")
    p.add_argument("config")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pretrain", help="self-supervised contrastive pre-training")
    p.add_argument("config")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="full noisy-label training pipeline")
    p.add_argument("config")
    p.add_argument("--mode", choices=[*MODES, *MODE_ALIASES], default=None)
    p.add_argument("--pretrained", default=None,
                   help="reuse a pretrain.ckpt instead of pre-training")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("cssl", help="contrastive semi-supervised run with trusted labels")
    p.add_argument("config")
    p.add_argument("--labeled-ratio", type=float, default=None, dest="labeled_ratio")
    p.set_defaults(func=cmd_cssl)

    p = sub.add_parser("partition", help="fit a clean/noisy mixture to a loss CSV")
    p.add_argument("losses_csv")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("report", help="render plots and a summary for a run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime / numerical failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
