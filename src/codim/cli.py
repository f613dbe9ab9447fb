"""Command-line entry point.

Exit codes follow the error type: 0 success; 2 a usage error, ``ConfigError``
or ``ParameterError``; 3 any other ``CodimError`` or ``OSError``; any other
exception is a bug and ends in a traceback. Each run directory gets a config
snapshot, a manifest, CSVs and checkpoints; stdout carries a short summary.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import os
import re
import sys

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (MODE_ALIASES, load_config, make_dataset, make_train_config,
                     resolved_config_text)
from .errors import CodimError, ConfigError, ParameterError
from .metrics import export_curves_svg, export_embeddings_2d, write_csv
from .models import ModelTriple
from .noise import partition_losses
from .trainers import (MODES, RUN_RECORD_HEADER, pretrain_selfcon, train_ce,
                       train_codim, train_cssl)


def _build_id() -> str:
    import subprocess  # only the manifest needs it: keep it off the import path
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or a hung one
        pass
    return f"codim-{__version__}"


def _prepare_run_dir(values: dict) -> str:
    """Write the config snapshot and manifest into ``out_dir``: call it only
    once the config, dataset and inputs have been accepted, so a rejected run
    leaves an earlier run's files alone."""
    out_dir = values["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    snapshot = resolved_config_text(values)
    with open(os.path.join(out_dir, "config_resolved.txt"), "w") as fh:
        fh.write(snapshot)
    digest = hashlib.sha256(snapshot.encode()).hexdigest()
    build = _build_id()
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"build = {build}\n")
        fh.write(f"config_sha256 = {digest}\n")
        fh.write(f"seed = {values['seed']}\n")
        fh.write(f"data_seed = {values['data_seed']}\n")
    return out_dir


def _load_run(args, **overrides):
    """The config at ``args.config`` with each override that is not None set
    in it, its dataset and its training config, as ``(values, dataset, cfg)``.
    Every command checks its config this way, so a config that cannot train
    is rejected before any run directory is written."""
    values = load_config(args.config)
    values.update((key, v) for key, v in overrides.items() if v is not None)
    return values, make_dataset(values), make_train_config(values)


def cmd_gen(args) -> int:
    values, ds, _ = _load_run(args)
    out_dir = _prepare_run_dir(values)
    xs = [f"x{i}" for i in range(ds.dim)]
    write_csv(os.path.join(out_dir, "train.csv"),
              ["index", *xs, "clean_label", "noisy_label", "flip"], range(ds.n),
              *ds.x.T, ds.clean_labels, ds.noisy_labels, ds.flip_mask.astype(int))
    write_csv(os.path.join(out_dir, "test.csv"), ["index", *xs, "label"],
              range(len(ds.test_labels)), *ds.test_x.T, ds.test_labels)
    print(f"wrote {ds.n} train / {len(ds.test_labels)} test samples to {out_dir}")
    return 0


def cmd_pretrain(args) -> int:
    values, ds, cfg = _load_run(args)
    out_dir = _prepare_run_dir(values)
    model = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=cfg.seed)
    losses = pretrain_selfcon(ds, model, cfg)
    save_checkpoint(os.path.join(out_dir, "pretrain.ckpt"), model.state_dict())
    write_csv(os.path.join(out_dir, "pretrain_loss.csv"), ["step", "loss"],
              range(len(losses)), losses)
    final = losses[-1] if losses else float("nan")
    print(f"pre-trained {cfg.pretrain_steps} steps, final loss {final:.4f}; "
          f"checkpoint in {out_dir}")
    return 0


def cmd_train(args) -> int:
    values, ds, cfg = _load_run(args, mode=args.mode)  # the snapshot records the mode
    if len(ds.test_labels) < 3:  # the embedding export needs 3 rows
        raise ConfigError("samples_per_class and num_classes leave < 3 test rows")
    if args.pretrained and values["mode"] in MODE_ALIASES:
        raise ConfigError(f"--pretrained needs a pre-trained mode; {values['mode']} "
                          "trains from scratch")
    pretrained = load_checkpoint(args.pretrained) if args.pretrained else None
    out_dir = _prepare_run_dir(values)
    if values["mode"] == "ce":
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
    print(f"mode={values['mode']}  Best: {100 * record.best_acc:.2f}  "
          f"Last: {100 * record.last_acc:.2f}")
    return 0


def cmd_cssl(args) -> int:
    # trusted labels, and the snapshot records the mode that train_cssl runs
    values, ds, cfg = _load_run(args, labeled_ratio=args.labeled_ratio,
                                noise_kind="none", mode="cssl")
    out_dir = _prepare_run_dir(values)
    net, record = train_cssl(ds, cfg)
    record.to_csv(os.path.join(out_dir, "metrics.csv"))
    save_checkpoint(os.path.join(out_dir, "net_a.ckpt"), net.state_dict())
    print(f"labeled_ratio={cfg.labeled_ratio}  "
          f"Best: {100 * record.best_acc:.2f}  Last: {100 * record.last_acc:.2f}")
    return 0


def _csv_rows(path, what: str):
    """Stream ``(line, row)`` for each non-blank row of a CSV input, where
    ``line`` is the file line on which the row ends. The file is UTF-8 with an
    optional byte-order mark; a missing or non-text file is a ConfigError
    (exit 2)."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    yield reader.line_num, row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{path} is not a CSV text file: {exc}") from exc


# how np.loadtxt names a cell it cannot convert; its row counts non-blank rows
# from 0, after the skipped lines
_LOADTXT_BAD_CELL = re.compile(r"(.*) at row (\d+), column \d+\.", re.DOTALL)


def _read_losses(path) -> np.ndarray:
    """The last cell of every non-blank row as float64, parsed by NumPy's C
    reader with no Python object per row. The first row is a header when
    Python's ``float`` rejects its last cell; a file with no loss gives an
    empty array. A cell that NumPy does not read as a number (``#0.7``,
    ``1_000``, an empty cell) is a ConfigError that names its line."""
    head = list(itertools.islice(_csv_rows(path, "losses file"), 2))
    try:
        float(head[0][1][-1])
        skip = 0
    except (IndexError, ValueError):  # a header row, or no rows
        skip = head[0][0] if head else 0
        head = head[1:]
    if not head:
        return np.empty(0)
    try:
        return np.loadtxt(path, delimiter=",", usecols=-1, quotechar='"', comments=None,
                          ndmin=1, skiprows=skip, encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not a CSV text file: {exc}") from exc
    except ValueError as exc:
        bad = _LOADTXT_BAD_CELL.fullmatch(str(exc))
        if bad is not None:
            lines = (line for line, _ in _csv_rows(path, "losses file") if line > skip)
            line = next(itertools.islice(lines, int(bad[2]), None), None)
            if line is not None:
                raise ConfigError(f"bad loss value in {path} on line {line}: "
                                  f"{bad[1]}") from exc
        raise ConfigError(f"bad loss value in {path}: {exc}") from exc


def cmd_partition(args) -> int:
    ParameterError.check_value("threshold", args.threshold, "in [0, 1]")
    losses = _read_losses(args.losses_csv)
    if len(losses) == 0 or not np.isfinite(losses).all():
        raise ConfigError(f"{args.losses_csv} needs one or more losses, all finite")
    part = partition_losses(losses, args.threshold)
    out = args.out or (os.path.splitext(args.losses_csv)[0] + "_partition.csv")
    write_csv(out, ["index", "clean_prob", "is_clean"], range(len(losses)),
              part.clean_prob, (part.clean_prob >= part.threshold).astype(int))
    g = part.gmm
    fit = ("" if g is None else f"components: means={g.means.round(4).tolist()} "
           f"weights={g.weights.round(4).tolist()}; ")
    print(f"{fit}{len(part.clean_idx)}/{len(losses)} clean at threshold {args.threshold}"
          f"{f'; {part.fallback}' if part.fallback else ''}; wrote {out}")
    return 0


def cmd_report(args) -> int:
    metrics_path = os.path.join(args.run_dir, "metrics.csv")
    rows = [row for _, row in _csv_rows(metrics_path, "metrics.csv")]
    if not rows or rows[0] != RUN_RECORD_HEADER:
        raise ConfigError(f"unexpected metrics header in {metrics_path}")
    try:
        rows = [[float(v) for v in row] for row in rows[1:]]
    except ValueError as exc:
        raise ConfigError(f"bad value in {metrics_path}: {exc}") from exc
    if not rows or any(len(row) != len(RUN_RECORD_HEADER) for row in rows):
        raise ConfigError(f"{metrics_path} needs one or more rows of "
                          f"{len(RUN_RECORD_HEADER)} values")
    if not np.isfinite(rows).all():
        raise ConfigError(f"{metrics_path} holds a non-finite value")
    cols = {name: [row[i] for row in rows] for i, name in enumerate(RUN_RECORD_HEADER)}
    for name in ("test_acc_a", "test_acc_b", "test_acc_ens", "partition_auc", "consistency"):
        for i, v in enumerate(cols[name], start=1):
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{metrics_path} data row {i}: {name} = {v:g} "
                                  "is outside [0, 1]")
    epochs = cols["epoch"]
    for i in range(1, len(epochs)):
        if epochs[i] <= epochs[i - 1]:
            raise ConfigError(f"{metrics_path} data row {i + 1}: epoch {epochs[i]:g} "
                              f"does not follow epoch {epochs[i - 1]:g}")
    for name, keys in (("losses", ("loss_x", "loss_u", "loss_reg", "loss_cl")),
                       ("accuracy", ("test_acc_a", "test_acc_b", "test_acc_ens")),
                       ("diagnostics", ("partition_auc", "consistency"))):
        export_curves_svg({k: cols[k] for k in keys},
                          os.path.join(args.run_dir, f"{name}.svg"))
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
    except (CodimError, OSError) as exc:  # anything else is a bug: a traceback
        code = getattr(exc, "exit_code", 3)
        print(f"config error: {exc}" if code == 2 else
              f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
