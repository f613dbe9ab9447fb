"""The three benchmark workloads.

Each workload runs one *unit* per protocol seed: it generates its inputs
from the seed (timed as set-up), makes its top-level calls into codim (timed
as wall time, one operation each), checks every output, and hashes the
outputs into a digest so that repeated units can be compared bit for bit.
codim is reached only through module attributes looked up at call time,
which is what lets the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from codim import checkpoint, cli, contrastive, data, models, noise, trainers

# cli-pipeline sizes: wide inputs and trunk make its training BLAS-bound; the
# loss file is large enough that CSV reading and writing is a visible share.
CLI_EPOCHS = 8
CLI_PRETRAIN_STEPS = 300
CLI_LOSS_ROWS = 200_000


@dataclass
class Op:
    """One top-level call into codim together with its output check."""

    name: str
    seconds: float
    problems: list[str]
    # seconds at the reference host speed (speed.py); equal to ``seconds``
    # when the run samples no speed probe
    ref_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Unit:
    protocol_seed: int
    setup_s: float = 0.0
    ops: list[Op] = field(default_factory=list)
    # accuracy as (numerator, denominator) so that units pool exactly
    accuracy: tuple[float, float] | None = None
    digest: str = ""
    codivide_attempts: int = 0
    bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def ref_wall_s(self) -> float:
        return sum(op.ref_seconds for op in self.ops)


class Context:
    """Per-run state shared by the units of one workload."""

    def __init__(self, work_dir: Path, tracer=None, probe=None):
        self.work_dir = work_dir
        self.tracer = tracer
        self.probe = probe
        # loss-vector length -> planted flip mask, to score partitions
        self.planted: dict[int, np.ndarray] = {}

    def quiet(self):
        """Benchmark-side calls (output checks) are not traced."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def fresh_dir(self, name: str) -> Path:
        path = self.work_dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


def _call(unit: Unit, ctx: Context, name: str, fn, check):
    """Time ``fn()``, then check its result outside the timed region."""
    before = ctx.probe.sample() if ctx.probe is not None else None
    start = time.perf_counter()
    try:
        out = fn()
        problems = None
    except Exception as exc:  # a raising call is a failed operation, not a crash
        traceback.print_exc(file=sys.stderr)
        out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
    seconds = time.perf_counter() - start
    ref_seconds = seconds
    if ctx.probe is not None:
        ref_seconds = ctx.probe.reference_seconds(seconds, before, ctx.probe.sample())
    if problems is None:
        with ctx.quiet():
            problems = check(out)
    unit.ops.append(Op(name, seconds, problems, ref_seconds))
    return out


def _record_problems(record, epochs: int) -> list[str]:
    problems = []
    if len(record.rows) != epochs:
        problems.append(f"{len(record.rows)} epoch rows, expected {epochs}")
    for row in record.rows:
        values = [getattr(row, k) for k in trainers.RUN_RECORD_HEADER]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"epoch {row.epoch} has a non-finite value: {values}")
    if record.rows and record.best_acc < record.last_acc:
        problems.append(f"best {record.best_acc} < last {record.last_acc}")
    return problems


def _record_digest(h, record):
    for row in record.rows:
        h.update(repr([getattr(row, k) for k in trainers.RUN_RECORD_HEADER]).encode())


# ------------------------------------------------------------ codim-sup

def codim_sup(ctx: Context, seed: int) -> Unit:
    """Frozen blob protocol: CE baseline, then CoDiM-Sup with defaults."""
    unit = Unit(seed)
    start = time.perf_counter()
    ds = data.gen_blobs(data.BlobSpec(4, 2, 750, 3.0, 1.0, seed=seed)).with_noise(
        noise.NoiseSpec("symmetric", 0.4, seed=seed + 100, redraw_over_all=False))
    cfg = trainers.TrainConfig(mode="sup", seed=seed)
    trainer = trainers.CodimTrainer(ds, cfg)
    unit.setup_s = time.perf_counter() - start
    ctx.planted[ds.n] = ds.flip_mask
    unit.codivide_attempts = cfg.epochs * cfg.iters_per_epoch * 2

    ce = _call(unit, ctx, "train_ce", lambda: trainers.train_ce(ds, cfg)[1],
               lambda rec: _record_problems(rec, cfg.epochs))

    def consistency_problems(rec):
        problems = _record_problems(rec, cfg.epochs)
        for name in ("post_warmup_consistency", "final_consistency"):
            value = getattr(trainer, name)
            if value is None or not math.isfinite(value):
                problems.append(f"{name} is {value}")
        return problems

    co = _call(unit, ctx, "CodimTrainer.run", lambda: trainer.run()[1],
               consistency_problems)
    h = hashlib.sha256()
    for rec in (ce, co):
        if rec is not None:
            _record_digest(h, rec)
    h.update(repr((trainer.post_warmup_consistency, trainer.final_consistency)).encode())
    unit.digest = h.hexdigest()
    if co is not None and co.rows:
        unit.accuracy = (co.best_acc, 1.0)
    return unit


# ------------------------------------------------------------ selfcon-relabel

def selfcon_relabel(ctx: Context, seed: int) -> Unit:
    """Criterion-9 protocol: self-supervised pre-training on unlabeled views,
    then relabeling by a linear probe on the frozen encoder at 80% noise."""
    unit = Unit(seed)
    start = time.perf_counter()
    ds = data.gen_blobs(data.BlobSpec(4, 2, 750, 3.0, 1.0, seed=seed)).with_noise(
        noise.NoiseSpec("symmetric", 0.8, seed=seed + 100))
    aug = contrastive.AugmentSpec(weak_jitter_sigma=0.1, strong_jitter_sigma=0.25,
                                  mask_prob=0.0, scale_range=(0.8, 1.2))
    cfg = trainers.TrainConfig(seed=seed, pretrain_steps=1000, aug=aug)
    m = models.ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=seed)
    unit.setup_s = time.perf_counter() - start

    def curve_problems(losses):
        problems = []
        if len(losses) != cfg.pretrain_steps:
            problems.append(f"{len(losses)} losses, expected {cfg.pretrain_steps}")
        if not np.all(np.isfinite(losses)):
            problems.append("loss curve has a non-finite value")
        return problems

    def label_problems(fixed):
        labels = np.asarray(fixed.noisy_labels)
        problems = []
        if labels.shape != (ds.n,):
            problems.append(f"relabeled shape {labels.shape}, expected ({ds.n},)")
        elif labels.min() < 0 or labels.max() >= ds.num_classes:
            problems.append("relabeled vector has a label out of range")
        return problems

    losses = _call(unit, ctx, "pretrain_selfcon",
                   lambda: trainers.pretrain_selfcon(ds, m, cfg), curve_problems)
    fixed = _call(unit, ctx, "label_correction",
                  lambda: trainers.label_correction(ds, m, cfg), label_problems)
    h = hashlib.sha256()
    if losses is not None:
        h.update(repr(losses).encode())
    if fixed is not None:
        labels = np.asarray(fixed.noisy_labels, dtype=np.int64)
        h.update(labels.tobytes())
        if labels.shape == (ds.n,):
            unit.accuracy = (float(np.sum(labels == ds.clean_labels)), float(ds.n))
    unit.digest = h.hexdigest()
    return unit


# ------------------------------------------------------------ cli-pipeline

def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _csv_number_problems(path: Path, expected_rows: int) -> list[str]:
    """Every cell below the header must parse to a finite number."""
    if not path.is_file():
        return [f"{path.name} missing"]
    rows = _csv_rows(path)[1:]
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    bad, first = 0, None
    for row in rows:
        for cell in row:
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                bad += 1
                first = first or cell
    if bad:
        problems.append(f"{path.name}: {bad} cells are not finite numbers, "
                        f"first {first[:60]!r}")
    return problems


def _roundtrip_problems(path: Path, resaved: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    checkpoint.save_checkpoint(resaved, checkpoint.load_checkpoint(path))
    if resaved.read_bytes() != path.read_bytes():
        return [f"{path.name} does not round-trip bit-exactly"]
    return []


def _write_losses(path: Path, seed: int) -> np.ndarray:
    """Headerless ``index,loss`` rows: a low-loss clean component and a
    high-loss component on the planted flips. Returns the flip mask."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x1055])))
    flip = rng.random(CLI_LOSS_ROWS) < 0.4
    losses = np.where(flip, rng.beta(5.0, 2.0, CLI_LOSS_ROWS),
                      rng.exponential(0.05, CLI_LOSS_ROWS))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i},{v!r}\n" for i, v in enumerate(losses.tolist()))
    return flip


def cli_pipeline(ctx: Context, seed: int) -> Unit:
    """``codim`` gen -> pretrain -> train --mode bare --pretrained -> report
    -> partition, in process, on a wide-input config and a large loss file."""
    unit = Unit(seed)
    start = time.perf_counter()
    inputs = ctx.fresh_dir("inputs")
    out = ctx.fresh_dir("run")
    cfg_path = inputs / "run.cfg"
    cfg_path.write_text(
        "dim = 32\nfeat_hidden = 256,256\n"
        f"epochs = {CLI_EPOCHS}\npretrain_steps = {CLI_PRETRAIN_STEPS}\n"
        f"data_seed = {seed}\nnoise_seed = {seed + 100}\nseed = {seed}\n"
        f"out_dir = {out}\n", encoding="utf-8")
    loss_path = inputs / "losses.csv"
    ctx.planted[CLI_LOSS_ROWS] = _write_losses(loss_path, seed)
    unit.setup_s = time.perf_counter() - start
    unit.codivide_attempts = CLI_EPOCHS * trainers.TrainConfig.iters_per_epoch * 2
    resaved = ctx.work_dir / "roundtrip.ckpt"
    n_train, n_test = 2000, 1000  # 4 classes x 750 samples, 2:1 split

    def run_cli(argv):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            return cli.main(argv), captured.getvalue()

    def exit_problems(result):
        rc, text = result
        return [] if rc == 0 else [f"exit code {rc}: {text.strip()[-200:]}"]

    def gen_check(result):
        problems = exit_problems(result)
        problems += _csv_number_problems(out / "train.csv", n_train)
        problems += _csv_number_problems(out / "test.csv", n_test)
        if (out / "train.csv").is_file():
            flips = [row[-1] == "1" for row in _csv_rows(out / "train.csv")[1:]]
            ctx.planted[len(flips)] = np.array(flips)
        return problems

    def pretrain_check(result):
        return (exit_problems(result)
                + _csv_number_problems(out / "pretrain_loss.csv", CLI_PRETRAIN_STEPS)
                + _roundtrip_problems(out / "pretrain.ckpt", resaved))

    def train_check(result):
        problems = (exit_problems(result)
                    + _csv_number_problems(out / "metrics.csv", CLI_EPOCHS))
        for name in ("net_a.ckpt", "net_b.ckpt"):
            problems += _roundtrip_problems(out / name, resaved)
        return problems

    def report_check(result):
        return exit_problems(result) + [
            f"{name} missing" for name in ("losses.svg", "accuracy.svg", "diagnostics.svg")
            if not (out / name).is_file()]

    def partition_check(result):
        return exit_problems(result) + _csv_number_problems(
            out / "partition.csv", CLI_LOSS_ROWS)

    steps = [
        ("cli.gen", ["gen", str(cfg_path)], gen_check),
        ("cli.pretrain", ["pretrain", str(cfg_path)], pretrain_check),
        ("cli.train", ["train", str(cfg_path), "--mode", "bare",
                       "--pretrained", str(out / "pretrain.ckpt")], train_check),
        ("cli.report", ["report", str(out)], report_check),
        ("cli.partition", ["partition", str(loss_path), "--out",
                           str(out / "partition.csv")], partition_check),
    ]
    for name, argv, check in steps:
        _call(unit, ctx, name, lambda argv=argv: run_cli(argv), check)

    metrics_csv = out / "metrics.csv"
    if metrics_csv.is_file():
        rows = _csv_rows(metrics_csv)
        col = rows[0].index("test_acc_ens")
        best = max(float(row[col]) for row in rows[1:]) if len(rows) > 1 else None
        if best is not None and math.isfinite(best):
            unit.accuracy = (best, 1.0)
    h = hashlib.sha256()
    files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".ckpt"))
    for path in files:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    unit.digest = h.hexdigest()
    unit.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    return unit


@dataclass
class Workload:
    name: str
    why: str
    run_unit: Callable[[Context, int], Unit]
    # protocol seeds per run: label correction at 80% noise varies widely
    # from seed to seed, so its accuracy is pooled over several seeds
    seeds_per_run: int = 1

    def protocol_seeds(self, seed: int) -> list[int]:
        """Disjoint blocks of protocol seeds for distinct run seeds."""
        return [seed * self.seeds_per_run + i for i in range(self.seeds_per_run)]


WORKLOADS = {w.name: w for w in (
    Workload("codim-sup",
             "paper's headline method with every training layer on; per-node "
             "Python overhead in the autodiff core dominates",
             codim_sup),
    Workload("selfcon-relabel",
             "only contrastive and autodiff work: no MixMatch, no GMM "
             "partition, no predict_proba label queries",
             selfcon_relabel, seeds_per_run=12),
    Workload("cli-pipeline",
             "CLI, config, CSV writes, checkpoints and SVG export on a "
             "BLAS-bound wide model with no contrastive training term",
             cli_pipeline),
)}
