"""Per-layer metrics derived from a traced run, and the coverage check.

Names follow ``<module>.<quantity>``. ``_s`` is self time in seconds (span
duration minus child spans). Sums and counts are per workload unit (one
protocol seed), so they do not depend on how many units fit in a run.
"""

from __future__ import annotations

import os

import numpy as np
from codim.metrics import auc_score

from tracing import nearest_rank, tail

TENSOR_OPS = ("matmul", "add", "mul", "scale", "relu", "exp", "log", "tsum",
              "gather_rows", "logsumexp_rows", "softmax_cross_entropy",
              "l2_normalize")
CLI_SUBCOMMANDS = ("gen", "pretrain", "train", "report", "partition")

# Spans whose SGD steps form one stream of consecutive optimizer steps.
STEP_PHASES = ("trainers.pretrain_selfcon", "trainers.warmup",
               "trainers.label_correction", "trainers.train_ce",
               "trainers.CodimTrainer.epoch")

# name, unit, better
PER_LAYER = [
    ("tensor.backward_s", "s", "lower"),
    ("tensor.backward_calls", "count", "lower"),
    ("tensor.nodes_per_step", "nodes/step", "lower"),
    ("tensor.sgd_step_s", "s", "lower"),
    *[(f"tensor.op_s.{op}", "s", "lower") for op in TENSOR_OPS],
    *[(f"tensor.op_calls.{op}", "count", "lower") for op in TENSOR_OPS],
    ("models.predict_proba_s", "s", "lower"),
    ("models.predict_proba_calls", "count", "lower"),
    ("models.predict_proba_rows_per_call", "rows/call", "higher"),
    ("models.forward_logits_s", "s", "lower"),
    ("models.forward_projection_s", "s", "lower"),
    ("contrastive.augment_s", "s", "lower"),
    ("contrastive.augment_calls", "count", "lower"),
    ("contrastive.make_view_batch_s", "s", "lower"),
    ("contrastive.sup_con_loss_s", "s", "lower"),
    ("contrastive.self_con_loss_s", "s", "lower"),
    ("mixmatch.guess_labels_s", "s", "lower"),
    ("mixmatch.semi_loss_s", "s", "lower"),
    ("mixmatch.build_semi_batch_s", "s", "lower"),
    ("mixmatch.co_refine_s", "s", "lower"),
    ("noise.partition_by_losses_s", "s", "lower"),
    ("noise.fit_gmm_1d_s", "s", "lower"),
    ("noise.gmm_iterations", "count", "lower"),
    ("noise.clean_fraction", "fraction", "higher"),
    ("noise.partition_auc", "fraction", "higher"),
    ("trainers.pretrain_s", "s", "lower"),
    ("trainers.warmup_s", "s", "lower"),
    ("trainers.label_correction_s", "s", "lower"),
    ("trainers.train_ce_s", "s", "lower"),
    ("trainers.epoch_s.p50", "s", "lower"),
    ("trainers.epoch_s.tail", "s", "lower"),
    ("trainers.epoch_s.tail_pct", "percentile", "higher"),
    ("trainers.epoch_s.samples", "count", "higher"),
    ("trainers.step_ms.p50", "ms", "lower"),
    ("trainers.step_ms.tail", "ms", "lower"),
    ("trainers.step_ms.tail_pct", "percentile", "higher"),
    ("trainers.step_ms.samples", "count", "higher"),
    ("trainers.step_yield", "fraction", "higher"),
    ("metrics.test_accuracy_s", "s", "lower"),
    ("metrics.consistency_metric_s", "s", "lower"),
    ("metrics.auc_score_s", "s", "lower"),
    ("metrics.export_svg_s", "s", "lower"),
    ("data.gen_blobs_s", "s", "lower"),
    ("data.with_noise_s", "s", "lower"),
    ("config.load_config_s", "s", "lower"),
    ("checkpoint.save_s", "s", "lower"),
    ("checkpoint.load_s", "s", "lower"),
    ("checkpoint.bytes", "bytes", "lower"),
    *[(f"cli.{sub}_s", "s", "lower") for sub in CLI_SUBCOMMANDS],
    ("cli.bytes_written", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]

# Values kept per call of these spans, for counts measured where the work is.
OBSERVERS = {
    "models.ModelTriple.predict_proba": lambda args, kwargs, out: out.shape[0],
    "noise.fit_gmm_1d": lambda args, kwargs, out: out.iterations,
    "noise.make_partition": lambda args, kwargs, out: out,
    "checkpoint.save_checkpoint": lambda args, kwargs, out: os.path.getsize(args[0]),
}

_TENSOR = "tensor."
_CONTRASTIVE = ("contrastive.augment", "contrastive.make_view_batch")
_MIXMATCH = ("mixmatch.guess_labels", "mixmatch.semi_loss",
             "mixmatch.build_semi_batch", "mixmatch.co_refine")
_NOISE = ("noise.partition_by_losses", "noise.fit_gmm_1d")
_CLI = tuple(f"cli.cmd_{sub}" for sub in CLI_SUBCOMMANDS)
_CHECKPOINT = ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")
_DATA = ("data.gen_blobs", "data.Dataset.with_noise")
_AUTODIFF = (_TENSOR + "matmul", _TENSOR + "Tensor.backward", _TENSOR + "SGD.step")

# Which wrappers must fire (and which must stay silent) on each workload,
# from the layer -> workload mapping in README.md. A wrapper that does not
# fire where its layer works means a binding site was missed.
COVERAGE = {
    "codim-sup": {
        "fires": (*_AUTODIFF, "models.ModelTriple.predict_proba",
                  "models.ModelTriple.forward_logits",
                  "models.ModelTriple.forward_projection", *_CONTRASTIVE,
                  "contrastive.sup_con_loss", *_MIXMATCH, *_NOISE,
                  "trainers.pretrain_selfcon", "trainers.warmup",
                  "trainers.train_ce", "trainers.CodimTrainer.epoch",
                  "metrics.test_accuracy", "metrics.consistency_metric",
                  "metrics.auc_score", *_DATA),
        "silent": ("trainers.label_correction", "config.load_config",
                   *_CHECKPOINT, *_CLI),
    },
    "selfcon-relabel": {
        "fires": (*_AUTODIFF, "models.ModelTriple.forward_projection",
                  *_CONTRASTIVE, "contrastive.self_con_loss",
                  "trainers.pretrain_selfcon", "trainers.label_correction",
                  *_DATA),
        "silent": ("models.ModelTriple.predict_proba", "contrastive.sup_con_loss",
                   *_MIXMATCH, *_NOISE, "trainers.warmup", "trainers.train_ce",
                   "trainers.CodimTrainer.epoch", "metrics.test_accuracy",
                   "metrics.consistency_metric", "metrics.auc_score",
                   "config.load_config", *_CHECKPOINT, *_CLI),
    },
    "cli-pipeline": {
        "fires": (*_AUTODIFF, "models.ModelTriple.predict_proba",
                  "models.ModelTriple.forward_logits", *_MIXMATCH, *_NOISE,
                  "noise.make_partition", "trainers.pretrain_selfcon",
                  "trainers.warmup", "trainers.CodimTrainer.epoch",
                  "metrics.test_accuracy", "metrics.export_curves_svg",
                  "metrics.export_embeddings_2d", "config.load_config",
                  *_CHECKPOINT, *_DATA, *_CLI),
        "silent": ("contrastive.sup_con_loss", "trainers.label_correction",
                   "trainers.train_ce"),
    },
}


def coverage_problems(workload: str, summary) -> list[str]:
    expect = COVERAGE[workload]
    problems = [f"{name} never fired" for name in expect["fires"]
                if summary.calls(name) == 0]
    problems += [f"{name} fired {summary.calls(name)} times, expected 0"
                 for name in expect["silent"] if summary.calls(name) > 0]
    return problems


def _step_intervals_ms(summary) -> tuple[np.ndarray, np.ndarray]:
    """Gaps between consecutive SGD step completions inside one phase span,
    in ms, and the phase span id of every step (the first step of a phase
    has no gap: its interval would include the phase's own set-up)."""
    steps = summary.spans_of("tensor.SGD.step")
    phases = np.array([summary.nearest_ancestor(s, STEP_PHASES) for s in steps],
                      dtype=np.intp)
    ends = summary.ends[steps]
    order = np.lexsort((ends, phases))
    ends, sorted_phases = ends[order], phases[order]
    same = sorted_phases[1:] == sorted_phases[:-1]
    gaps = np.diff(ends)[same & (sorted_phases[1:] >= 0)]
    return gaps * 1e3, phases


def derive(summary, observations, nodes_built: int, units: int,
           codivide_attempts: int, bytes_written: int, planted: dict,
           overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced run.

    ``planted`` maps a loss-vector length to the planted flip mask used to
    score partitions, with codim's own AUC (bound here before any wrapper
    is installed, so scoring records no spans).
    """
    per_unit = 1.0 / max(units, 1)
    s, calls = summary.self_seconds, summary.calls
    m: dict[str, float] = {}

    steps = calls("tensor.SGD.step")
    m["tensor.backward_s"] = s("tensor.Tensor.backward") * per_unit
    m["tensor.backward_calls"] = calls("tensor.Tensor.backward") * per_unit
    m["tensor.nodes_per_step"] = nodes_built / steps if steps else 0.0
    m["tensor.sgd_step_s"] = s("tensor.SGD.step") * per_unit
    for op in TENSOR_OPS:
        m[f"tensor.op_s.{op}"] = s(_TENSOR + op) * per_unit
    for op in TENSOR_OPS:
        m[f"tensor.op_calls.{op}"] = calls(_TENSOR + op) * per_unit

    rows = observations.get("models.ModelTriple.predict_proba", [])
    m["models.predict_proba_s"] = s("models.ModelTriple.predict_proba") * per_unit
    m["models.predict_proba_calls"] = len(rows) * per_unit
    m["models.predict_proba_rows_per_call"] = float(np.mean(rows)) if rows else 0.0
    m["models.forward_logits_s"] = s("models.ModelTriple.forward_logits") * per_unit
    m["models.forward_projection_s"] = (
        s("models.ModelTriple.forward_projection") * per_unit)

    m["contrastive.augment_s"] = s("contrastive.augment") * per_unit
    m["contrastive.augment_calls"] = calls("contrastive.augment") * per_unit
    for name in ("make_view_batch", "sup_con_loss", "self_con_loss"):
        m[f"contrastive.{name}_s"] = s(f"contrastive.{name}") * per_unit

    for name in _MIXMATCH:
        m[f"{name}_s"] = s(name) * per_unit

    partitions = observations.get("noise.make_partition", [])
    scored = [auc_score(p.clean_prob, ~planted[len(p.clean_prob)])
              for p in partitions if len(p.clean_prob) in planted]
    m["noise.partition_by_losses_s"] = s("noise.partition_by_losses") * per_unit
    m["noise.fit_gmm_1d_s"] = s("noise.fit_gmm_1d") * per_unit
    m["noise.gmm_iterations"] = sum(observations.get("noise.fit_gmm_1d", [])) * per_unit
    m["noise.clean_fraction"] = (
        float(np.mean([len(p.clean_idx) / len(p.clean_prob) for p in partitions]))
        if partitions else 0.0)
    m["noise.partition_auc"] = float(np.mean(scored)) if scored else 0.0

    m["trainers.pretrain_s"] = s("trainers.pretrain_selfcon") * per_unit
    m["trainers.warmup_s"] = s("trainers.warmup") * per_unit
    m["trainers.label_correction_s"] = s("trainers.label_correction") * per_unit
    m["trainers.train_ce_s"] = s("trainers.train_ce") * per_unit
    epochs = np.sort(summary.durations[summary.spans_of("trainers.CodimTrainer.epoch")])
    step_ms, phases = _step_intervals_ms(summary)
    for key, values in (("epoch_s", epochs), ("step_ms", np.sort(step_ms))):
        pct, value, n = tail(values)
        m[f"trainers.{key}.p50"] = nearest_rank(values, 50.0)
        m[f"trainers.{key}.tail"] = value
        m[f"trainers.{key}.tail_pct"] = pct
        m[f"trainers.{key}.samples"] = float(n)
    epoch_ids = set(summary.spans_of("trainers.CodimTrainer.epoch").tolist())
    codivide_steps = sum(1 for p in phases.tolist() if p in epoch_ids)
    m["trainers.step_yield"] = (codivide_steps / codivide_attempts
                                if codivide_attempts else 1.0)

    m["metrics.test_accuracy_s"] = s("metrics.test_accuracy") * per_unit
    m["metrics.consistency_metric_s"] = s("metrics.consistency_metric") * per_unit
    m["metrics.auc_score_s"] = s("metrics.auc_score") * per_unit
    m["metrics.export_svg_s"] = (s("metrics.export_curves_svg")
                                 + s("metrics.export_embeddings_2d")) * per_unit

    m["data.gen_blobs_s"] = s("data.gen_blobs") * per_unit
    m["data.with_noise_s"] = s("data.Dataset.with_noise") * per_unit
    m["config.load_config_s"] = s("config.load_config") * per_unit
    m["checkpoint.save_s"] = s("checkpoint.save_checkpoint") * per_unit
    m["checkpoint.load_s"] = s("checkpoint.load_checkpoint") * per_unit
    m["checkpoint.bytes"] = (sum(observations.get("checkpoint.save_checkpoint", []))
                             * per_unit)
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_s"] = s(f"cli.cmd_{sub}") * per_unit
    m["cli.bytes_written"] = bytes_written * per_unit
    m["trace.overhead"] = overhead
    m["trace.spans"] = len(summary.name_ids) * per_unit
    if list(m) != [name for name, _, _ in PER_LAYER]:
        raise RuntimeError("derived metrics do not match PER_LAYER")
    return m
