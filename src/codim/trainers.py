"""Training orchestration: self-supervised pre-training, warmup, the
co-divide noisy-label loop, the contrastive semi-supervised trainer, and
the frozen-encoder label-correction step."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import tensor as T
from .contrastive import (AugmentSpec, augment, make_view_batch, self_con_loss,
                          sup_con_loss)
from .data import Dataset
from .errors import DegenerateInputError, ParameterError
from .metrics import auc_score, consistency_metric, test_accuracy
from .mixmatch import (SslHyper, build_semi_batch, co_refine, guess_labels,
                       mean_weak_proba, one_hot, semi_loss)
from .models import Arch, DuoModel, Mlp, ModelTriple
from .noise import partition_by_losses
from .tensor import SGD, Tensor

MODES = ("bare", "cssl", "self", "sup")


@dataclass
class TrainConfig:
    pretrain_steps: int = 500
    warmup_epochs: int = 5
    epochs: int = 30
    iters_per_epoch: int = 30
    batch_size: int = 64
    lr: float = 0.05
    lr_drop_epoch: int = -1  # -1: drop at epochs // 2
    lr_drop_factor: float = 10.0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lambda_cl: float = 1.0
    lambda_sup: float = 1.0
    lambda_self: float = 1.0
    tau1: float = 0.5
    tau2: float = 0.5
    tau3: float = 0.07
    mode: str = "sup"
    ssl: SslHyper = field(default_factory=SslHyper)
    aug: AugmentSpec = field(default_factory=AugmentSpec)
    gmm_threshold: float = 0.5
    label_correction: bool = False
    label_correction_epochs: int = 50
    label_correction_lr: float = 0.05
    feat_hidden: tuple[int, ...] = (64, 64)
    proj_hidden: int = 64
    proj_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        for name in ("pretrain_steps", "warmup_epochs", "epochs", "iters_per_epoch"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.gmm_threshold <= 1.0:
            raise ParameterError(f"gmm_threshold = {self.gmm_threshold} is outside [0, 1]")
        if self.lr <= 0 or self.batch_size < 2:
            raise ParameterError("lr must be positive and batch_size >= 2, got "
                                 f"lr = {self.lr}, batch_size = {self.batch_size}")

    def arch(self, input_dim: int, num_classes: int) -> Arch:
        return Arch(input_dim=input_dim, num_classes=num_classes,
                    feat_hidden=self.feat_hidden, proj_hidden=self.proj_hidden,
                    proj_dim=self.proj_dim)

    def lr_at(self, epoch: int) -> float:
        drop = self.lr_drop_epoch if self.lr_drop_epoch >= 0 else self.epochs // 2
        return self.lr / self.lr_drop_factor if epoch >= drop else self.lr

    def sgd(self, params: dict[str, Tensor], lr: float | None = None) -> SGD:
        return SGD(params, lr=self.lr if lr is None else lr, momentum=self.momentum,
                   weight_decay=self.weight_decay)


@dataclass
class EpochMetrics:
    epoch: int
    loss_x: float
    loss_u: float
    loss_reg: float
    loss_cl: float
    test_acc_a: float
    test_acc_b: float
    test_acc_ens: float
    partition_auc: float
    consistency: float


RUN_RECORD_HEADER = [f.name for f in fields(EpochMetrics)]


@dataclass
class RunRecord:
    rows: list[EpochMetrics] = field(default_factory=list)

    @property
    def best_acc(self) -> float:
        return max(r.test_acc_ens for r in self.rows)

    @property
    def last_acc(self) -> float:
        return self.rows[-1].test_acc_ens

    def to_csv(self, path):
        from .metrics import write_csv
        write_csv(path, RUN_RECORD_HEADER,
                  [[r.epoch, *(repr(getattr(r, k)) for k in RUN_RECORD_HEADER[1:])]
                   for r in self.rows])


def _rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _draw(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    if len(pool) == 0:
        return np.array([], dtype=np.intp)
    return rng.choice(pool, size=min(size, len(pool)), replace=False)


def _step(opt: SGD, loss: Tensor) -> float:
    """One SGD step on ``loss``; returns its value. A non-finite loss raises
    before any gradient is computed or parameter moved."""
    value = loss.item()
    if not np.isfinite(value):
        raise DegenerateInputError(f"training loss is {value}")
    opt.zero_grad()
    loss.backward()
    opt.step()
    return value


def _consistency(net: ModelTriple, dataset: Dataset, cfg: TrainConfig, tag: int) -> float:
    return consistency_metric(net, dataset.x, cfg.aug, n_neighbors=8,
                              rng=_rng(cfg.seed, 0xE5, tag))


def pretrain_selfcon(dataset: Dataset, m: ModelTriple, cfg: TrainConfig) -> list[float]:
    """Self-supervised pre-training: SGD on trunk + projector only.

    Mutates ``m`` in place and returns the per-step loss curve.
    """
    rng = _rng(cfg.seed, 0xA1)
    opt = cfg.sgd(m.params("feat", "proj"))
    losses = []
    for _ in range(cfg.pretrain_steps):
        idx = _draw(rng, np.arange(dataset.n), cfg.batch_size)
        vb = make_view_batch(m, dataset.x[idx], None, cfg.aug, "strong", rng)
        losses.append(_step(opt, self_con_loss(vb, cfg.tau1)))
    return losses


def _ce_epoch(forward, opt: SGD, x: np.ndarray, targets: np.ndarray,
              batch_size: int, rng: np.random.Generator):
    """One shuffled pass of cross-entropy SGD steps over all rows."""
    order = rng.permutation(len(targets))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        _step(opt, T.softmax_cross_entropy(forward(x[idx]), targets[idx]))


def warmup(dataset: Dataset, duo: DuoModel, warmup_epochs: int,
           cfg: TrainConfig) -> DuoModel:
    """Plain CE on all noisy labels for both networks, independent shuffles."""
    targets = one_hot(dataset.noisy_labels, dataset.num_classes)
    for j, net in enumerate(duo.nets):
        rng = _rng(cfg.seed, 0xB2, j)
        opt = cfg.sgd(net.params())
        for _ in range(warmup_epochs):
            _ce_epoch(net.forward_logits, opt, dataset.x, targets, cfg.batch_size, rng)
    return duo


def label_correction(dataset: Dataset, m: ModelTriple, cfg: TrainConfig) -> Dataset:
    """Train a throwaway linear head on the frozen feature space with CE over
    all noisy labels, then replace every training label with its argmax.
    ``m`` is left untouched."""
    rng = _rng(cfg.seed, 0xC3)
    feats = m.feat.forward_np(dataset.x)
    head = Mlp([feats.shape[1], dataset.num_classes], rng)
    opt = cfg.sgd(head.params("head"), lr=cfg.label_correction_lr)
    targets = one_hot(dataset.noisy_labels, dataset.num_classes)
    for _ in range(cfg.label_correction_epochs):
        _ce_epoch(lambda f: head.forward(Tensor(f)), opt, feats, targets,
                  cfg.batch_size, rng)
    new_labels = np.argmax(head.forward_np(feats), axis=1)
    return dataset.with_labels(new_labels)


def _mixmatch_step(net: ModelTriple, guesser: DuoModel, opt: SGD, cfg: TrainConfig,
                   x_lab: np.ndarray, targets: np.ndarray, x_unl: np.ndarray,
                   epoch: int, rng: np.random.Generator, contrastive):
    """One semi-supervised SGD step on ``net``: ``guesser`` co-guesses the
    unlabeled rows' labels, both sides are strong-augmented and MixUp-ed, and
    each ``(weight, term)`` pair from ``contrastive()`` is added to the loss
    in turn. Returns the values of Lx, Lu, Lreg and the contrastive terms."""
    if len(x_unl) > 0:
        guessed = guess_labels(guesser, x_unl, cfg.aug, cfg.ssl, rng)
        x_unl_s = augment(x_unl, cfg.aug, "strong", rng)
    else:
        x_unl_s, guessed = x_unl, np.zeros((0, targets.shape[1]))
    x_lab_s = augment(x_lab, cfg.aug, "strong", rng)
    batch = build_semi_batch(x_lab_s, targets, x_unl_s, guessed,
                             cfg.ssl.mixup_alpha, rng)
    lx, lu, lreg, total = semi_loss(net, batch, cfg.ssl, float(epoch))
    # drawn after the mix, so the views follow it in the rng stream
    terms = contrastive()
    for weight, term in terms:
        total = total + T.scale(term, weight)
    _step(opt, total)
    return lx.item(), lu.item(), lreg.item(), sum((t.item() for _, t in terms), 0.0)


class CodimTrainer:
    """Owns the two-network co-divide training loop."""

    def __init__(self, dataset: Dataset, cfg: TrainConfig,
                 pretrained_state: dict | None = None):
        self.dataset = dataset
        self.cfg = cfg
        arch = cfg.arch(dataset.dim, dataset.num_classes)
        self.base = ModelTriple(arch, seed=cfg.seed)
        self.pretrained_state = pretrained_state
        self.duo: DuoModel | None = None
        self.opts: list[SGD] | None = None
        self.pretrain_losses: list[float] = []
        self.post_warmup_consistency: float | None = None
        self.final_consistency: float | None = None

    def prepare(self):
        """Phase 1: pre-train, build the duo, warm up, optional relabeling."""
        cfg = self.cfg
        if self.pretrained_state is not None:
            self.base.load_state_dict(self.pretrained_state)
        else:
            self.pretrain_losses = pretrain_selfcon(self.dataset, self.base, cfg)
        self.duo = DuoModel.from_pretrained(self.base, seed_a=cfg.seed + 101,
                                            seed_b=cfg.seed + 202)
        warmup(self.dataset, self.duo, cfg.warmup_epochs, cfg)
        if cfg.label_correction:
            self.dataset = label_correction(self.dataset, self.base, cfg)
        # bare mode has no contrastive term, so its projector is not trained
        heads = ("feat", "cls") if cfg.mode == "bare" else ()
        self.opts = [cfg.sgd(net.params(*heads)) for net in self.duo.nets]
        self.post_warmup_consistency = self.measure_consistency(0xFFFF)

    def _contrastive_terms(self, net, x_lab, labels_lab, x_unl, rng):
        cfg = self.cfg
        if cfg.mode == "bare":
            return []
        clean_views = make_view_batch(net, x_lab, labels_lab, cfg.aug, "strong", rng)
        if cfg.mode == "self":
            return [(cfg.lambda_cl, self_con_loss(clean_views, cfg.tau2))]
        l_cl = sup_con_loss(clean_views, cfg.tau3)
        if cfg.mode == "cssl" and len(x_unl) >= 2:
            noisy_views = make_view_batch(net, x_unl, None, cfg.aug, "strong", rng)
            l_cl = l_cl + self_con_loss(noisy_views, cfg.tau2)
        return [(cfg.lambda_cl, l_cl)]

    def epoch(self, epoch: int) -> EpochMetrics:
        cfg, data = self.cfg, self.dataset
        for opt in self.opts:
            opt.lr = cfg.lr_at(epoch)
        # co-divide: each net's partition comes from the peer's losses
        partitions = [partition_by_losses(peer, data.x, data.noisy_labels,
                                          cfg.gmm_threshold)
                      for peer in (self.duo.net_b, self.duo.net_a)]
        sums, steps = [0.0] * 4, 0
        for it in range(cfg.iters_per_epoch):
            for j, (net, opt, part) in enumerate(zip(self.duo.nets, self.opts,
                                                     partitions)):
                rng = _rng(cfg.seed, 0xD4, epoch, it, j)
                lab_idx = _draw(rng, part.clean_idx, cfg.batch_size)
                unl_idx = _draw(rng, part.noisy_idx, cfg.batch_size)
                if len(lab_idx) < 2:
                    continue
                x_lab, x_unl = data.x[lab_idx], data.x[unl_idx]
                noisy_lab = data.noisy_labels[lab_idx]
                # weak views answer label queries, strong views carry gradients
                own_pred = mean_weak_proba((net,), x_lab, cfg.aug, cfg.ssl.num_augs, rng)
                refined = co_refine(part.clean_prob[lab_idx],
                                    one_hot(noisy_lab, data.num_classes),
                                    own_pred, cfg.ssl.sharpen_t)
                losses = _mixmatch_step(
                    net, self.duo, opt, cfg, x_lab, refined, x_unl, epoch, rng,
                    partial(self._contrastive_terms, net, x_lab, noisy_lab, x_unl, rng))
                sums = [s + v for s, v in zip(sums, losses)]
                steps += 1
        if data.flip_mask.any() and not data.flip_mask.all():
            auc = float(np.mean([auc_score(p.clean_prob, ~data.flip_mask)
                                 for p in partitions]))
        else:
            auc = 0.5  # no planted noise to score against
        accs = [test_accuracy(predict, data.test_x, data.test_labels)
                for predict in (self.duo.net_a.predict_proba,
                                self.duo.net_b.predict_proba, self.duo.ensemble_proba)]
        return EpochMetrics(epoch, *(s / max(steps, 1) for s in sums), *accs,
                            partition_auc=auc,
                            consistency=self.measure_consistency(epoch))

    def measure_consistency(self, tag: int) -> float:
        return _consistency(self.duo.net_a, self.dataset, self.cfg, tag)

    def run(self) -> tuple[DuoModel, RunRecord]:
        self.prepare()
        record = RunRecord()
        for epoch in range(self.cfg.epochs):
            record.rows.append(self.epoch(epoch))
        # paired with post_warmup_consistency: same perturbation draws,
        # so the warmup-vs-trained comparison is not washed out by
        # estimator variance
        self.final_consistency = self.measure_consistency(0xFFFF)
        return self.duo, record


def train_codim(dataset: Dataset, cfg: TrainConfig,
                pretrained_state: dict | None = None) -> tuple[DuoModel, RunRecord]:
    return CodimTrainer(dataset, cfg, pretrained_state=pretrained_state).run()


def _train_solo(net: ModelTriple, dataset: Dataset, cfg: TrainConfig, step) -> RunRecord:
    """Epoch loop of the one-network trainers: ``step(opt, epoch, it)`` takes
    one SGD step and returns its (Lx, Lu, Lreg, Lcl) values."""
    opt = cfg.sgd(net.params())
    record = RunRecord()
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr_at(epoch)
        sums = [0.0] * 4
        for it in range(cfg.iters_per_epoch):
            sums = [s + v for s, v in zip(sums, step(opt, epoch, it))]
        acc = test_accuracy(net.predict_proba, dataset.test_x, dataset.test_labels)
        record.rows.append(EpochMetrics(
            epoch, *(s / max(cfg.iters_per_epoch, 1) for s in sums), acc, acc, acc,
            partition_auc=0.5, consistency=_consistency(net, dataset, cfg, epoch)))
    return record


def train_ce(dataset: Dataset, cfg: TrainConfig) -> tuple[ModelTriple, RunRecord]:
    """Cross-entropy baseline: one network, noisy labels, no pre-training."""
    net = ModelTriple(cfg.arch(dataset.dim, dataset.num_classes), seed=cfg.seed)
    rng = _rng(cfg.seed, 0xF6)

    def step(opt, epoch, it):
        idx = _draw(rng, np.arange(dataset.n), cfg.batch_size)
        loss = T.softmax_cross_entropy(
            net.forward_logits(dataset.x[idx]),
            one_hot(dataset.noisy_labels[idx], dataset.num_classes))
        return _step(opt, loss), 0.0, 0.0, 0.0

    return net, _train_solo(net, dataset, cfg, step)


def train_cssl(dataset: Dataset, labeled_mask: np.ndarray,
               cfg: TrainConfig) -> tuple[ModelTriple, RunRecord]:
    """Multi-task contrastive semi-supervised training on trusted labels.

    One network; supervised contrastive loss on labeled batches, self
    contrastive loss on unlabeled batches, plus the semi-supervised
    objective. ``lambda_sup == lambda_self == 0`` is the plain-SSL baseline.
    """
    labeled_mask = np.asarray(labeled_mask, dtype=bool)
    net = ModelTriple(cfg.arch(dataset.dim, dataset.num_classes), seed=cfg.seed)
    pretrain_selfcon(dataset, net, cfg)
    solo = DuoModel(net, net)  # co-guessing degenerates to single-net guessing
    lab_pool = np.flatnonzero(labeled_mask)
    unl_pool = np.flatnonzero(~labeled_mask)

    def step(opt, epoch, it):
        rng = _rng(cfg.seed, 0x17, epoch, it)
        lab_idx = _draw(rng, lab_pool, cfg.batch_size)
        unl_idx = _draw(rng, unl_pool, cfg.batch_size)
        x_lab, x_unl = dataset.x[lab_idx], dataset.x[unl_idx]
        labels = dataset.noisy_labels[lab_idx]

        def contrastive():
            terms = []
            if cfg.lambda_sup > 0 and len(x_lab) >= 2:
                vb = make_view_batch(net, x_lab, labels, cfg.aug, "strong", rng)
                terms.append((cfg.lambda_sup, sup_con_loss(vb, cfg.tau3)))
            if cfg.lambda_self > 0 and len(x_unl) >= 2:
                vb = make_view_batch(net, x_unl, None, cfg.aug, "strong", rng)
                terms.append((cfg.lambda_self, self_con_loss(vb, cfg.tau2)))
            return terms

        return _mixmatch_step(net, solo, opt, cfg, x_lab,
                              one_hot(labels, dataset.num_classes), x_unl, epoch,
                              rng, contrastive)

    return net, _train_solo(net, dataset, cfg, step)
