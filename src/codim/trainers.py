"""Training orchestration: self-supervised pre-training, warmup, the
co-divide noisy-label loop, the contrastive semi-supervised trainer, and
the frozen-encoder label-correction step."""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import tensor as T
from .contrastive import (AugmentSpec, augment, make_view_batch, self_con_loss,
                          sup_con_loss)
from .data import Dataset
from .errors import DegenerateInputError, ParameterError
from .metrics import auc_score, consistency_metric, test_accuracy, write_csv
from .mixmatch import (build_semi_batch, co_refine, guess_labels, mean_weak_proba,
                       one_hot, semi_loss)
from .models import Arch, DuoModel, Mlp, ModelTriple
from .noise import partition_by_losses
from .tensor import SGD, Tensor

MODES = ("bare", "cssl", "self", "sup")
# training rows that the per-epoch consistency column is measured on
CONSISTENCY_ROWS = 256


@dataclass
class TrainConfig:
    lambda_u: float = 25.0
    lambda_r: float = 1.0
    sharpen_t: float = 0.5
    mixup_alpha: float = 4.0
    num_augs: int = 2
    warmup_ramp_epochs: int = 16
    pretrain_steps: int = 500
    warmup_epochs: int = 5
    epochs: int = 30
    iters_per_epoch: int = 30
    batch_size: int = 64
    lr: float = 0.05
    lr_drop_factor: float = 10.0
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lambda_sup: float = 1.0
    lambda_self: float = 1.0
    tau1: float = 0.5
    tau2: float = 0.5
    tau3: float = 0.07
    mode: str = "sup"
    aug: AugmentSpec = field(default_factory=AugmentSpec)
    gmm_threshold: float = 0.5
    label_correction: bool = False
    label_correction_epochs: int = 50
    label_correction_lr: float = 0.05
    feat_hidden: tuple[int, ...] = (64, 64)
    proj_hidden: int = 64
    proj_dim: int = 16
    seed: int = 0
    labeled_ratio: float = 0.2

    def __post_init__(self):
        ParameterError.check(self, ">= 0", "lambda_u", "lambda_r", "warmup_ramp_epochs")
        ParameterError.check(self, "invertible", "sharpen_t")
        ParameterError.check(self, "in (0, 1]", "sharpen_t")
        ParameterError.check(self, "> 0", "mixup_alpha")
        ParameterError.check(self, ">= 1", "num_augs")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        ParameterError.check(self, ">= 0", "pretrain_steps", "warmup_epochs", "iters_per_epoch",
                             "seed", "momentum", "weight_decay", "lambda_sup", "lambda_self")
        # a relabeling head trained for no epoch would hand out its init's argmax
        ParameterError.check(self, ">= 1", "epochs", "label_correction_epochs", "proj_hidden",
                             "proj_dim")
        if self.batch_size < 2:
            raise ParameterError(f"batch_size = {self.batch_size} must be >= 2: a contrastive "
                                 "batch needs two source rows")
        if min(self.feat_hidden, default=0) < 1:
            raise ParameterError(f"feat_hidden = {self.feat_hidden} needs widths >= 1")
        ParameterError.check(self, "> 0", "lr", "label_correction_lr")
        ParameterError.check(self, "invertible", "lr_drop_factor", "tau1", "tau2", "tau3")
        ParameterError.check(self, "in [0, 1]", "gmm_threshold")
        ParameterError.check(self, "in (0, 1]", "labeled_ratio")

    def arch(self, input_dim: int, num_classes: int) -> Arch:
        return Arch(input_dim=input_dim, num_classes=num_classes,
                    feat_hidden=self.feat_hidden, proj_hidden=self.proj_hidden,
                    proj_dim=self.proj_dim)

    def lr_at(self, epoch: int) -> float:
        """``lr``, divided by ``lr_drop_factor`` from epoch ``epochs // 2`` on."""
        return self.lr / self.lr_drop_factor if epoch >= self.epochs // 2 else self.lr

    def ramped_lambda_u(self, epoch: float) -> float:
        """Linear 0 -> lambda_u over warmup_ramp_epochs; full weight if 0 (no ramp)."""
        if self.warmup_ramp_epochs == 0:
            return self.lambda_u
        return self.lambda_u * float(np.clip(epoch / self.warmup_ramp_epochs, 0.0, 1.0))

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
        write_csv(path, RUN_RECORD_HEADER, *zip(*map(astuple, self.rows)))


def _rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def _draw(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    return rng.choice(pool, size=min(size, len(pool)), replace=False)


def _step(opt: SGD, loss: Tensor, terms=()) -> float:
    """One SGD step on ``loss`` plus each ``(weight, term)``; returns the sum.
    A non-finite sum raises before any gradient is computed. Each term seeds
    its own backward pass with its weight, last term first and ``loss`` last:
    the order in which one graph of the sum adds gradients into the trunk."""
    value = loss.item()
    for weight, term in terms:
        value += term.item() * weight
    if not np.isfinite(value):
        raise DegenerateInputError(f"training loss is {value}")
    opt.zero_grad()
    for weight, term in reversed(terms):
        term.backward(weight)
    loss.backward()
    opt.step()
    return value


def _consistency(net: ModelTriple, dataset: Dataset, cfg: TrainConfig, tag: int,
                 rows=slice(None)) -> float:
    return consistency_metric(net, dataset.x[rows], cfg.aug, _rng(cfg.seed, 0xE5, tag))


def pretrain_selfcon(dataset: Dataset, m: ModelTriple, cfg: TrainConfig) -> list[float]:
    """Self-supervised pre-training: SGD on trunk + projector only.

    Mutates ``m`` in place and returns the per-step loss curve.
    """
    rng = _rng(cfg.seed, 0xA1)
    opt = cfg.sgd(m.params("feat", "proj"))
    losses = []
    pool = np.arange(dataset.n)
    for _ in range(cfg.pretrain_steps):
        idx = _draw(rng, pool, cfg.batch_size)
        views = make_view_batch(m, dataset.x[idx], cfg.aug, rng)
        losses.append(_step(opt, self_con_loss(views, cfg.tau1)))
    return losses


def _ce_epoch(forward, opt: SGD, x: np.ndarray, targets: np.ndarray,
              batch_size: int, rng: np.random.Generator):
    """One shuffled pass of cross-entropy SGD steps over all rows."""
    order = rng.permutation(len(targets))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        _step(opt, T.softmax_cross_entropy(forward(x[idx]), targets[idx]))


def warmup(dataset: Dataset, duo: DuoModel, cfg: TrainConfig):
    """Plain CE on all noisy labels for both networks, independent shuffles."""
    targets = one_hot(dataset.noisy_labels, dataset.num_classes)
    for j, net in enumerate(duo.nets):
        rng = _rng(cfg.seed, 0xB2, j)
        opt = cfg.sgd(net.params())
        for _ in range(cfg.warmup_epochs):
            _ce_epoch(net.forward_logits, opt, dataset.x, targets, cfg.batch_size, rng)


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


def _contrastive_terms(net: ModelTriple, cfg: TrainConfig, mode: str, x_lab: np.ndarray,
                       labels: np.ndarray, x_unl: np.ndarray,
                       rng: np.random.Generator) -> list[tuple[float, Tensor]]:
    """The ``(weight, loss)`` contrastive terms of ``mode``: ``self`` SelfCon on
    the labeled rows, ``sup`` SupCon on them, ``cssl`` SupCon on them then
    SelfCon on the unlabeled rows. A term with zero weight or < 2 rows is left out."""
    terms = []
    if mode in ("sup", "cssl") and cfg.lambda_sup != 0 and len(x_lab) >= 2:
        views = make_view_batch(net, x_lab, cfg.aug, rng)
        terms.append((cfg.lambda_sup, sup_con_loss(views, labels, cfg.tau3)))
    self_rows = {"self": x_lab, "cssl": x_unl}.get(mode, ())
    if cfg.lambda_self != 0 and len(self_rows) >= 2:
        views = make_view_batch(net, self_rows, cfg.aug, rng)
        terms.append((cfg.lambda_self, self_con_loss(views, cfg.tau2)))
    return terms


def _mixmatch_step(net: ModelTriple, guessers: tuple[ModelTriple, ...], opt: SGD,
                   cfg: TrainConfig, mode: str, x_lab: np.ndarray, labels: np.ndarray,
                   targets: np.ndarray, x_unl: np.ndarray, epoch: int,
                   rng: np.random.Generator):
    """One semi-supervised SGD step on ``net``: ``guessers`` co-guess the
    unlabeled rows' labels, both sides are strong-augmented and MixUp-ed
    (labeled rows with their ``targets``), and each weighted contrastive term
    of ``mode`` joins the step. Returns the values of Lx, Lu, Lreg and Lcl."""
    if len(x_unl) > 0:
        guessed = guess_labels(guessers, x_unl, cfg.aug, cfg.num_augs, cfg.sharpen_t, rng)
        x_unl_s = augment(x_unl, cfg.aug, "strong", rng)
    else:
        x_unl_s, guessed = x_unl, np.zeros((0, targets.shape[1]))
    x_lab_s = augment(x_lab, cfg.aug, "strong", rng)
    mixed = build_semi_batch(x_lab_s, targets, x_unl_s, guessed, cfg.mixup_alpha, rng)
    lx, lu, lreg, total = semi_loss(net, *mixed, cfg.ramped_lambda_u(float(epoch)),
                                    cfg.lambda_r)
    # drawn after the mix, so the views follow it in the rng stream
    terms = _contrastive_terms(net, cfg, mode, x_lab, labels, x_unl, rng)
    _step(opt, total, terms)
    return lx, lu, lreg, sum((t.item() for _, t in terms), 0.0)


def _run_epoch(nets: tuple[ModelTriple, ...], opts: list[SGD], dataset: Dataset,
               cfg: TrainConfig, epoch: int, step, partition_auc: float = 0.5) -> EpochMetrics:
    """One epoch of every trainer. Sets each optimizer's lr, then for each
    iteration ``it`` and net ``j`` calls ``step(epoch, it, j)``, which takes
    one SGD step and returns its (Lx, Lu, Lreg, Lcl) values, or None when it
    skipped the step. The row holds the loss terms' means over the steps
    taken, the test accuracy of the first net, of the last and of their mean
    softmax, and the first net's consistency on the ``min(CONSISTENCY_ROWS, n)``
    sorted training rows that the seed alone picks (every row for a small n)."""
    for opt in opts:
        opt.lr = cfg.lr_at(epoch)
    sums, steps = [0.0] * 4, 0
    for it in range(cfg.iters_per_epoch):
        for j in range(len(nets)):
            losses = step(epoch, it, j)
            if losses is not None:
                sums = [s + v for s, v in zip(sums, losses)]
                steps += 1
    # each net predicts test_x once; the ensemble is the mean of the arrays
    probs = [net.predict_proba(dataset.test_x) for net in nets]
    accs = [test_accuracy(p, dataset.test_labels)
            for p in (probs[0], probs[-1], sum(probs) / len(probs))]
    rows = np.sort(_rng(cfg.seed, 0xE6).choice(dataset.n, min(CONSISTENCY_ROWS, dataset.n),
                                               replace=False))
    return EpochMetrics(epoch, *(s / max(steps, 1) for s in sums), *accs,
                        partition_auc=partition_auc,
                        consistency=_consistency(nets[0], dataset, cfg, epoch, rows))


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
        warmup(self.dataset, self.duo, cfg)
        if cfg.label_correction:
            self.dataset = label_correction(self.dataset, self.base, cfg)
        # SGD skips a parameter with no gradient, so bare mode's projector stays put
        self.opts = [cfg.sgd(net.params()) for net in self.duo.nets]

    def epoch(self, epoch: int) -> EpochMetrics:
        cfg, data, nets = self.cfg, self.dataset, self.duo.nets
        # co-divide: each net's partition comes from the peer's losses
        partitions = [partition_by_losses(peer, data.x, data.noisy_labels,
                                          cfg.gmm_threshold)
                      for peer in (self.duo.net_b, self.duo.net_a)]
        flip = data.flip_mask
        if flip.any() and not flip.all():
            auc = float(np.mean([auc_score(p.clean_prob, ~flip) for p in partitions]))
        else:
            auc = 0.5  # no planted noise to score against

        def step(epoch, it, j):
            net, part = nets[j], partitions[j]
            rng = _rng(cfg.seed, 0xD4, epoch, it, j)
            lab_idx = _draw(rng, part.clean_idx, cfg.batch_size)
            unl_idx = _draw(rng, part.noisy_idx, cfg.batch_size)
            if len(lab_idx) < 2:
                return None
            x_lab, x_unl = data.x[lab_idx], data.x[unl_idx]
            noisy_lab = data.noisy_labels[lab_idx]
            # weak views answer label queries, strong views carry gradients
            own_pred = mean_weak_proba((net,), x_lab, cfg.aug, cfg.num_augs, rng)
            refined = co_refine(part.clean_prob[lab_idx],
                                one_hot(noisy_lab, data.num_classes),
                                own_pred, cfg.sharpen_t)
            return _mixmatch_step(net, nets, self.opts[j], cfg, cfg.mode, x_lab, noisy_lab,
                                  refined, x_unl, epoch, rng)

        return _run_epoch(nets, self.opts, data, cfg, epoch, step, auc)

    def run(self) -> tuple[DuoModel, RunRecord]:
        """``prepare`` and every epoch, with the first net's consistency over
        all training rows measured right after ``prepare`` and after the last
        epoch: criterion 6's pair. Both use the same perturbation draws, so
        the warmup-vs-trained comparison is not washed out by estimator
        variance."""
        self.prepare()
        self.post_warmup_consistency = _consistency(self.duo.net_a, self.dataset, self.cfg,
                                                    0xFFFF)
        record = RunRecord([self.epoch(epoch) for epoch in range(self.cfg.epochs)])
        self.final_consistency = _consistency(self.duo.net_a, self.dataset, self.cfg, 0xFFFF)
        return self.duo, record


def train_codim(dataset: Dataset, cfg: TrainConfig,
                pretrained_state: dict | None = None) -> tuple[DuoModel, RunRecord]:
    """``CodimTrainer.run`` without its consistency pair, which the returned
    duo and record do not hold: the same weights and rows, bit for bit."""
    trainer = CodimTrainer(dataset, cfg, pretrained_state=pretrained_state)
    trainer.prepare()
    return trainer.duo, RunRecord([trainer.epoch(epoch) for epoch in range(cfg.epochs)])


def train_ce(dataset: Dataset, cfg: TrainConfig) -> tuple[ModelTriple, RunRecord]:
    """Cross-entropy baseline: one network, noisy labels, no pre-training."""
    net = ModelTriple(cfg.arch(dataset.dim, dataset.num_classes), seed=cfg.seed)
    opt = cfg.sgd(net.params())
    rng = _rng(cfg.seed, 0xF6)
    pool = np.arange(dataset.n)

    def step(epoch, it, j):
        idx = _draw(rng, pool, cfg.batch_size)
        loss = T.softmax_cross_entropy(
            net.forward_logits(dataset.x[idx]),
            one_hot(dataset.noisy_labels[idx], dataset.num_classes))
        return _step(opt, loss), 0.0, 0.0, 0.0

    return net, RunRecord([_run_epoch((net,), [opt], dataset, cfg, epoch, step)
                           for epoch in range(cfg.epochs)])


def train_cssl(dataset: Dataset, cfg: TrainConfig) -> tuple[ModelTriple, RunRecord]:
    """Multi-task contrastive semi-supervised training on trusted labels.

    One network; supervised contrastive loss on labeled batches, self
    contrastive loss on unlabeled batches, plus the semi-supervised
    objective, whose label guesses come from the network alone. The labeled
    rows are ``max(1, round(labeled_ratio * n))`` drawn from the seed alone.
    ``lambda_sup == lambda_self == 0`` is the plain-SSL baseline.
    """
    n_lab = max(1, round(cfg.labeled_ratio * dataset.n))
    labeled = np.zeros(dataset.n, dtype=bool)
    labeled[_rng(cfg.seed, 0x20).choice(dataset.n, size=n_lab, replace=False)] = True
    lab_pool, unl_pool = np.flatnonzero(labeled), np.flatnonzero(~labeled)
    net = ModelTriple(cfg.arch(dataset.dim, dataset.num_classes), seed=cfg.seed)
    pretrain_selfcon(dataset, net, cfg)
    opt = cfg.sgd(net.params())

    def step(epoch, it, j):
        rng = _rng(cfg.seed, 0x17, epoch, it)
        lab_idx = _draw(rng, lab_pool, cfg.batch_size)
        unl_idx = _draw(rng, unl_pool, cfg.batch_size)
        x_lab, x_unl = dataset.x[lab_idx], dataset.x[unl_idx]
        labels = dataset.noisy_labels[lab_idx]
        return _mixmatch_step(net, (net,), opt, cfg, "cssl", x_lab, labels,
                              one_hot(labels, dataset.num_classes), x_unl, epoch, rng)

    return net, RunRecord([_run_epoch((net,), [opt], dataset, cfg, epoch, step)
                           for epoch in range(cfg.epochs)])
