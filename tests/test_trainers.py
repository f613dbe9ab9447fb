"""Training orchestration: phase wiring, mode semantics, determinism."""

import numpy as np
import pytest

from codim import tensor as T
from codim import trainers
from codim.contrastive import make_view_batch, self_con_loss, sup_con_loss
from codim.data import BlobSpec, gen_blobs
from codim.errors import DegenerateInputError, ParameterError
from codim.models import ModelTriple
from codim.noise import NoiseSpec, Partition
from codim.trainers import (RUN_RECORD_HEADER, CodimTrainer, TrainConfig,
                            _contrastive_terms, label_correction, pretrain_selfcon,
                            train_ce, train_codim, train_cssl, warmup)
from codim.metrics import consistency_metric
from codim.metrics import test_accuracy as accuracy_of
from codim.mixmatch import one_hot
from codim.models import DuoModel

from conftest import rng_for
from test_tensor import add, scale


def small_dataset(seed=0, noisy=True):
    ds = gen_blobs(BlobSpec(num_classes=3, dim=2, samples_per_class=60,
                            class_separation=3.0, seed=seed))
    if noisy:
        ds = ds.with_noise(NoiseSpec("symmetric", 0.3, seed=seed + 1,
                                     redraw_over_all=False))
    return ds


def wide_dataset(seed=0):
    """300 training rows: more than ``trainers.CONSISTENCY_ROWS``."""
    ds = gen_blobs(BlobSpec(num_classes=3, dim=2, samples_per_class=150,
                            class_separation=3.0, seed=seed))
    return ds.with_noise(NoiseSpec("symmetric", 0.3, seed=seed + 1, redraw_over_all=False))


def consistency_rows(seed, n):
    return np.sort(trainers._rng(seed, 0xE6).choice(n, min(trainers.CONSISTENCY_ROWS, n),
                                                    replace=False))


def mean_proba(duo, x):
    """The ensemble prediction: the mean of the two nets' softmax outputs."""
    return 0.5 * (duo.net_a.predict_proba(x) + duo.net_b.predict_proba(x))


def small_config(**kw):
    base = dict(pretrain_steps=20, warmup_epochs=1, epochs=2, iters_per_epoch=3,
                batch_size=16, feat_hidden=(8, 8), proj_hidden=8, proj_dim=4,
                seed=0, mode="sup")
    base.update(kw)
    return TrainConfig(**base)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(mode="fancy")
    with pytest.raises(ParameterError):
        TrainConfig(epochs=-1)
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0)
    for name in ("lr", "lr_drop_factor", "tau1", "tau2", "tau3", "label_correction_lr"):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError, match=f"{name} = "):
                TrainConfig(**{name: bad})
    for name in ("lr_drop_factor", "tau1", "tau2", "tau3"):
        with pytest.raises(ParameterError, match=f"{name} = 1e-320"):
            TrainConfig(**{name: 1e-320})
    for name in ("weight_decay", "lambda_sup", "lambda_self", "momentum"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ParameterError, match=f"{name} = "):
                TrainConfig(**{name: bad})
    for name in ("weight_decay", "lambda_sup", "lambda_self"):
        with pytest.raises(ParameterError, match=f"{name} = -1"):
            TrainConfig(**{name: -1.0})
    for name, bad in (("epochs", 0), ("batch_size", 1), ("proj_hidden", 0),
                      ("proj_dim", 0), ("seed", -1), ("feat_hidden", (8, 0)),
                      ("feat_hidden", ()), ("pretrain_steps", -1), ("warmup_epochs", -1),
                      ("iters_per_epoch", -1), ("label_correction_epochs", -1),
                      ("label_correction_epochs", 0)):
        with pytest.raises(ParameterError, match=f"{name} = "):
            TrainConfig(**{name: bad})
    for threshold in (1.5, -0.1, float("nan")):
        with pytest.raises(ParameterError, match="gmm_threshold"):
            TrainConfig(gmm_threshold=threshold)


def test_lr_schedule():
    cfg = TrainConfig(lr=0.1, epochs=10, lr_drop_factor=10.0)
    assert cfg.lr_at(4) == 0.1
    assert cfg.lr_at(5) == pytest.approx(0.01)  # one drop, at epochs // 2
    cfg2 = TrainConfig(lr=0.1, epochs=7, lr_drop_factor=2.0)
    assert cfg2.lr_at(2) == 0.1 and cfg2.lr_at(3) == pytest.approx(0.05)


def test_pretrain_zero_steps_is_noop():
    ds = small_dataset()
    cfg = small_config(pretrain_steps=0)
    m = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=0)
    before = {k: v.copy() for k, v in m.state_dict().items()}
    losses = pretrain_selfcon(ds, m, cfg)
    assert losses == []
    for k, v in m.state_dict().items():
        assert np.array_equal(v, before[k])


def test_pretrain_trains_backbone_not_classifier():
    ds = small_dataset()
    cfg = small_config(pretrain_steps=10)
    m = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=0)
    cls_before = m.cls.weights[0].data.copy()
    feat_before = m.feat.weights[0].data.copy()
    losses = pretrain_selfcon(ds, m, cfg)
    assert len(losses) == 10
    assert np.array_equal(m.cls.weights[0].data, cls_before)
    assert not np.array_equal(m.feat.weights[0].data, feat_before)


def test_warmup_improves_over_random_init():
    ds = small_dataset(noisy=False)
    cfg = small_config(warmup_epochs=5)
    base = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=0)
    duo = DuoModel.from_pretrained(base, 1, 2)
    before = accuracy_of(mean_proba(duo, ds.test_x), ds.test_labels)
    warmup(ds, duo, cfg)
    after = accuracy_of(mean_proba(duo, ds.test_x), ds.test_labels)
    assert after > max(before, 0.8)


def test_bare_mode_freezes_projection_head():
    ds = small_dataset()
    trainer = CodimTrainer(ds, small_config(mode="bare", pretrain_steps=5))
    trainer.prepare()
    proj_before = [n.proj.weights[0].data.copy() for n in trainer.duo.nets]
    cls_before = [n.cls.weights[0].data.copy() for n in trainer.duo.nets]
    trainer.epoch(0)
    for net, pb, cb in zip(trainer.duo.nets, proj_before, cls_before):
        assert np.array_equal(net.proj.weights[0].data, pb)
        assert not np.array_equal(net.cls.weights[0].data, cb)


def test_sup_mode_trains_projection_head():
    ds = small_dataset()
    trainer = CodimTrainer(ds, small_config(mode="sup", pretrain_steps=5))
    trainer.prepare()
    proj_before = trainer.duo.net_a.proj.weights[0].data.copy()
    trainer.epoch(0)
    assert not np.array_equal(trainer.duo.net_a.proj.weights[0].data, proj_before)


@pytest.mark.parametrize("mode", ["bare", "self", "sup", "cssl"])
def test_all_modes_run_and_record(mode):
    ds = small_dataset()
    duo, record = train_codim(ds, small_config(mode=mode))
    assert len(record.rows) == 2
    assert record.best_acc >= record.last_acc or np.isclose(record.best_acc,
                                                            record.last_acc)
    if mode == "bare":
        assert all(r.loss_cl == 0.0 for r in record.rows)
    else:
        assert any(r.loss_cl != 0.0 for r in record.rows)


@pytest.mark.parametrize("mode, kinds", [("bare", []), ("self", ["self"]),
                                         ("sup", ["sup"]), ("cssl", ["sup", "self"])])
def test_contrastive_terms_rule(mode, kinds):
    ds = small_dataset()
    net = ModelTriple(small_config().arch(ds.dim, ds.num_classes), seed=0)
    x_lab, labels, x_unl = ds.x[:6], ds.noisy_labels[:6], ds.x[6:12]

    def expected(cfg, x_lab, x_unl):
        """(weight, value) of each kept term, its views drawn from a fresh rng."""
        rng, out = rng_for(5), []
        for kind in kinds:
            weight = cfg.lambda_sup if kind == "sup" else cfg.lambda_self
            rows = x_lab if kind == "sup" or mode == "self" else x_unl
            if weight == 0 or len(rows) < 2:
                continue
            views = make_view_batch(net, rows, cfg.aug, rng)
            loss = (sup_con_loss(views, labels[:len(rows)], cfg.tau3) if kind == "sup"
                    else self_con_loss(views, cfg.tau2))
            out.append((weight, loss.item()))
        return out

    cases = [(small_config(lambda_sup=0.5, lambda_self=2.0), x_lab, x_unl),
             (small_config(lambda_sup=0.0), x_lab, x_unl),  # zero weight: dropped
             (small_config(lambda_self=0.0), x_lab, x_unl),
             (small_config(), x_lab[:1], x_unl),  # one row: dropped
             (small_config(), x_lab, x_unl[:1])]
    for cfg, xl, xu in cases:
        got = _contrastive_terms(net, cfg, mode, xl, labels[:len(xl)], xu, rng_for(5))
        assert [(w, t.item()) for w, t in got] == expected(cfg, xl, xu)
    assert len(expected(*cases[0])) == len(kinds)


def test_train_codim_deterministic():
    ds = small_dataset()
    _, r1 = train_codim(ds, small_config())
    _, r2 = train_codim(ds, small_config())
    for a, b in zip(r1.rows, r2.rows):
        assert a == b
    _, r3 = train_codim(ds, small_config(seed=1))
    assert any(a != b for a, b in zip(r1.rows, r3.rows))


def test_codim_uses_pretrained_state_instead_of_pretraining():
    ds = small_dataset()
    cfg = small_config()
    m = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=cfg.seed)
    pretrain_selfcon(ds, m, cfg)
    trainer = CodimTrainer(ds, cfg, pretrained_state=m.state_dict())
    trainer.prepare()
    assert trainer.pretrain_losses == []
    # duo trunks start from the provided state (before warmup mutation they
    # would match; after warmup they must at least share the projector which
    # warmup never updates... projector IS updated only via contrastive, and
    # warmup trains full params; so compare against a fresh run instead)
    _, r1 = train_codim(ds, cfg, pretrained_state=m.state_dict())
    _, r2 = train_codim(ds, cfg, pretrained_state=m.state_dict())
    assert r1.rows == r2.rows


def test_run_record_header_matches_csv(tmp_path):
    ds = small_dataset()
    _, record = train_codim(ds, small_config())
    path = tmp_path / "metrics.csv"
    record.to_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == RUN_RECORD_HEADER


def test_post_warmup_and_final_consistency_populated():
    ds = small_dataset()
    trainer = CodimTrainer(ds, small_config())
    trainer.run()
    assert trainer.post_warmup_consistency is not None
    assert trainer.final_consistency is not None
    assert 0.0 <= trainer.post_warmup_consistency <= 1.0


def test_epoch_consistency_is_measured_on_a_fixed_row_subset():
    """Every epoch scores the first net on the same CONSISTENCY_ROWS sorted
    rows, drawn from the seed alone."""
    ds, cfg = wide_dataset(), small_config()
    rows = consistency_rows(cfg.seed, ds.n)
    assert len(rows) == trainers.CONSISTENCY_ROWS < ds.n
    assert np.all(np.diff(rows) > 0)
    assert np.array_equal(rows, consistency_rows(cfg.seed, ds.n))
    assert not np.array_equal(rows, consistency_rows(cfg.seed + 1, ds.n))
    trainer = CodimTrainer(ds, cfg)
    trainer.prepare()
    for epoch in range(cfg.epochs):
        row = trainer.epoch(epoch)
        want = consistency_metric(trainer.duo.net_a, ds.x[rows], cfg.aug,
                                  rng=trainers._rng(cfg.seed, 0xE5, epoch))
        assert row.consistency == want


def test_epoch_consistency_uses_every_row_of_a_small_set():
    ds, cfg = small_dataset(), small_config()
    assert ds.n <= trainers.CONSISTENCY_ROWS
    assert np.array_equal(consistency_rows(cfg.seed, ds.n), np.arange(ds.n))
    trainer = CodimTrainer(ds, cfg)
    trainer.prepare()
    for epoch in range(cfg.epochs):
        row = trainer.epoch(epoch)
        whole = consistency_metric(trainer.duo.net_a, ds.x, cfg.aug,
                                   rng=trainers._rng(cfg.seed, 0xE5, epoch))
        assert repr(row.consistency) == repr(whole)


def test_post_warmup_and_final_consistency_see_every_row(monkeypatch):
    ds, cfg = wide_dataset(), small_config()
    shapes, real = [], trainers.consistency_metric

    def metric(m, x, *args, **kwargs):
        shapes.append(x.shape)
        return real(m, x, *args, **kwargs)

    monkeypatch.setattr(trainers, "consistency_metric", metric)
    CodimTrainer(ds, cfg).run()
    whole, subset = ds.x.shape, (trainers.CONSISTENCY_ROWS, ds.dim)
    assert shapes == [whole] + [subset] * cfg.epochs + [whole]


def test_train_codim_skips_the_whole_set_consistency_pair(monkeypatch):
    """``train_codim`` returns no consistency pair, so it measures none: only
    the per-epoch subsets go through the metric, and its weights and record
    are those of ``CodimTrainer.run``, byte for byte."""
    ds, cfg = wide_dataset(), small_config()
    trainer = CodimTrainer(ds, cfg)
    run_duo, run_record = trainer.run()
    assert trainer.post_warmup_consistency is not None
    shapes, real = [], trainers.consistency_metric

    def metric(m, x, *args, **kwargs):
        shapes.append(x.shape)
        return real(m, x, *args, **kwargs)

    monkeypatch.setattr(trainers, "consistency_metric", metric)
    duo, record = train_codim(ds, cfg)
    assert shapes == [(trainers.CONSISTENCY_ROWS, ds.dim)] * cfg.epochs
    assert [repr(vars(r)) for r in record.rows] == [repr(vars(r)) for r in run_record.rows]
    for net, run_net in zip(duo.nets, run_duo.nets, strict=True):
        got, want = net.state_dict(), run_net.state_dict()
        assert got.keys() == want.keys()
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def _trained(model, record):
    """State dicts and every column but ``consistency`` of one training run."""
    nets = model.nets if isinstance(model, DuoModel) else (model,)
    columns = [{k: v for k, v in vars(r).items() if k != "consistency"} for r in record.rows]
    return [net.state_dict() for net in nets], columns


@pytest.mark.parametrize("train, mode", [(train_ce, "sup"), (train_cssl, "cssl"),
                                         (train_codim, "bare"), (train_codim, "self"),
                                         (train_codim, "sup"), (train_codim, "cssl")],
                         ids=["ce", "cssl", "codim-bare", "codim-self", "codim-sup",
                              "codim-cssl"])
def test_consistency_measurement_draws_nothing_from_training(monkeypatch, train, mode):
    """Stubbing the measurement out leaves every weight and every other
    column byte-equal, so it draws from no training stream."""
    ds, cfg = wide_dataset(), small_config(mode=mode)
    states, columns = _trained(*train(ds, cfg))
    monkeypatch.setattr(trainers, "_consistency", lambda *args, **kwargs: 0.25)
    stub_states, stub_columns = _trained(*train(ds, cfg))
    assert stub_columns == columns
    for got, want in zip(stub_states, states, strict=True):
        assert got.keys() == want.keys()
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_codim_epoch_predicts_an_exact_row_count(monkeypatch):
    """Rows through predict_proba in one co-divide epoch: both partitions
    (2n), both nets' test predictions, 9 consistency passes over
    CONSISTENCY_ROWS, and the label queries of the steps taken: num_augs
    weak views of the labeled rows for the own net and of the unlabeled rows
    for both nets."""
    ds = gen_blobs(BlobSpec(num_classes=4, dim=2, samples_per_class=750,
                            class_separation=3.0, seed=0))
    ds = ds.with_noise(NoiseSpec("symmetric", 0.3, seed=1, redraw_over_all=False))
    assert ds.n == 2000
    cfg = small_config(pretrain_steps=5, batch_size=64)
    trainer = CodimTrainer(ds, cfg)
    trainer.prepare()
    rows, queries = [], []
    real_predict, real_step = ModelTriple.predict_proba, trainers._mixmatch_step

    def predict(net, x):
        rows.append(len(x))
        return real_predict(net, x)

    def step(net, guessers, opt, cfg, mode, x_lab, labels, targets, x_unl, *rest):
        queries.append(cfg.ssl.num_augs * (len(x_lab) + len(guessers) * len(x_unl)))
        return real_step(net, guessers, opt, cfg, mode, x_lab, labels, targets, x_unl, *rest)

    monkeypatch.setattr(ModelTriple, "predict_proba", predict)
    monkeypatch.setattr(trainers, "_mixmatch_step", step)
    trainer.epoch(0)
    assert len(queries) == 2 * cfg.iters_per_epoch
    assert sum(rows) == (2 * ds.n + 2 * len(ds.test_x) + 9 * trainers.CONSISTENCY_ROWS
                         + sum(queries))


def test_epoch_accuracies_match_test_accuracy():
    """The epoch predicts test_x once per net; its ensemble accuracy is that
    of the mean of the two softmax outputs."""
    ds = small_dataset()
    trainer = CodimTrainer(ds, small_config())
    trainer.prepare()
    row = trainer.epoch(0)
    duo = trainer.duo
    for got, proba in ((row.test_acc_a, duo.net_a.predict_proba(ds.test_x)),
                       (row.test_acc_b, duo.net_b.predict_proba(ds.test_x)),
                       (row.test_acc_ens, mean_proba(duo, ds.test_x))):
        assert got == accuracy_of(proba, ds.test_labels)


@pytest.mark.parametrize("starved", [(0,), (0, 1)], ids=["net_a", "both"])
def test_skipped_codivide_step_moves_nothing_and_is_not_averaged(monkeypatch, starved):
    """A net whose partition has fewer than 2 clean rows takes no step and
    keeps its weights; the row's loss terms are means over the steps taken."""
    trainer = CodimTrainer(small_dataset(), small_config())
    trainer.prepare()
    nets = trainer.duo.nets
    real_partition, real_step = trainers.partition_by_losses, trainers._mixmatch_step

    def partition(peer, x, labels, threshold):
        j = 0 if peer is nets[1] else 1  # the net that trains on this partition
        if j not in starved:
            return real_partition(peer, x, labels, threshold)
        one_clean = np.zeros(len(x))
        one_clean[0] = 1.0
        return Partition.split(one_clean, threshold)

    taken = []

    def step(net, *args):
        losses = real_step(net, *args)
        taken.append((net, losses))
        return losses

    monkeypatch.setattr(trainers, "partition_by_losses", partition)
    monkeypatch.setattr(trainers, "_mixmatch_step", step)
    before = [net.state_dict() for net in nets]
    row = trainer.epoch(0)
    for j, net in enumerate(nets):
        kept = all(np.array_equal(v, before[j][k]) for k, v in net.state_dict().items())
        assert kept == (j in starved)
    assert [net for net, _ in taken] == [nets[1]] * (trainer.cfg.iters_per_epoch
                                                     * (2 - len(starved)))
    want = ([sum(col) / len(taken) for col in zip(*(losses for _, losses in taken))]
            if taken else [0.0] * 4)
    assert [row.loss_x, row.loss_u, row.loss_reg, row.loss_cl] == want


def test_cssl_guesses_labels_with_one_query_of_its_network(monkeypatch):
    queried, guesses = [], []
    real_predict, real_guess = ModelTriple.predict_proba, trainers.guess_labels

    def predict(net, x):
        queried.append(net)
        return real_predict(net, x)

    def guess(*args):
        start = len(queried)
        out = real_guess(*args)
        guesses.append(queried[start:])
        return out

    monkeypatch.setattr(ModelTriple, "predict_proba", predict)
    monkeypatch.setattr(trainers, "guess_labels", guess)
    ds = small_dataset(noisy=False)
    net, _ = train_cssl(ds, small_config(mode="cssl", pretrain_steps=0, epochs=1))
    assert guesses == [[net]] * 3


def test_train_ce_runs_and_is_deterministic():
    ds = small_dataset()
    cfg = small_config()
    _, r1 = train_ce(ds, cfg)
    _, r2 = train_ce(ds, cfg)
    assert r1.rows == r2.rows
    assert all(r.partition_auc == 0.5 for r in r1.rows)


def test_train_cssl_runs():
    ds = small_dataset(noisy=False)
    net, record = train_cssl(ds, small_config(mode="cssl"))
    assert len(record.rows) == 2
    assert record.best_acc > 0.3  # it learned something


def test_train_cssl_with_every_row_labeled(monkeypatch):
    """labeled_ratio = 1 leaves no unlabeled row: no label is guessed and
    the unlabeled loss term is 0."""
    def guess(*args):
        raise AssertionError("a label was guessed")

    monkeypatch.setattr(trainers, "guess_labels", guess)
    _, record = train_cssl(small_dataset(noisy=False),
                           small_config(mode="cssl", labeled_ratio=1.0))
    assert len(record.rows) == 2 and all(r.loss_u == 0.0 for r in record.rows)


@pytest.mark.parametrize("ratio", [0.0, -0.1, 1.5, float("nan")],
                         ids=["zero", "negative", "above-1", "nan"])
def test_train_cssl_rejects_bad_ratio_before_pretraining(monkeypatch, ratio):
    def pretrain(*args):
        raise AssertionError("pre-training ran")

    monkeypatch.setattr(trainers, "pretrain_selfcon", pretrain)
    with pytest.raises(ParameterError, match="labeled_ratio"):
        train_cssl(small_dataset(noisy=False), small_config(mode="cssl", labeled_ratio=ratio))


def test_label_correction_leaves_model_untouched():
    ds = small_dataset()
    cfg = small_config(label_correction_epochs=3)
    m = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=0)
    pretrain_selfcon(ds, m, cfg)
    before = {k: v.copy() for k, v in m.state_dict().items()}
    fixed = label_correction(ds, m, cfg)
    for k, v in m.state_dict().items():
        assert np.array_equal(v, before[k])
    assert fixed.n == ds.n
    assert np.array_equal(fixed.clean_labels, ds.clean_labels)


def test_label_correction_relabels_the_trainer_dataset():
    ds = small_dataset()
    cfg = small_config(label_correction=True, label_correction_epochs=3)
    trainer = CodimTrainer(ds, cfg)
    trainer.prepare()
    want = label_correction(ds, trainer.base, cfg).noisy_labels
    assert np.array_equal(trainer.dataset.noisy_labels, want)
    assert np.array_equal(trainer.dataset.clean_labels, ds.clean_labels)


def _step_inputs(mode, x_unl_nan=False):
    """A fresh network with its optimizer, a cross-entropy loss through the
    shared trunk and ``mode``'s weighted contrastive terms, drawn the same
    way on every call."""
    ds = small_dataset()
    cfg = small_config(mode=mode, lambda_sup=0.7, lambda_self=1.3)
    net = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=3)
    x_lab, labels, x_unl = ds.x[:12], ds.noisy_labels[:12], ds.x[12:28].copy()
    if x_unl_nan:
        x_unl[5] = np.nan
    loss = T.softmax_cross_entropy(net.forward_logits(x_lab), one_hot(labels, ds.num_classes))
    terms = _contrastive_terms(net, cfg, mode, x_lab, labels, x_unl, rng_for(0x57))
    return net, cfg.sgd(net.params()), loss, terms


@pytest.mark.parametrize("mode", ["bare", "sup", "cssl"], ids=["1", "2", "3"])
def test_step_with_terms_is_the_summed_graph(mode):
    """_step over 1, 2 or 3 loss terms, each term seeding its own backward
    pass, gives the value, gradients and updated parameters of one backward
    pass over the graph ``loss + scale(t1, w1) + scale(t2, w2)`` byte for
    byte, zero signs too; 3 is cssl's SupCon then SelfCon."""
    net, opt, loss, terms = _step_inputs(mode)
    assert len(terms) == {"bare": 0, "sup": 1, "cssl": 2}[mode]
    got = trainers._step(opt, loss, terms)
    ref_net, ref_opt, total, ref_terms = _step_inputs(mode)
    for weight, term in ref_terms:
        total = add(total, scale(term, weight))
    want = trainers._step(ref_opt, total)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    for (name, p), q in zip(net.params().items(), ref_net.params().values()):
        assert p.data.tobytes() == q.data.tobytes(), name
        if p.grad is None or q.grad is None:  # the projector, with no term
            assert p.grad is q.grad and name.startswith("proj"), name
            continue
        assert p.grad.tobytes() == q.grad.tobytes(), name
        assert np.array_equal(np.signbit(p.grad), np.signbit(q.grad)), name


def test_step_terms_on_one_shared_node_match_separate_forward_passes():
    """A term (weight 0.5) and a loss on one shared logits node, stepped by
    ``_step``, give the gradients and parameters of the same two losses on
    two forward passes, bit for bit: no backward pass adds on top of what
    the one before it left in the shared node."""
    ds = small_dataset()
    cfg = small_config()
    x, labels = ds.x[:12], ds.noisy_labels[:12]
    targets = [one_hot(labels, ds.num_classes),
               one_hot((labels + 1) % ds.num_classes, ds.num_classes)]
    results = []
    for shared in (True, False):
        net = ModelTriple(cfg.arch(ds.dim, ds.num_classes), seed=3)
        logits = net.forward_logits(x)
        term = T.softmax_cross_entropy(logits if shared else net.forward_logits(x), targets[1])
        trainers._step(cfg.sgd(net.params()), T.softmax_cross_entropy(logits, targets[0]),
                       [(0.5, term)])
        results.append(([p.grad.tobytes() for p in net.params("feat", "cls").values()],
                        [v.tobytes() for v in net.state_dict().values()]))
    assert results[0] == results[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_with_a_non_finite_term_moves_nothing():
    """A NaN term raises before any backward pass or parameter update."""
    net, opt, loss, terms = _step_inputs("cssl", x_unl_nan=True)
    assert np.isfinite(loss.item()) and np.isnan(terms[-1][1].item())
    before = {k: v.copy() for k, v in net.state_dict().items()}
    with pytest.raises(DegenerateInputError, match="training loss is nan"):
        trainers._step(opt, loss, terms)
    after = net.state_dict()
    assert all(after[k].tobytes() == v.tobytes() for k, v in before.items())
    assert all(p.grad is None for p in net.params().values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_loss_raises():
    # lr = 1e200 blows the parameters up within a few steps
    with pytest.raises(DegenerateInputError, match="training loss is"):
        train_ce(small_dataset(), small_config(lr=1e200))
