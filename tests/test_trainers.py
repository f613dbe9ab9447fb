"""Training orchestration: phase wiring, mode semantics, determinism."""

import numpy as np
import pytest

from codim.data import BlobSpec, gen_blobs
from codim.errors import DegenerateInputError, ParameterError
from codim.models import ModelTriple
from codim.noise import NoiseSpec
from codim.trainers import (RUN_RECORD_HEADER, CodimTrainer, TrainConfig,
                            label_correction, pretrain_selfcon, train_ce,
                            train_codim, train_cssl, warmup)
from codim.models import DuoModel

from conftest import rng_for


def small_dataset(seed=0, noisy=True):
    ds = gen_blobs(BlobSpec(num_classes=3, dim=2, samples_per_class=60,
                            class_separation=3.0, seed=seed))
    if noisy:
        ds = ds.with_noise(NoiseSpec("symmetric", 0.3, seed=seed + 1,
                                     redraw_over_all=False))
    return ds


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
    for threshold in (1.5, -0.1):
        with pytest.raises(ParameterError, match="gmm_threshold"):
            TrainConfig(gmm_threshold=threshold)


def test_lr_schedule():
    cfg = TrainConfig(lr=0.1, epochs=10, lr_drop_epoch=-1, lr_drop_factor=10.0)
    assert cfg.lr_at(4) == 0.1
    assert cfg.lr_at(5) == pytest.approx(0.01)  # default drop at epochs // 2
    cfg2 = TrainConfig(lr=0.1, epochs=10, lr_drop_epoch=3, lr_drop_factor=2.0)
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
    from codim.metrics import test_accuracy
    before = test_accuracy(duo.ensemble_proba, ds.test_x, ds.test_labels)
    warmup(ds, duo, 5, cfg)
    after = test_accuracy(duo.ensemble_proba, ds.test_x, ds.test_labels)
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


def test_train_ce_runs_and_is_deterministic():
    ds = small_dataset()
    cfg = small_config()
    _, r1 = train_ce(ds, cfg)
    _, r2 = train_ce(ds, cfg)
    assert r1.rows == r2.rows
    assert all(r.partition_auc == 0.5 for r in r1.rows)


def test_train_cssl_runs():
    ds = small_dataset(noisy=False)
    mask = np.zeros(ds.n, dtype=bool)
    mask[rng_for(9).choice(ds.n, size=ds.n // 5, replace=False)] = True
    net, record = train_cssl(ds, mask, small_config(mode="cssl"))
    assert len(record.rows) == 2
    assert record.best_acc > 0.3  # it learned something


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_loss_raises():
    # lr = 1e200 blows the parameters up within a few steps
    with pytest.raises(DegenerateInputError, match="training loss is"):
        train_ce(small_dataset(), small_config(lr=1e200))
