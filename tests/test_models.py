"""Model triple wiring, graph-free forward equivalence, checkpoint format."""

import numpy as np
import pytest

from codim.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from codim.errors import CheckpointError, DimensionError
from codim.models import Arch, DuoModel, Mlp, ModelTriple
from codim.tensor import Tensor

from conftest import rng_for


def make_model(seed=0):
    return ModelTriple(Arch(input_dim=3, num_classes=4,
                            feat_hidden=(8, 6), proj_hidden=5, proj_dim=4),
                       seed=seed)


def test_shapes_and_param_names():
    m = make_model()
    params = m.params()
    assert params["feat.0.w"].data.shape == (3, 8)
    assert params["feat.1.w"].data.shape == (8, 6)
    assert params["proj.0.w"].data.shape == (6, 5)
    assert params["proj.1.w"].data.shape == (5, 4)
    assert params["cls.0.w"].data.shape == (6, 4)
    for heads, left_out in ((("feat", "proj"), "cls"), (("feat", "cls"), "proj")):
        assert list(m.params(*heads)) == [k for k in params if not k.startswith(left_out)]


def test_forward_np_matches_graph_forward():
    m = make_model()
    x = rng_for(1).normal(size=(7, 3))
    graph = m.forward_logits(Tensor(x)).data
    plain = m.cls.forward_np(m.feat.forward_np(x))
    assert np.array_equal(graph, plain)
    feats = m.forward_features(x).data
    assert np.array_equal(feats, m.feat.forward_np(x))


def test_forward_projection_unit_rows():
    m = make_model()
    z = m.forward_projection(rng_for(2).normal(size=(6, 3))).data
    assert np.allclose((z ** 2).sum(axis=1), 1.0, atol=1e-12)


def test_predict_proba_rows_sum_to_one():
    m = make_model()
    p = m.predict_proba(rng_for(3).normal(size=(9, 3)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()


def test_input_dimension_checked():
    m = make_model()
    with pytest.raises(DimensionError):
        m.forward_logits(np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        m.predict_proba(np.zeros((2, 5)))


def test_seed_determinism_and_divergence():
    a, b, c = make_model(0), make_model(0), make_model(1)
    x = rng_for(4).normal(size=(5, 3))
    assert np.array_equal(a.predict_proba(x), b.predict_proba(x))
    assert not np.array_equal(a.predict_proba(x), c.predict_proba(x))


def test_state_dict_round_trip():
    a, b = make_model(0), make_model(5)
    b.load_state_dict(a.state_dict())
    x = rng_for(5).normal(size=(4, 3))
    assert np.array_equal(a.predict_proba(x), b.predict_proba(x))


def test_reinit_classifier_keeps_trunk_bits():
    m = make_model(0)
    fresh = m.reinit_classifier(seed=99)
    for name, p in m.params("feat", "proj").items():
        assert np.array_equal(p.data, fresh.params("feat", "proj")[name].data)
    assert not np.array_equal(m.cls.weights[0].data, fresh.cls.weights[0].data)
    # mutating the copy must not touch the original
    fresh.feat.weights[0].data[:] = 0.0
    assert not np.array_equal(m.feat.weights[0].data,
                              fresh.feat.weights[0].data)


def test_duo_ensemble_is_mean():
    duo = DuoModel(make_model(0), make_model(1))
    x = rng_for(6).normal(size=(5, 3))
    want = 0.5 * (duo.net_a.predict_proba(x) + duo.net_b.predict_proba(x))
    assert np.array_equal(duo.ensemble_proba(x), want)


def test_mlp_bias_keeps_zero_input_off_zero():
    mlp = Mlp([3, 4], rng_for(7))
    out = mlp.forward_np(np.zeros((2, 3)))
    assert (np.abs(out) > 0).any()


# ------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = make_model(0)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, m.state_dict())
    loaded = load_checkpoint(path)
    for name, arr in m.state_dict().items():
        assert arr.dtype == np.float64
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].tobytes() == arr.tobytes()  # bit-exact


def test_checkpoint_save_load_save_identical_bytes(tmp_path):
    m = make_model(3)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, m.state_dict())
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_header(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.zeros((2, 3))})
    blob = path.read_bytes()
    assert blob[:4] == MAGIC


def test_checkpoint_corruption_errors(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3)})
    blob = path.read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(bad)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError, match="truncated payload"):
        load_checkpoint(cut)


def test_load_state_dict_names_mismatched_parameter():
    m = make_model(0)
    before = m.state_dict()
    state = make_model(1).state_dict()
    missing = {k: v for k, v in state.items() if k != "proj.1.b"}
    with pytest.raises(CheckpointError, match="lacks parameter 'proj.1.b'"):
        m.load_state_dict(missing)
    with pytest.raises(CheckpointError, match="unexpected parameter 'extra.0.w'"):
        m.load_state_dict({**state, "extra.0.w": np.zeros(2)})
    wrong = {**state, "feat.1.w": np.zeros((8, 8))}
    with pytest.raises(CheckpointError, match=r"'feat.1.w' has shape \(8, 8\)"):
        m.load_state_dict(wrong)
    # a rejected state dict leaves the model untouched
    for name, value in m.state_dict().items():
        assert np.array_equal(value, before[name])
