"""Synthetic dataset generators: class balance, separability, determinism."""

import struct

import numpy as np
import pytest

from codim.data import IDX_IMAGES_MAGIC, BlobSpec, _read_idx, blob_means, gen_blobs
from codim.errors import IdxParseError, ParameterError
from codim.noise import NoiseSpec


def test_blob_shapes_and_balance():
    ds = gen_blobs(BlobSpec(num_classes=4, dim=2, samples_per_class=300, seed=0))
    assert ds.n == 800 and len(ds.test_labels) == 400
    assert ds.dim == 2 and ds.num_classes == 4
    # stratified 2:1 split keeps classes balanced on both sides
    assert np.array_equal(np.bincount(ds.clean_labels), [200] * 4)
    assert np.array_equal(np.bincount(ds.test_labels), [100] * 4)
    assert np.array_equal(ds.noisy_labels, ds.clean_labels)
    assert not ds.flip_mask.any()


def test_blob_means_layout():
    means = blob_means(4, 2, 3.0)
    assert np.allclose(np.linalg.norm(means, axis=1), 3.0)
    assert np.allclose(means[0], [3.0, 0.0])
    line = blob_means(3, 1, 2.0)
    assert np.allclose(line[:, 0], [0.0, 2.0, 4.0])


def test_blobs_nearest_mean_classifies_when_separated():
    spec = BlobSpec(num_classes=4, dim=2, samples_per_class=500,
                    class_separation=6.0, intra_std=1.0, seed=1)
    ds = gen_blobs(spec)
    means = blob_means(4, 2, 6.0)
    d = ((ds.x[:, None, :] - means[None]) ** 2).sum(axis=2)
    acc = (np.argmin(d, axis=1) == ds.clean_labels).mean()
    assert acc > 0.99


def test_blobs_deterministic():
    a = gen_blobs(BlobSpec(seed=7))
    b = gen_blobs(BlobSpec(seed=7))
    c = gen_blobs(BlobSpec(seed=8))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.test_x, b.test_x)
    assert not np.array_equal(a.x, c.x)


def test_blob_spec_validation():
    with pytest.raises(ParameterError):
        BlobSpec(class_separation=0.0)
    with pytest.raises(ParameterError):
        BlobSpec(intra_std=-1.0)
    with pytest.raises(ParameterError):
        BlobSpec(intra_std=float("nan"))
    for name in ("class_separation", "intra_std"):
        with pytest.raises(ParameterError, match=f"{name} = inf must be finite"):
            BlobSpec(**{name: float("inf")})
    for name in ("num_classes", "dim"):
        with pytest.raises(ParameterError, match=f"{name} = 0 must be >= 1"):
            BlobSpec(**{name: 0})
    for bad in (0, 1, 2):
        with pytest.raises(ParameterError, match=f"samples_per_class = {bad} must be >= 3"):
            BlobSpec(samples_per_class=bad)
    with pytest.raises(ParameterError, match="seed = -1"):
        BlobSpec(seed=-1)


def test_with_noise_and_with_labels_bookkeeping():
    ds = gen_blobs(BlobSpec(seed=2))
    noisy = ds.with_noise(NoiseSpec("symmetric", 0.4, seed=1, redraw_over_all=False))
    assert noisy.flip_mask.sum() == round(0.4 * ds.n)
    assert np.array_equal(noisy.clean_labels, ds.clean_labels)
    assert (noisy.noisy_labels[noisy.flip_mask]
            != noisy.clean_labels[noisy.flip_mask]).all()
    relabeled = noisy.with_labels(noisy.clean_labels)
    assert not relabeled.flip_mask.any()


def test_idx_header_whose_size_overflows_int64_is_truncated(tmp_path):
    """dims whose product is 2**64 wrap to 0 in int64; the parser must count
    the payload exactly and report it missing."""
    path = tmp_path / "huge.idx"
    path.write_bytes(struct.pack(">4I", IDX_IMAGES_MAGIC, 2 ** 21, 2 ** 21, 2 ** 22))
    with pytest.raises(IdxParseError, match="truncated payload at offset 16"):
        _read_idx(path, IDX_IMAGES_MAGIC)
