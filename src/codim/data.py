"""Synthetic dataset generation, IDX ingestion and noise bookkeeping.

All generators are pure functions of their parameter dataclass; randomness
comes from PCG64 seeded by its seed field, so identical parameters give
identical datasets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import IdxParseError, ParameterError
from .noise import NoiseSpec, inject_noise

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    x: np.ndarray
    clean_labels: np.ndarray
    noisy_labels: np.ndarray
    flip_mask: np.ndarray
    test_x: np.ndarray
    test_labels: np.ndarray
    num_classes: int

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def with_noise(self, spec: NoiseSpec) -> "Dataset":
        noisy, flip = inject_noise(self.clean_labels, self.num_classes, spec)
        return replace(self, noisy_labels=noisy, flip_mask=flip)

    def with_labels(self, new_labels: np.ndarray) -> "Dataset":
        new_labels = np.asarray(new_labels, dtype=np.intp)
        return replace(self, noisy_labels=new_labels,
                       flip_mask=new_labels != self.clean_labels)


@dataclass
class BlobSpec:
    num_classes: int = 4
    dim: int = 2
    samples_per_class: int = 750
    class_separation: float = 3.0
    intra_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.class_separation <= 0 or self.intra_std <= 0:
            raise ParameterError("class_separation and intra_std must be positive")


def blob_means(num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic placement: class means on a circle of radius ``separation``
    in the first two coordinates (on a line when dim == 1)."""
    means = np.zeros((num_classes, dim))
    if dim == 1:
        means[:, 0] = separation * np.arange(num_classes)
    else:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means[:, 0] = separation * np.cos(angles)
        means[:, 1] = separation * np.sin(angles)
    return means


def _clean(x, labels, test_x, test_labels, num_classes: int) -> Dataset:
    """A Dataset whose training labels are all still clean."""
    return Dataset(x=x, clean_labels=labels, noisy_labels=labels.copy(),
                   flip_mask=np.zeros(len(labels), dtype=bool),
                   test_x=test_x, test_labels=test_labels, num_classes=num_classes)


def _shuffled_split(xs, ys, num_classes: int, rng: np.random.Generator) -> Dataset:
    """Permute the concatenated per-class rows, then split each class 2:1
    into train/test, class by class in permuted order."""
    x, labels = np.concatenate(xs), np.concatenate(ys)
    perm = rng.permutation(len(labels))
    x, labels = x[perm], labels[perm]
    train_idx, test_idx = [], []
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        n_train = int(np.ceil(2 * len(idx) / 3))
        train_idx.extend(idx[:n_train])
        test_idx.extend(idx[n_train:])
    train_idx = np.array(train_idx, dtype=np.intp)
    test_idx = np.array(test_idx, dtype=np.intp)
    return _clean(x[train_idx], labels[train_idx], x[test_idx], labels[test_idx],
                  num_classes)


def gen_blobs(spec: BlobSpec) -> Dataset:
    """Gaussian clouds around deterministically placed class means."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    means = blob_means(spec.num_classes, spec.dim, spec.class_separation)
    xs, ys = [], []
    for c in range(spec.num_classes):
        xs.append(means[c] + rng.normal(0.0, spec.intra_std,
                                        size=(spec.samples_per_class, spec.dim)))
        ys.append(np.full(spec.samples_per_class, c, dtype=np.intp))
    return _shuffled_split(xs, ys, spec.num_classes, rng)


@dataclass
class RingSpec:
    num_classes: int = 2
    samples_per_class: int = 300
    base_radius: float = 1.0
    radius_step: float = 1.0
    radial_std: float = 0.1
    seed: int = 0


def gen_rings(spec: RingSpec) -> Dataset:
    """Concentric 2-D annuli; not linearly separable in raw coordinates."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    xs, ys = [], []
    for c in range(spec.num_classes):
        radius = spec.base_radius + c * spec.radius_step
        theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.samples_per_class)
        r = radius + rng.normal(0.0, spec.radial_std, size=spec.samples_per_class)
        xs.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1))
        ys.append(np.full(spec.samples_per_class, c, dtype=np.intp))
    return _shuffled_split(xs, ys, spec.num_classes, rng)


def _read_idx(path, expected_magic: int):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise IdxParseError(f"{path}: truncated magic at offset 0")
    (magic,) = struct.unpack_from(">I", blob, 0)
    if magic != expected_magic:
        raise IdxParseError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, expected 0x{expected_magic:08x}")
    ndim = magic & 0xFF
    header_end = 4 + 4 * ndim
    if len(blob) < header_end:
        raise IdxParseError(f"{path}: truncated dimension sizes at offset 4")
    dims = struct.unpack_from(f">{ndim}I", blob, 4)
    count = int(np.prod(dims)) if ndim else 0
    if len(blob) < header_end + count:
        raise IdxParseError(f"{path}: truncated payload at offset {header_end}")
    data = np.frombuffer(blob, dtype=np.uint8, count=count, offset=header_end)
    return data.reshape(dims)


def write_idx_images(path, images: np.ndarray):
    """Inverse of the image reader, for fixtures and round-trip checks."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", IDX_IMAGES_MAGIC))
        fh.write(struct.pack(">3I", *images.shape))
        fh.write(images.tobytes(order="C"))


def write_idx_labels(path, labels: np.ndarray):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", IDX_LABELS_MAGIC))
        fh.write(struct.pack(">I", labels.shape[0]))
        fh.write(labels.tobytes(order="C"))


def _avg_pool(images: np.ndarray, out_side: int) -> np.ndarray:
    n, h, w = images.shape
    if h % out_side or w % out_side:
        raise ParameterError(f"cannot pool {h}x{w} down to {out_side}x{out_side}")
    fh, fw = h // out_side, w // out_side
    return images.reshape(n, out_side, fh, out_side, fw).mean(axis=(2, 4))


def load_idx(images_path, labels_path, max_samples: int | None = None,
             downsample_to: int | None = None) -> Dataset:
    """Load IDX image/label files into a Dataset.

    Pixels are scaled to [0, 1] and optionally average-pool downsampled.
    Every third sample goes to the test split (deterministic, file order).
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC).astype(np.intp)
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    if max_samples is not None:
        images, labels = images[:max_samples], labels[:max_samples]
    x = images.astype(np.float64) / 255.0
    if downsample_to is not None and len(x):
        x = _avg_pool(x, downsample_to)
    x = x.reshape(x.shape[0], -1)
    num_classes = int(labels.max()) + 1 if len(labels) else 0
    test_sel = np.zeros(len(labels), dtype=bool)
    test_sel[2::3] = True
    return _clean(x[~test_sel], labels[~test_sel], x[test_sel], labels[test_sel],
                  num_classes)
