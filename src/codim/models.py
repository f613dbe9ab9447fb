"""Encoder / projector / classifier triple and the two-network ensemble.

The feature extractor is the single shared trunk: the classification head
and the projection head both read its output, so one backward pass through
either head populates trunk gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import CheckpointError, DimensionError
from .tensor import Tensor

# Rows per block in predict_proba. A block's 64-wide activation is 64 KiB,
# small enough for the allocator to reuse it from block to block; a
# whole-set pass allocates megabytes the allocator gives back to the system
# afterwards, so the next pass page-faults them all in again.
EVAL_BLOCK_ROWS = 128


def kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Mlp:
    """Stack of linear layers; ReLU after every layer except optionally the last."""

    def __init__(self, sizes: list[int], rng: np.random.Generator,
                 final_relu: bool = False):
        self.final_relu = final_relu
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            self.weights.append(Tensor(kaiming_uniform(rng, fan_in, fan_out),
                                       requires_grad=True))
            # nonzero bias init keeps fully-masked (all-zero) inputs from
            # collapsing to an exactly-zero projection row
            bound = 1.0 / np.sqrt(fan_in)
            self.biases.append(Tensor(rng.uniform(-bound, bound, size=fan_out),
                                      requires_grad=True))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.matmul(h, w, bias=b, relu=i < last or self.final_relu)
        return h

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward for evaluation paths."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = T._linear(x, w.data, b.data, i < last or self.final_relu)
        return x

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.{i}.w"] = w
            out[f"{prefix}.{i}.b"] = b
        return out


@dataclass
class Arch:
    """Layer widths for the three heads; ``TrainConfig.arch`` fills them in."""

    input_dim: int
    num_classes: int
    feat_hidden: tuple[int, ...]
    proj_hidden: int
    proj_dim: int

    @property
    def repr_dim(self) -> int:
        return self.feat_hidden[-1]


class ModelTriple:
    """Feature extractor + projection head + classification head."""

    def __init__(self, arch: Arch, seed: int):
        self.arch = arch
        rng = np.random.Generator(np.random.PCG64(seed))
        self.feat = Mlp([arch.input_dim, *arch.feat_hidden], rng, final_relu=True)
        self.proj = Mlp([arch.repr_dim, arch.proj_hidden, arch.proj_dim], rng)
        self.cls = Mlp([arch.repr_dim, arch.num_classes], rng)

    def _check_input(self, x: np.ndarray):
        dim = np.shape(x)[1]
        if dim != self.arch.input_dim:
            raise DimensionError(
                f"input has {dim} columns, model expects {self.arch.input_dim}")

    def forward_features(self, x: np.ndarray) -> Tensor:
        self._check_input(x)
        return self.feat.forward(Tensor(x))

    def forward_projection(self, x: np.ndarray) -> Tensor:
        """Unit-norm projected vectors z = normalize(Proj(F(x)))."""
        r = self.forward_features(x)
        return T.l2_normalize(self.proj.forward(r))

    def forward_logits(self, x: np.ndarray) -> Tensor:
        r = self.forward_features(x)
        return self.cls.forward(r)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Graph-free softmax probabilities, for evaluation and label queries.

        Runs ``EVAL_BLOCK_ROWS`` rows at a time into one preallocated output,
        with the arithmetic of a whole-set pass in the same order."""
        self._check_input(x)
        out = np.empty((len(x), self.arch.num_classes))
        for start in range(0, len(x), EVAL_BLOCK_ROWS):
            rows = slice(start, start + EVAL_BLOCK_ROWS)
            T._softmax(self.cls.forward_np(self.feat.forward_np(x[rows])), out=out[rows])
        return out

    def params(self, *heads: str) -> dict[str, Tensor]:
        """Parameters of the named heads, all three ("feat", "proj", "cls") by default."""
        out = {}
        for head in heads or ("feat", "proj", "cls"):
            out.update(getattr(self, head).params(head))
        return out

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params().items()}

    def load_state_dict(self, values: dict[str, np.ndarray]):
        """Copy ``values`` into the parameters; they must match by name and
        shape, else CheckpointError names the first one that does not."""
        params = self.params()
        for name in {**params, **values}:
            if name not in values:
                raise CheckpointError(f"checkpoint lacks parameter {name!r}")
            if name not in params:
                raise CheckpointError(f"checkpoint has unexpected parameter {name!r}")
            if np.shape(values[name]) != params[name].data.shape:
                raise CheckpointError(
                    f"parameter {name!r} has shape {np.shape(values[name])} in the "
                    f"checkpoint, model expects {params[name].data.shape}")
        for name, p in params.items():
            p.data = np.array(values[name])

    def reinit_classifier(self, seed: int) -> "ModelTriple":
        """Copy with the trunk and projector bit-identical and a fresh classifier."""
        other = ModelTriple(self.arch, seed=0)
        other.load_state_dict(self.state_dict())
        rng = np.random.Generator(np.random.PCG64(seed))
        other.cls = Mlp([self.arch.repr_dim, self.arch.num_classes], rng)
        return other


@dataclass
class DuoModel:
    """Two architecturally identical networks trained in a co-divide loop."""

    net_a: ModelTriple
    net_b: ModelTriple

    @classmethod
    def from_pretrained(cls, base: ModelTriple, seed_a: int, seed_b: int) -> "DuoModel":
        return cls(base.reinit_classifier(seed_a), base.reinit_classifier(seed_b))

    @property
    def nets(self):
        return (self.net_a, self.net_b)
