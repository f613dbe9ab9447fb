"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: enough primitives for MLPs, InfoNCE-style losses and the
semi-supervised objectives used elsewhere in the package. Graphs are built
eagerly; ``backward()`` runs a single reverse topological sweep and
accumulates into zero-initialized ``grad`` buffers, so parameter sharing
between heads works out of the box.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DimensionError, ContractError

EPS_NORM = 1e-12


class Tensor:
    """A node in the computation graph.

    ``data`` is a row-major float64 ndarray, ``grad`` (same shape) is
    allocated lazily by ``backward``. Leaf tensors created with
    ``requires_grad=True`` act as parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return self.data.item()

    def backward(self):
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        order = []
        _post_order(self, set(), order)
        for node in order:
            if node.requires_grad and node.grad is None:
                node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, scale(_wrap(other), -1.0))


def _post_order(node: Tensor, seen: set, order: list):
    """Append ``node``'s graph to ``order``, parents first. Not a closure: a
    recursive closure is a reference cycle that keeps the whole graph alive
    until the cyclic garbage collector runs."""
    if node in seen:
        return
    seen.add(node)
    for p in node._parents:
        _post_order(p, seen, order)
    order.append(node)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out_data = a.data + b.data
    except ValueError as exc:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return Tensor(out_data, parents=(a, b), backward=backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    try:
        out_data = a.data * b.data
    except ValueError as exc:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(g):
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return Tensor(out_data, parents=(a, b), backward=backward)


def scale(a, c: float) -> Tensor:
    a = _wrap(a)
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.grad += g * c

    return Tensor(a.data * c, parents=(a,), backward=backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return Tensor(out_data, parents=(a, b), backward=backward)


def transpose(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if a.requires_grad:
            a.grad += g.T

    return Tensor(a.data.T, parents=(a,), backward=backward)


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0.0

    def backward(g):
        if a.requires_grad:
            a.grad += g * mask

    return Tensor(a.data * mask, parents=(a,), backward=backward)


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            a.grad += g * out_data

    return Tensor(out_data, parents=(a,), backward=backward)


def log(a) -> Tensor:
    a = _wrap(a)

    def backward(g):
        if a.requires_grad:
            a.grad += g / a.data

    return Tensor(np.log(a.data), parents=(a,), backward=backward)


def pow_const(a, c: float) -> Tensor:
    a = _wrap(a)
    c = float(c)

    def backward(g):
        if a.requires_grad:
            a.grad += g * c * np.power(a.data, c - 1.0)

    return Tensor(np.power(a.data, c), parents=(a,), backward=backward)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                a.grad += np.broadcast_to(g, a.data.shape)
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                a.grad += np.broadcast_to(gg, a.data.shape)

    return Tensor(out_data, parents=(a,), backward=backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def gather_rows(a, idx) -> Tensor:
    """Select rows of a 2-D tensor by index array."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.intp)

    def backward(g):
        if a.requires_grad:
            np.add.at(a.grad, idx, g)

    return Tensor(a.data[idx], parents=(a,), backward=backward)


def logsumexp_rows(a, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise log-sum-exp, optionally restricted to ``mask`` (constant 0/1).

    Stabilized by subtracting the per-row max over the allowed entries; the
    max is treated as a constant, which leaves both the value and the
    gradient exact.
    """
    a = _wrap(a)
    if a.data.ndim != 2:
        raise DimensionError("logsumexp_rows expects a 2-D tensor")
    if mask is None:
        keep = np.ones(a.data.shape, dtype=bool)
    else:
        keep = np.asarray(mask) > 0
    if not keep.any(axis=1).all():
        raise DegenerateInputError("logsumexp_rows: a row has no allowed entries")
    masked = np.where(keep, a.data, -np.inf)
    m = masked.max(axis=1, keepdims=True)
    weights = np.where(keep, np.exp(masked - m), 0.0)
    out_data = m + np.log(weights.sum(axis=1, keepdims=True))

    def backward(g):
        if a.requires_grad:
            soft = np.where(keep, np.exp(masked - out_data), 0.0)
            a.grad += g * soft

    return Tensor(out_data, parents=(a,), backward=backward)


def softmax_rows(logits) -> Tensor:
    """Numerically stabilized row-wise softmax."""
    logits = _wrap(logits)
    lse = logsumexp_rows(logits)
    return exp(logits - lse)


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean over rows of -sum_c target_c * log softmax(logits)_c.

    ``targets`` are probability rows (each must sum to 1 within 1e-6) and are
    treated as constants.
    """
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.float64)
    if logits.data.shape != targets.shape:
        raise DimensionError(
            f"softmax_cross_entropy: logits {logits.shape} vs targets {targets.shape}"
        )
    if logits.data.shape[0] < 1:
        raise DegenerateInputError("softmax_cross_entropy: empty batch")
    row_sums = targets.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ContractError("softmax_cross_entropy: target rows must sum to 1")
    lse = logsumexp_rows(logits)
    # -sum_c t_c (logit_c - lse) per row, then batch mean
    per_row = tsum(mul(Tensor(targets), add(lse, scale(logits, -1.0))), axis=1)
    return tmean(per_row)


def l2_normalize(v) -> Tensor:
    """Normalize each row to unit Euclidean norm; rejects near-zero rows."""
    v = _wrap(v)
    if v.data.ndim != 2:
        raise DimensionError("l2_normalize expects a 2-D tensor")
    norms = np.sqrt((v.data ** 2).sum(axis=1))
    if np.any(norms < EPS_NORM):
        raise DegenerateInputError(f"l2_normalize: row norm below {EPS_NORM}")
    sq = tsum(mul(v, v), axis=1, keepdims=True)
    inv = pow_const(sq, -0.5)
    return mul(v, inv)


class SGD:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.9,
                 weight_decay: float = 5e-4):
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad + self.weight_decay * p.data
            v = self.velocity[name]
            v *= self.momentum
            v += g
            p.data -= self.lr * v
