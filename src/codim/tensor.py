"""Dense float64 tensors with reverse-mode automatic differentiation.

Small by design: one node per fused op, each with a hand-derived backward,
for exactly the MLP layers and losses used elsewhere in the package.
Graphs are built eagerly; ``backward()`` runs a single reverse topological
sweep. Gradients are allocated lazily and summed into fresh arrays, never
written in place: a node may be handed a backward seed, or in the tests'
reference nodes a buffer shared with another parent. ``SGD`` updates each
parameter in place through its velocity and one scratch array of its shape,
so no step makes parameter-sized temporaries for the kernel to fault in anew.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError, DimensionError, ContractError

EPS_NORM = 1e-12
_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A node in the computation graph.

    ``data`` is a native float64 ndarray (a float64 one is kept as given,
    strided or not), ``grad`` (same shape) is allocated lazily by
    ``backward``. Leaf tensors created with
    ``requires_grad=True`` act as parameters.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        # np.asarray returns a native float64 ndarray as it is: skip the call
        if type(data) is not np.ndarray or data.dtype is not _FLOAT64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.grad = None
        if not requires_grad:
            for p in parents:
                if p.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return self.data.item()

    def backward(self, seed: float = 1.0):
        """Add the gradient of ``seed * self`` to every node that requires
        one, on top of what earlier passes left in the leaves' ``grad``."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar output")
        order = []
        _post_order(self, set(), order)
        self.grad = np.full(self.data.shape, seed, dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


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


def _accumulate(t: Tensor, g: np.ndarray):
    """Add ``g`` to ``t.grad`` without writing into either array."""
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _check_rows(name: str, logits: np.ndarray, targets: np.ndarray):
    """A non-empty 2-D batch with ``targets`` of the same shape."""
    if logits.ndim != 2 or logits.shape != targets.shape:
        raise DimensionError(f"{name}: logits {logits.shape} vs targets {targets.shape}")
    if logits.shape[0] < 1:
        raise DegenerateInputError(f"{name}: empty batch")


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax of ``logits``, written into ``out`` if given."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return np.divide(e, e.sum(axis=1, keepdims=True), out=out)


def _linear(h: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """``h @ w``, plus ``b`` on every row, then ReLU if ``relu``: the forward
    arithmetic of one layer, with and without a graph."""
    out = h @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    return out


def _softmax_backward(p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the logits of a row-wise softmax ``p`` given ``dp``."""
    return p * (dp - (dp * p).sum(axis=1, keepdims=True))


def matmul(a, b, bias, relu: bool = False) -> Tensor:
    """``a @ b``, plus the 1-D ``bias`` on every row, then ReLU if ``relu``:
    one linear layer as one node."""
    a, b, bias = _wrap(a), _wrap(b), _wrap(bias)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    if bias.data.shape != (b.data.shape[1],):
        raise DimensionError(f"matmul: bias {bias.shape} for {b.data.shape[1]} outputs")
    out_data = _linear(a.data, b.data, bias.data, relu)

    def backward(g):
        if relu:
            g = g * (out_data > 0.0)
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)
        _accumulate(bias, g.sum(axis=0))

    return Tensor(out_data, parents=(a, b, bias), backward=backward)


def _cross_entropy(name: str, logits: np.ndarray, targets: np.ndarray):
    """``softmax_cross_entropy`` on arrays: its value, and its gradient as a
    function of the upstream gradient."""
    _check_rows(name, logits, targets)
    row_sums = targets.sum(axis=1, keepdims=True)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ContractError(f"{name}: target rows must sum to 1")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    value = ((row_sums * np.log(s)).sum() - (targets * shifted).sum()) / n
    return value, lambda g: (e / s * row_sums - targets) * (g / n)


def softmax_cross_entropy(logits, targets) -> Tensor:
    """Mean over rows of -sum_c target_c * log softmax(logits)_c.

    ``targets`` are probability rows (each must sum to 1 within 1e-6) and are
    treated as constants. The log-sum-exp is stabilized by the row max.
    """
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.float64)
    value, grad = _cross_entropy("softmax_cross_entropy", logits.data, targets)

    def backward(g):
        _accumulate(logits, grad(g))

    return Tensor(value, parents=(logits,), backward=backward)


def mixmatch_loss(logits, targets, is_labeled, lambda_u: float, lambda_r: float):
    """MixMatch's objective Lx + lambda_u Lu + lambda_r Lreg as one node, with
    constant ``targets``: Lx the cross-entropy of the ``is_labeled`` rows
    (whose targets must sum to 1), Lu the mean squared error of the other
    rows' softmax (0 with none), Lreg = KL(uniform || mean softmax over all
    rows), which keeps the mean prediction from collapsing onto few classes.
    Returns the floats Lx, Lu, Lreg and the total's node."""
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.float64)
    lab = np.asarray(is_labeled, dtype=bool)
    _check_rows("mixmatch_loss", logits.data, targets)
    n, c = logits.data.shape
    if lab.shape != (n,):
        raise DimensionError(f"mixmatch_loss: is_labeled {lab.shape} for {n} rows")
    if not lab.any():
        raise DegenerateInputError("mixmatch_loss: batch has no labeled rows")
    unl = ~lab
    lx, lx_grad = _cross_entropy("mixmatch_loss", logits.data[lab], targets[lab])
    p = _softmax(logits.data)
    diff = p[unl] - targets[unl]
    lu = (diff * diff).mean() if diff.size else 0.0
    mean_p = p.mean(axis=0)
    prior = 1.0 / c
    lreg = (prior * (np.log(prior) - np.log(mean_p))).sum()

    def backward(g):
        # summed as the per-term nodes summed them: the regularizer's gradient,
        # then the unlabeled rows' and the labeled rows' each scattered into
        # zeros (0.0 + -0.0 is 0.0), so every bit, zero signs too, is theirs
        grad = _softmax_backward(p, np.broadcast_to(-(g * lambda_r) * prior / (n * mean_p),
                                                    p.shape))
        row_grads = [(lab, lx_grad(g))]
        if diff.size:
            du = _softmax_backward(p[unl], diff * (2.0 * (g * lambda_u) / diff.size))
            row_grads.insert(0, (unl, du))
        for rows, row_grad in row_grads:
            pad = np.zeros_like(grad)
            pad[rows] += row_grad
            grad += pad
        _accumulate(logits, grad)

    total = Tensor(lx + lu * lambda_u + lreg * lambda_r, parents=(logits,), backward=backward)
    return float(lx), float(lu), float(lreg), total


def l2_normalize(v) -> Tensor:
    """Normalize each row to unit Euclidean norm; rejects near-zero rows."""
    v = _wrap(v)
    if v.data.ndim != 2:
        raise DimensionError("l2_normalize expects a 2-D tensor")
    norms = np.sqrt((v.data * v.data).sum(axis=1, keepdims=True))
    if np.any(norms < EPS_NORM):
        raise DegenerateInputError(f"l2_normalize: row norm below {EPS_NORM}")
    z = v.data / norms

    def backward(g):
        # Jacobian of each row: (I - z z^T) / |v|
        _accumulate(v, (g - z * (g * z).sum(axis=1, keepdims=True)) / norms)

    return Tensor(z, parents=(v,), backward=backward)


def info_nce(z, keys, tau: float) -> Tensor:
    """Mean over anchors (rows of ``z``) of InfoNCE at temperature ``tau``.

    Similarities are ``S = z z^T / tau``; anchor i's candidates are every
    other row and its positives the other rows with ``keys[i]``, the 0/1
    matrix P. The per-anchor term is the log-sum-exp over candidates minus
    the mean positive similarity z_i . (P z)_i / count_i / tau; anchors with
    no positive are left out of the mean. ``keys=None`` means sibling pairs:
    rows 2k and 2k + 1 are each other's one positive, so P is the row
    permutation i -> i ^ 1, every count is 1 and each product with P is a
    row gather; no P is built. Besides P, the forward pass holds one n x n
    buffer: S, turned in place into the shifted exponentials E. With
    a = w g / s and c = w g / count per anchor (w its weight in the mean,
    s its row sum of E), the gradient is
    dz = (a E z + E^T (a z) - c P z - P (c z)) / tau.
    """
    z = _wrap(z)
    zd = z.data
    if zd.ndim != 2:
        raise DimensionError(f"info_nce: embeddings {z.shape} are not one row per view")
    n = zd.shape[0]
    ones = np.ones(n)
    if keys is None:
        if n % 2:
            raise DimensionError(f"info_nce: {n} rows are not sibling pairs")
        sib = np.arange(n) ^ 1

        def positive_sum(v):
            return v.take(sib, axis=0)

        valid, inv_counts = np.ones(n, dtype=bool), 1.0
    else:
        keys = np.asarray(keys)
        if keys.shape != (n,):
            raise DimensionError(f"info_nce: embeddings {z.shape} with keys {keys.shape}")
        positives = np.empty((n, n))
        np.equal(keys[:, None], keys, out=positives)
        positives.ravel()[::n + 1] = 0.0
        positive_sum = positives.__matmul__
        counts = positives @ ones
        valid = counts > 0
        inv_counts = 1.0 / np.maximum(counts, 1.0)
    if not valid.any():
        raise DegenerateInputError("contrastive loss: no anchor has a positive")
    inv_tau = 1.0 / tau
    pos_z = positive_sum(zd)
    # a GEMM on a contiguous z^T: numpy sends z @ z.T to a slower syrk path
    e = zd @ np.ascontiguousarray(zd.T)
    e *= inv_tau
    e.ravel()[::n + 1] = -np.inf  # a view: e is contiguous
    # the row max, read down the columns of the symmetric S, which numpy
    # reduces with vector loads
    m = e.max(axis=0)
    e -= m[:, None]
    np.exp(e, out=e)
    s = e @ ones
    weight = valid / valid.sum()
    per_anchor = m + np.log(s) - np.einsum("ij,ij->i", zd, pos_z) * (inv_counts * inv_tau)

    def backward(g):
        if z.requires_grad:
            a = (weight * g / s)[:, None]
            c = (weight * g * inv_counts)[:, None]
            dz = a * (e @ zd) + e.T @ (a * zd) - c * pos_z - positive_sum(c * zd)
            dz *= inv_tau
            _accumulate(z, dz)

    return Tensor((per_anchor * weight).sum(), parents=(z,), backward=backward)


class SGD:
    """SGD with momentum and decoupled-from-nothing classic weight decay."""

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float,
                 weight_decay: float):
        self.params = dict(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        # (parameter, velocity, scratch) per parameter, in the order of params
        self._state = [(p, np.zeros_like(p.data), np.empty_like(p.data))
                       for p in self.params.values()]

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        lr, momentum, weight_decay = self.lr, self.momentum, self.weight_decay
        for p, v, buf in self._state:
            if p.grad is None:
                continue
            # v = momentum v + (grad + wd p); p -= lr v, in that order
            np.multiply(p.data, weight_decay, out=buf)
            buf += p.grad
            v *= momentum
            v += buf
            np.multiply(v, lr, out=buf)
            p.data -= buf
