"""Autodiff core: value examples, finite-difference checks, graph semantics.

Each fused op is one graph node with a hand-derived backward. The value
tests check each piece of its math (relu, exp/log, power, sums, log-sum-exp,
the bias broadcast) inside the fused op named in the test. The
finite-difference case names stay as they are: each seeds its instances.
"""

import gc
import re
import zlib
from pathlib import Path

import numpy as np
import pytest

from codim import tensor as T
from codim.errors import ContractError, DegenerateInputError, DimensionError
from codim.tensor import SGD, Tensor

from conftest import check_gradients, rng_for

N_INSTANCES = 20
SRC = Path(__file__).resolve().parent.parent / "src" / "codim"


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def functional(out: Tensor) -> Tensor:
    """A fixed linear functional u^T out v of a 2-D output (the same u, v
    for every call with that shape); a scalar output is returned as is."""
    if out.data.ndim == 0:
        return out
    r = rng_for(0xF0, *out.shape)
    u = Tensor(r.normal(size=(1, out.shape[0])))
    v = Tensor(r.normal(size=(out.shape[1], 1)))
    return T.matmul(T.matmul(u, out), v)


def np_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- values

def test_add_and_scale_values():
    """add, and scale (multiplication by a constant)."""
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(T.add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
    assert np.array_equal((a + b).data, [[11.0, 22.0], [33.0, 44.0]])
    assert np.array_equal(T.scale(a, -2.0).data, [[-2.0, -4.0], [-6.0, -8.0]])


def test_matmul_transpose_values():
    """matmul's value, and its gradients g b^T and a^T g, on a hand example."""
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0], [6.0]], requires_grad=True)
    out = T.matmul(a, b)
    assert np.array_equal(out.data, [[17.0], [39.0]])
    T.matmul(Tensor([[1.0, 2.0]]), out).backward()  # g = [[1], [2]]
    assert np.array_equal(a.grad, [[5.0, 6.0], [10.0, 12.0]])
    assert np.array_equal(b.grad, [[7.0], [10.0]])
    with pytest.raises(DimensionError):
        T.matmul(a, Tensor(np.ones((3, 1))))
    with pytest.raises(DimensionError):
        T.matmul(a, b, bias=Tensor(np.ones(2)))


def test_matmul_relu_softmax_cross_entropy_l2_normalize_values():
    """The relu of matmul, the exp/log of softmax_cross_entropy and the
    inverse square root of l2_normalize, against hand values."""
    x = Tensor([[1.0, -1.0]])
    w = Tensor([[1.0, 2.0, -3.0], [2.0, 1.0, 0.0]])
    out = T.matmul(x, w, bias=Tensor([0.5, 2.0, 0.0]), relu=True)
    assert np.array_equal(out.data, [[0.0, 3.0, 0.0]])
    assert np.array_equal(T.matmul(x, w, bias=Tensor([0.5, 2.0, 0.0])).data,
                          [[-0.5, 3.0, -3.0]])
    logits = Tensor([[0.0, 1.0]])
    want = np.log(1.0 + np.e) - 1.0
    assert np.isclose(T.softmax_cross_entropy(logits, [[0.0, 1.0]]).item(), want)
    assert np.allclose(T.l2_normalize(Tensor([[3.0, 4.0]])).data, [[0.6, 0.8]])


def test_fused_losses_reduce_over_their_axes():
    """Each fused loss reduces over the axes it documents."""
    rng = rng_for(9)
    logits = rng.normal(size=(5, 4))
    targets = rng.dirichlet(np.ones(4), size=5)
    ce_rows = [T.softmax_cross_entropy(Tensor(logits[i:i + 1]), targets[i:i + 1]).item()
               for i in range(5)]
    assert np.isclose(T.softmax_cross_entropy(Tensor(logits), targets).item(),
                      np.mean(ce_rows), atol=1e-14)
    p = np_softmax(logits)
    assert np.isclose(T.softmax_mse(Tensor(logits), targets).item(),
                      ((p - targets) ** 2).sum() / 20.0, atol=1e-15)
    mean_p = p.mean(axis=0)
    assert np.isclose(T.uniform_kl(Tensor(logits)).item(),
                      (0.25 * np.log(0.25 / mean_p)).sum(), atol=1e-14)
    assert T.uniform_kl(Tensor(np.zeros((3, 4)))).item() == 0.0


def test_gather_rows_values_and_duplicate_grad():
    a = leaf(rng_for(0), 4, 3)
    out = T.gather_rows(a, [2, 0, 2])
    assert np.array_equal(out.data, a.data[[2, 0, 2]])
    T.matmul(T.matmul(Tensor(np.ones((1, 3))), out), Tensor(np.ones((3, 1)))).backward()
    # row 2 selected twice -> gradient 2, row 1 never -> 0
    assert np.array_equal(a.grad, np.array([[1.0] * 3, [0.0] * 3,
                                            [2.0] * 3, [0.0] * 3]))


def test_softmax_cross_entropy_matches_numpy_and_is_stable():
    """softmax_cross_entropy's row-wise log-sum-exp: with one-hot targets the
    loss is mean(lse - target logit), and huge logits do not overflow."""
    rng = rng_for(1)
    x = rng.normal(size=(5, 7))
    labels = rng.integers(0, 7, size=5)
    got = T.softmax_cross_entropy(Tensor(x), np.eye(7)[labels]).item()
    want = np.mean(np.log(np.exp(x).sum(axis=1)) - x[np.arange(5), labels])
    assert np.isclose(got, want, atol=1e-12)
    big = T.softmax_cross_entropy(Tensor([[1000.0, 1000.0]]), [[1.0, 0.0]])
    assert np.isfinite(big.item())
    assert np.isclose(big.item(), np.log(2.0))


def test_info_nce_leaves_the_anchor_out():
    """info_nce's log-sum-exp leaves the anchor's own similarity out."""
    z = np.array([[3.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    keys = np.array([0, 0, 1])  # anchor 2 has no positive
    sim = z @ z.T / 0.5
    want = np.mean([np.log(np.exp(sim[i, [j for j in range(3) if j != i]]).sum())
                    - sim[i, 1 - i] for i in (0, 1)])
    assert np.isclose(T.info_nce(Tensor(z), keys, 0.5).item(), want, atol=1e-12)


def test_info_nce_with_nothing_to_contrast_rejected():
    """An info_nce anchor row with no other view, or no anchor with a
    positive, has nothing to contrast against."""
    with pytest.raises(DegenerateInputError):
        T.info_nce(Tensor(np.ones((1, 3))), np.array([0]), 0.5)
    with pytest.raises(DegenerateInputError):
        T.info_nce(Tensor(np.eye(3)), np.array([0, 1, 2]), 0.5)
    with pytest.raises(DimensionError):
        T.info_nce(Tensor(np.eye(3)), np.array([0, 0]), 0.5)


def test_softmax_mse_is_zero_at_numpy_softmax():
    """softmax_mse's softmax is numpy's, stable under a per-row shift: its
    loss against numpy's softmax rows is 0 even for logits near 1000."""
    rng = rng_for(2)
    x = rng.normal(size=(6, 4))
    p = np_softmax(x)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert T.softmax_mse(Tensor(x), p).item() <= 1e-30
    assert T.softmax_mse(Tensor(x + 1000.0), p).item() <= 1e-26
    with pytest.raises(DimensionError):
        T.softmax_mse(Tensor(x), p[:, :3])
    with pytest.raises(DegenerateInputError):
        T.uniform_kl(Tensor(np.zeros((0, 4))))


def test_softmax_cross_entropy_value():
    logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])))
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    want = -(np.log(0.7) + np.log(0.8)) / 2.0
    assert np.isclose(T.softmax_cross_entropy(logits, targets).item(), want)


def test_softmax_cross_entropy_contracts():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        T.softmax_cross_entropy(logits, np.array([[0.5, 0.5, 0.5]] * 2))
    with pytest.raises(DimensionError):
        T.softmax_cross_entropy(logits, np.ones((2, 4)) / 4.0)
    with pytest.raises(DegenerateInputError):
        T.softmax_cross_entropy(Tensor(np.zeros((0, 3))), np.zeros((0, 3)))


def test_l2_normalize_unit_rows_and_degenerate():
    rng = rng_for(3)
    v = Tensor(rng.normal(size=(5, 4)))
    z = T.l2_normalize(v).data
    assert np.allclose((z ** 2).sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        T.l2_normalize(Tensor(np.zeros((2, 3))))


# ---------------------------------------------------------------- graph

def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor(np.ones(3), requires_grad=True).backward()


def test_gradient_accumulates_across_shared_use():
    a = leaf(rng_for(4), 3, 3)
    loss = T.matmul(T.matmul(Tensor(np.ones((1, 3))), a + a), Tensor(np.ones((3, 1))))
    loss.backward()  # a used twice
    assert np.array_equal(a.grad, 2.0 * np.ones((3, 3)))


def test_shared_gradient_buffers_are_never_written():
    """``x + y`` hands one gradient array to both parents; reusing ``y``
    downstream and ``x + x`` must still sum correctly, and an SGD step must
    leave every gradient array as backward left it."""
    r = rng_for(10)
    x, y, w = leaf(r, 3, 4), leaf(r, 3, 4), leaf(r, 4, 2)

    def build():
        # backward runs ``x + y`` first, handing x and y one buffer, and only
        # then adds y's own use and ``x + x`` to them
        return (functional(T.matmul(x + x, w)) + functional(T.matmul(y, w))
                + functional(T.matmul(x + y, w, relu=True)))

    check_gradients(build, [x, y, w])
    for p in (x, y, w):
        p.grad = None
    functional(x + y).backward()
    assert x.grad is y.grad  # the shared buffer
    build().backward()  # on top of the shared buffer
    grads = [p.grad.copy() for p in (x, y, w)]
    arrays = [p.grad for p in (x, y, w)]
    SGD({"x": x, "y": y, "w": w}, lr=0.1, momentum=0.9, weight_decay=0.01).step()
    for p, array, grad in zip((x, y, w), arrays, grads):
        assert p.grad is array and np.array_equal(p.grad, grad)


def test_no_code_writes_into_a_grad_array():
    in_place = re.compile(r"\.grad\s*\+=|np\.add\.at\([^,]*\.grad")
    hits = [f"{path.name}:{i}" for path in sorted(SRC.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), start=1)
            if in_place.search(line)]
    assert hits == []


def test_backward_leaves_no_garbage_cycle():
    """The graph is freed by reference counting, not left for the cyclic
    collector, so a training loop's memory does not grow between collections."""
    w = leaf(rng_for(8), 3, 2)
    gc.collect()
    gc.disable()
    try:
        functional(T.matmul(Tensor(np.ones((4, 3))), w, relu=True)).backward()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_matmul_bias_gradient_sums_the_rows():
    """matmul adds its 1-D bias to every row; the bias gradient sums the
    rows back. A plain add of unequal shapes is an error."""
    a = leaf(rng_for(5), 4, 3)
    b = leaf(rng_for(6), 3)
    out = T.matmul(a, Tensor(np.eye(3)), bias=b)
    T.matmul(T.matmul(Tensor(np.ones((1, 4))), out), Tensor(np.ones((3, 1)))).backward()
    assert np.array_equal(b.grad, 4.0 * np.ones(3))
    with pytest.raises(DimensionError):
        T.add(a, b)


def test_no_grad_for_constants():
    a = Tensor(np.ones((2, 2)))
    b = leaf(rng_for(7), 2, 2)
    functional(T.matmul(a, b)).backward()
    assert a.grad is None
    assert b.grad is not None


# ------------------------------------------------- finite differences

def _linear_params(r, rows, relu, bias=True):
    """x, w(, b) with every pre-activation at least 1e-3 from the relu kink."""
    while True:
        params = [leaf(r, rows, 4), leaf(r, 4, 3)] + ([leaf(r, 3)] if bias else [])
        pre = params[0].data @ params[1].data + (params[2].data if bias else 0.0)
        if not relu or np.abs(pre).min() > 1e-3:
            return params


def _targets(r, rows, cols):
    return r.dirichlet(np.ones(cols), size=rows)


def _tied_rows(r):
    t = leaf(r, 8, 3)
    t.data[6] = t.data[1]
    return t


# name -> (loss builder given params and constants, maker of both)
FD_CASES = {
    "add": (lambda p, c: functional(T.add(p[0], p[1])),
            lambda r: ([leaf(r, 3, 4), leaf(r, 3, 4)], None)),
    "scale": (lambda p, c: functional(T.scale(p[0], -1.7)),
              lambda r: ([leaf(r, 3, 3)], None)),
    "matmul": (lambda p, c: functional(T.matmul(p[0], p[1])),
               lambda r: ([leaf(r, 3, 4), leaf(r, 4, 2)], None)),
    # matmul's bias, broadcast over rows
    "add_broadcast": (lambda p, c: functional(T.matmul(p[0], p[1], bias=p[2])),
                      lambda r: (_linear_params(r, 5, relu=False), None)),
    # matmul with bias and relu: one MLP layer
    "relu": (lambda p, c: functional(T.matmul(p[0], p[1], bias=p[2], relu=True)),
             lambda r: (_linear_params(r, 5, relu=True), None)),
    "relu_no_bias": (lambda p, c: functional(T.matmul(p[0], p[1], relu=True)),
                     lambda r: (_linear_params(r, 5, relu=True, bias=False), None)),
    "gather_rows": (lambda p, c: functional(T.gather_rows(p[0], [0, 2, 2, 1])),
                    lambda r: ([leaf(r, 3, 4)], None)),
    "softmax_ce": (lambda p, c: T.softmax_cross_entropy(p[0], c),
                   lambda r: ([leaf(r, 4, 3)], _targets(r, 4, 3))),
    # softmax_cross_entropy on logits near 1000: the stabilized log-sum-exp
    "logsumexp": (lambda p, c: T.softmax_cross_entropy(
                      T.add(p[0], Tensor(np.full((4, 3), 1000.0))), c),
                  lambda r: ([leaf(r, 4, 3)], _targets(r, 4, 3))),
    # softmax_mse: the exp of the softmax, through the squared error
    "exp": (lambda p, c: T.softmax_mse(p[0], c),
            lambda r: ([leaf(r, 4, 3)], _targets(r, 4, 3))),
    # uniform_kl: the log of the mean prediction
    "log": (lambda p, c: T.uniform_kl(p[0]),
            lambda r: ([leaf(r, 5, 4)], None)),
    "l2_normalize": (lambda p, c: functional(T.l2_normalize(p[0])),
                     lambda r: ([leaf(r, 3, 4)], None)),
    # info_nce, whose similarities z z^T reach the gradient through z and z^T
    "transpose": (lambda p, c: T.info_nce(p[0], np.array([0, 0, 1, 1, 2, 2]), c),
                  lambda r: ([leaf(r, 6, 3)], float(r.uniform(0.2, 1.0)))),
    # info_nce at SupCon's tau = 0.07 over 4 classes: three anchors share
    # class 0, anchors 5 and 7 have no positive, rows 1 and 6 are equal, so
    # their similarities tie
    "info_nce_cold": (lambda p, c: T.info_nce(p[0], np.array([0, 0, 0, 1, 1, 2, 0, 3]),
                                              0.07),
                      lambda r: ([_tied_rows(r)], None)),
}


@pytest.mark.parametrize("name", list(FD_CASES))
def test_finite_difference(name):
    loss_fn, make = FD_CASES[name]
    for instance in range(N_INSTANCES):
        params, const = make(rng_for(0xFD, zlib.crc32(name.encode()), instance))
        check_gradients(lambda: loss_fn(params, const), params)


def test_masked_logsumexp_finite_difference():
    """info_nce with anchors 4 and 5 lacking a positive: they stay in the
    other anchors' log-sum-exp but contribute no term of their own."""
    keys = np.array([0, 0, 1, 1, 2, 3])
    for instance in range(N_INSTANCES):
        r = rng_for(0x3E, instance)
        p = [leaf(r, 6, 3)]
        tau = float(r.uniform(0.2, 1.0))
        check_gradients(lambda: T.info_nce(p[0], keys, tau), p)


# ---------------------------------------------------------------- SGD

def test_sgd_momentum_weight_decay_oracle():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.5, weight_decay=0.01)
    data0 = p.data.copy()
    p.grad = np.array([0.3, 0.4])
    opt.step()
    v1 = np.array([0.3, 0.4]) + 0.01 * data0
    want1 = data0 - 0.1 * v1
    assert np.allclose(p.data, want1, atol=1e-15)
    p.grad = np.array([0.1, 0.1])
    opt.step()
    v2 = 0.5 * v1 + (np.array([0.1, 0.1]) + 0.01 * want1)
    assert np.allclose(p.data, want1 - 0.1 * v2, atol=1e-15)


def test_sgd_skips_params_without_grad():
    p = Tensor(np.ones(3), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=0.0)
    before = p.data.copy()
    opt.step()  # grad is None
    assert np.array_equal(p.data, before)


def test_sgd_zero_grad():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.ones(3)
    SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=5e-4).zero_grad()
    assert p.grad is None
