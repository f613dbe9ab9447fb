"""Autodiff core: value examples, finite-difference checks, graph semantics.

Each fused op is one graph node with a hand-derived backward. The value
tests check each piece of its math (relu, exp/log, power, sums, log-sum-exp,
the bias broadcast) inside the fused op named in the test. The
finite-difference case names stay as they are: each seeds its instances.
"""

import gc
import re
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from codim import tensor as T
from codim.errors import DegenerateInputError, DimensionError
from codim.tensor import SGD, Tensor

from conftest import check_gradients, rng_for

N_INSTANCES = 20
SRC = Path(__file__).resolve().parent.parent / "src" / "codim"


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def mm(a: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """matmul as a bare product: the layer node with a zero bias."""
    return T.matmul(a, b, Tensor(np.zeros(b.shape[1])), relu=relu)


def functional(out: Tensor) -> Tensor:
    """A fixed linear functional u^T out v of a 2-D output (the same u, v
    for every call with that shape); a scalar output is returned as is."""
    if out.data.ndim == 0:
        return out
    r = rng_for(0xF0, *out.shape)
    u = Tensor(r.normal(size=(1, out.shape[0])))
    v = Tensor(r.normal(size=(out.shape[1], 1)))
    return mm(mm(u, out), v)


def np_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------- values

def test_matmul_transpose_values():
    """matmul's value, and its gradients g b^T and a^T g, on a hand example."""
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0], [6.0]], requires_grad=True)
    out = mm(a, b)
    assert np.array_equal(out.data, [[17.0], [39.0]])
    mm(Tensor([[1.0, 2.0]]), out).backward()  # g = [[1], [2]]
    assert np.array_equal(a.grad, [[5.0, 6.0], [10.0, 12.0]])
    assert np.array_equal(b.grad, [[7.0], [10.0]])
    with pytest.raises(DimensionError):
        mm(a, Tensor(np.ones((3, 1))))
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
    lab = np.array([True, False, True, False, False])
    lx, lu, lreg, total = T.mixmatch_loss(Tensor(logits), targets, lab, 3.0, 0.5)
    assert np.isclose(lx, np.mean([ce_rows[0], ce_rows[2]]), atol=1e-14)
    p = np_softmax(logits)
    assert np.isclose(lu, ((p[~lab] - targets[~lab]) ** 2).sum() / 12.0, atol=1e-15)
    mean_p = p.mean(axis=0)
    assert np.isclose(lreg, (0.25 * np.log(0.25 / mean_p)).sum(), atol=1e-14)
    assert total.item() == lx + 3.0 * lu + 0.5 * lreg
    uniform = T.mixmatch_loss(Tensor(np.zeros((3, 4))), np.full((3, 4), 0.25), lab[:3],
                              1.0, 1.0)
    assert uniform[2] == 0.0


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
    with pytest.raises(DegenerateInputError):
        T.info_nce(Tensor(np.ones((0, 3))), None, 0.5)
    # sibling pairs need an even row count: row 4 has no row 5 to gather
    with pytest.raises(DimensionError, match="5 rows"):
        T.info_nce(Tensor(np.eye(5)), None, 0.5)


def dense_info_nce(zd, keys, tau):
    """info_nce's key-matrix form on arrays, the reference that the sibling
    gather must reproduce bit for bit: the 0/1 positives matrix P, its counts
    from a GEMV and the products P z and P (c z) as GEMMs. Returns the value
    and the z-gradient for an upstream gradient of 1."""
    n = len(zd)
    positives = (keys[:, None] == keys).astype(np.float64)
    np.fill_diagonal(positives, 0.0)
    ones = np.ones(n)
    counts = positives @ ones
    valid = counts > 0
    inv_tau = 1.0 / tau
    pos_z = positives @ zd
    e = zd @ np.ascontiguousarray(zd.T)
    e *= inv_tau
    np.fill_diagonal(e, -np.inf)
    m = e.max(axis=0)
    e -= m[:, None]
    np.exp(e, out=e)
    s = e @ ones
    weight = valid / valid.sum()
    inv_counts = 1.0 / np.maximum(counts, 1.0)
    per_anchor = m + np.log(s) - np.einsum("ij,ij->i", zd, pos_z) * (inv_counts * inv_tau)
    a = (weight / s)[:, None]
    c = (weight * inv_counts)[:, None]
    dz = a * (e @ zd) + e.T @ (a * zd) - c * pos_z - positives @ (c * zd)
    dz *= inv_tau
    return (per_anchor * weight).sum(), dz


@pytest.mark.parametrize("tau", [0.07, 0.5, 1e-3])
def test_sibling_info_nce_is_bit_identical_to_the_key_matrix_form(tau):
    """keys=None gathers each row's sibling where the key-matrix form
    multiplies by P: for every even n from 4 to 256 the value and the
    z-gradient equal the dense form's byte for byte, zero signs too, and so
    do those of info_nce given the sibling keys."""
    for n in range(4, 257, 2):
        r = rng_for(0x5B, n, zlib.crc32(repr(tau).encode()))
        zd = r.normal(size=(n, int(r.integers(2, 33))))
        zd /= np.linalg.norm(zd, axis=1, keepdims=True)
        want_value, want_dz = dense_info_nce(zd, np.arange(n) // 2, tau)
        for keys in (None, np.arange(n) // 2):
            z = Tensor(zd, requires_grad=True)
            loss = T.info_nce(z, keys, tau)
            loss.backward()
            assert loss.data.tobytes() == want_value.tobytes(), (n, keys)
            assert z.grad.tobytes() == want_dz.tobytes(), (n, keys)
            assert np.array_equal(np.signbit(z.grad), np.signbit(want_dz))


def test_mixmatch_loss_lu_is_zero_at_numpy_softmax():
    """mixmatch_loss's softmax is numpy's, stable under a per-row shift: its
    Lu against numpy's softmax rows is 0 even for logits near 1000. Bad
    shapes, empty batches, batches with no labeled row and labeled targets
    that do not sum to 1 are rejected."""
    rng = rng_for(2)
    x = rng.normal(size=(6, 4))
    p = np_softmax(x)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    lab = np.arange(6) < 1
    assert T.mixmatch_loss(Tensor(x), p, lab, 1.0, 1.0)[1] <= 1e-30
    assert T.mixmatch_loss(Tensor(x + 1000.0), p, lab, 1.0, 1.0)[1] <= 1e-26
    with pytest.raises(DimensionError):
        T.mixmatch_loss(Tensor(x), p[:, :3], lab, 1.0, 1.0)
    with pytest.raises(DimensionError):
        T.mixmatch_loss(Tensor(x), p, lab[:5], 1.0, 1.0)
    with pytest.raises(DimensionError):
        T.mixmatch_loss(Tensor(x[0]), p[0], lab[:1], 1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        T.mixmatch_loss(Tensor(np.zeros((0, 4))), np.zeros((0, 4)), lab[:0], 1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        T.mixmatch_loss(Tensor(x), p, np.zeros(6, dtype=bool), 1.0, 1.0)
    doubled = p.copy()
    doubled[0] *= 2.0
    with pytest.raises(DegenerateInputError):
        T.mixmatch_loss(Tensor(x), doubled, lab, 1.0, 1.0)
    T.mixmatch_loss(Tensor(x), doubled, ~lab, 1.0, 1.0)  # unlabeled rows are not checked


def test_softmax_cross_entropy_value():
    logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])))
    targets = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    want = -(np.log(0.7) + np.log(0.8)) / 2.0
    assert np.isclose(T.softmax_cross_entropy(logits, targets).item(), want)


def test_softmax_cross_entropy_contracts():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(DegenerateInputError):
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

@pytest.mark.parametrize("data", [
    np.arange(6).reshape(2, 3),
    [[1, 2, 3], [4, 5, 6]],
    np.arange(6, dtype=np.float32).reshape(2, 3),
    np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2],
    np.arange(12.0).reshape(3, 4)[:, ::2],
    np.arange(6.0).astype(">f8"),
    3,
], ids=["int", "list", "float32", "float32-strided", "float64-strided", "big-endian", "scalar"])
def test_tensor_data_is_native_float64(data):
    """Any input becomes native float64 data with the input's values; a
    float64 ndarray is kept as it is, as np.asarray keeps it."""
    t = Tensor(data)
    assert t.data.dtype == np.float64 and t.data.dtype.isnative
    assert np.array_equal(t.data, np.asarray(data, dtype=np.float64))
    if isinstance(data, np.ndarray) and data.dtype == np.float64 and data.dtype.isnative:
        assert t.data is data


def test_requires_grad_propagates_from_any_parent():
    const, param = Tensor(np.ones(2)), Tensor(np.ones(2), requires_grad=True)
    for parents in ((param,), (const, param), (const, const, param), (param, const)):
        assert Tensor(np.ones(2), parents=parents).requires_grad
    assert not Tensor(np.ones(2), parents=(const, const)).requires_grad
    assert not Tensor(np.ones(2)).requires_grad
    assert Tensor(np.ones(2), requires_grad=True, parents=(const,)).requires_grad


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor(np.ones(3), requires_grad=True).backward()


def test_gradient_accumulates_across_shared_use():
    a = leaf(rng_for(4), 3, 3)
    loss = mm(mm(Tensor(np.ones((1, 3))), add(a, a)), Tensor(np.ones((3, 1))))
    loss.backward()  # a used twice
    assert np.array_equal(a.grad, 2.0 * np.ones((3, 3)))


def test_shared_gradient_buffers_are_never_written():
    """The reference ``add(x, y)`` hands one gradient array to both parents;
    reusing ``y`` downstream and ``add(x, x)`` must still sum correctly, and
    an SGD step must leave every gradient array as backward left it."""
    r = rng_for(10)
    x, y, w = leaf(r, 3, 4), leaf(r, 3, 4), leaf(r, 4, 2)

    def build():
        # backward runs ``add(x, y)`` first, handing x and y one buffer, and
        # only then adds y's own use and ``add(x, x)`` to them
        return add(add(functional(mm(add(x, x), w)), functional(mm(y, w))),
                   functional(mm(add(x, y), w, relu=True)))

    check_gradients(build, [x, y, w])
    for p in (x, y, w):
        p.grad = None
    functional(add(x, y)).backward()
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
        functional(mm(Tensor(np.ones((4, 3))), w, relu=True)).backward()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_matmul_bias_gradient_sums_the_rows():
    """matmul adds its 1-D bias to every row; the bias gradient sums the
    rows back."""
    a = leaf(rng_for(5), 4, 3)
    b = leaf(rng_for(6), 3)
    out = T.matmul(a, Tensor(np.eye(3)), bias=b)
    mm(mm(Tensor(np.ones((1, 4))), out), Tensor(np.ones((3, 1)))).backward()
    assert np.array_equal(b.grad, 4.0 * np.ones(3))


def test_no_grad_for_constants():
    a = Tensor(np.ones((2, 2)))
    b = leaf(rng_for(7), 2, 2)
    functional(mm(a, b)).backward()
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
    "matmul": (lambda p, c: functional(mm(p[0], p[1])),
               lambda r: ([leaf(r, 3, 4), leaf(r, 4, 2)], None)),
    # matmul's bias, broadcast over rows
    "add_broadcast": (lambda p, c: functional(T.matmul(p[0], p[1], bias=p[2])),
                      lambda r: (_linear_params(r, 5, relu=False), None)),
    # matmul with bias and relu: one MLP layer
    "relu": (lambda p, c: functional(T.matmul(p[0], p[1], bias=p[2], relu=True)),
             lambda r: (_linear_params(r, 5, relu=True), None)),
    "relu_no_bias": (lambda p, c: functional(mm(p[0], p[1], relu=True)),
                     lambda r: (_linear_params(r, 5, relu=True, bias=False), None)),
    "softmax_ce": (lambda p, c: T.softmax_cross_entropy(p[0], c),
                   lambda r: ([leaf(r, 4, 3)], _targets(r, 4, 3))),
    # softmax_cross_entropy on logits near 1000: the stabilized log-sum-exp
    "logsumexp": (lambda p, c: T.softmax_cross_entropy(
                      add(p[0], Tensor(np.full((4, 3), 1000.0))), c),
                  lambda r: ([leaf(r, 4, 3)], _targets(r, 4, 3))),
    # mixmatch_loss with unlabeled rows between the labeled ones: the exp of
    # the softmax, through the squared error and the mean prediction
    "exp": (lambda p, c: T.mixmatch_loss(p[0], c, np.array([True, False, True, False,
                                                             False, True]), 2.5, 0.7)[3],
            lambda r: ([leaf(r, 6, 3)], _targets(r, 6, 3))),
    # mixmatch_loss with no unlabeled row: the log of the mean prediction
    "log": (lambda p, c: T.mixmatch_loss(p[0], c, np.ones(5, dtype=bool), 2.5, 0.7)[3],
            lambda r: ([leaf(r, 5, 4)], _targets(r, 5, 4))),
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


# ------------------------------------- the MixMatch objective, bit for bit

def _accumulate(t, g):
    t.grad = g if t.grad is None else t.grad + g


def add(a, b):
    """Elementwise sum as its own node, one gradient array for both parents."""
    def backward(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, parents=(a, b), backward=backward)


def scale(a, c):
    """Multiplication by a constant as its own node."""
    def backward(g):
        _accumulate(a, g * c)

    return Tensor(a.data * c, parents=(a,), backward=backward)


def _softmax_backward(p, dp):
    return p * (dp - (dp * p).sum(axis=1, keepdims=True))


def _gather_rows(a, idx):
    """Row selection as its own node, the gradient scattered back into zeros."""
    def backward(g):
        rows = np.zeros_like(a.data)
        np.add.at(rows, idx, g)
        _accumulate(a, rows)

    return Tensor(a.data[idx], parents=(a,), backward=backward)


def _softmax_mse(logits, targets):
    p = np_softmax(logits.data)
    diff = p - targets

    def backward(g):
        _accumulate(logits, _softmax_backward(p, diff * (2.0 * g / diff.size)))

    return Tensor((diff * diff).mean(), parents=(logits,), backward=backward)


def _uniform_kl(logits):
    n, c = logits.shape
    p = np_softmax(logits.data)
    mean_p = p.mean(axis=0)
    prior = 1.0 / c

    def backward(g):
        _accumulate(logits, _softmax_backward(
            p, np.broadcast_to(-g * prior / (n * mean_p), p.shape)))

    return Tensor((prior * (np.log(prior) - np.log(mean_p))).sum(),
                  parents=(logits,), backward=backward)


def per_term_mixmatch_loss(logits, targets, is_labeled, lambda_u, lambda_r):
    """The MixMatch objective as a graph of one node per term, the reference
    that mixmatch_loss must reproduce bit for bit."""
    lab_idx, unl_idx = np.flatnonzero(is_labeled), np.flatnonzero(~is_labeled)
    lx = T.softmax_cross_entropy(_gather_rows(logits, lab_idx), targets[lab_idx])
    lu = (_softmax_mse(_gather_rows(logits, unl_idx), targets[unl_idx])
          if len(unl_idx) else Tensor(0.0))
    lreg = _uniform_kl(logits)
    return lx, lu, lreg, add(add(lx, scale(lu, lambda_u)), scale(lreg, lambda_r))


@pytest.mark.parametrize("case", ["random", "lambda_u_zero", "no_unlabeled", "one_labeled"])
def test_mixmatch_loss_is_bit_identical_to_the_per_term_graph(case):
    """One node, whose total, terms and logits gradient equal the per-term
    graph's byte for byte, so the signs of zeros too."""
    r = rng_for(0x33, zlib.crc32(case.encode()))
    data = r.normal(scale=3.0, size=(128, 4))
    # every 8th row's softmax underflows to exact zeros, whose gradients are
    # signed zeros
    data[::8, 0] += 800.0
    targets = r.dirichlet(np.ones(4), size=128)
    lab = r.random(128) < 0.5
    lambda_u, lambda_r = 7.5, 1.0
    if case == "lambda_u_zero":
        lambda_u = 0.0
    elif case == "no_unlabeled":
        lab[:] = True
    elif case == "one_labeled":
        lab[:] = np.arange(128) == 37
    got_logits, want_logits = (Tensor(data, requires_grad=True) for _ in range(2))
    *got_terms, got = T.mixmatch_loss(got_logits, targets, lab, lambda_u, lambda_r)
    *want_terms, want = per_term_mixmatch_loss(want_logits, targets, lab, lambda_u, lambda_r)
    assert got._parents == (got_logits,)
    assert all(type(t) is float for t in got_terms)
    assert np.array(got_terms).tobytes() == np.array([t.item() for t in want_terms]).tobytes()
    assert got.data.tobytes() == want.data.tobytes()
    got.backward()
    want.backward()
    assert got_logits.grad.tobytes() == want_logits.grad.tobytes()
    assert np.array_equal(np.signbit(got_logits.grad), np.signbit(want_logits.grad))


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


def test_sgd_step_equals_the_out_of_place_expression():
    """The in-place update gives, bit for bit, p -= lr * v with
    v = momentum * v + (grad + wd * p), over steps with momentum, weight
    decay and an lr that changes between them."""
    r = rng_for(12)
    params = {"w": leaf(r, 5, 3), "b": leaf(r, 3)}
    want = {name: p.data.copy() for name, p in params.items()}
    velocity = {name: np.zeros_like(d) for name, d in want.items()}
    opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=5e-4)
    for step in range(6):
        opt.lr = 0.05 if step < 3 else 0.005
        for name, p in params.items():
            p.grad = r.normal(size=p.shape)
            g = p.grad + opt.weight_decay * want[name]
            velocity[name] *= opt.momentum
            velocity[name] += g
            want[name] -= opt.lr * velocity[name]
        opt.step()
        for name, p in params.items():
            assert p.data.tobytes() == want[name].tobytes()


def test_sgd_step_allocates_no_parameter_sized_array():
    """A step updates in place: its peak allocation stays below one 256 x 256
    parameter, so a fresh process does not page-fault a new temporary of that
    size in on every step."""
    p = Tensor(np.ones((256, 256)), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1, momentum=0.9, weight_decay=5e-4)
    p.grad = np.full((256, 256), 0.5)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p.data.nbytes


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
