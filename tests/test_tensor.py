"""Autodiff core: value examples, finite-difference checks, graph semantics."""

import gc

import numpy as np
import pytest

from codim import tensor as T
from codim.errors import ContractError, DegenerateInputError, DimensionError
from codim.tensor import SGD, Tensor

from conftest import check_gradients, rng_for

N_INSTANCES = 20


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------- values

def test_add_mul_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[10.0, 20.0], [30.0, 40.0]])
    assert np.array_equal(T.add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
    assert np.array_equal(T.mul(a, b).data, [[10.0, 40.0], [90.0, 160.0]])
    assert np.array_equal(T.scale(a, -2.0).data, [[-2.0, -4.0], [-6.0, -8.0]])


def test_matmul_transpose_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0], [6.0]])
    assert np.array_equal(T.matmul(a, b).data, [[17.0], [39.0]])
    assert np.array_equal(T.transpose(a).data, [[1.0, 3.0], [2.0, 4.0]])


def test_relu_exp_log_pow_values():
    a = Tensor([[-1.0, 0.0, 2.0]])
    assert np.array_equal(T.relu(a).data, [[0.0, 0.0, 2.0]])
    assert np.allclose(T.exp(Tensor([0.0, 1.0])).data, [1.0, np.e])
    assert np.allclose(T.log(Tensor([1.0, np.e])).data, [0.0, 1.0])
    assert np.allclose(T.pow_const(Tensor([4.0, 9.0]), 0.5).data, [2.0, 3.0])


def test_sum_mean_values():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert T.tsum(a).item() == 10.0
    assert np.array_equal(T.tsum(a, axis=0).data, [4.0, 6.0])
    assert np.array_equal(T.tsum(a, axis=1, keepdims=True).data, [[3.0], [7.0]])
    assert T.tmean(a).item() == 2.5
    assert np.array_equal(T.tmean(a, axis=1).data, [1.5, 3.5])


def test_gather_rows_values_and_duplicate_grad():
    a = leaf(rng_for(0), 4, 3)
    out = T.gather_rows(a, [2, 0, 2])
    assert np.array_equal(out.data, a.data[[2, 0, 2]])
    loss = T.tsum(out)
    loss.backward()
    # row 2 selected twice -> gradient 2, row 1 never -> 0
    assert np.array_equal(a.grad, np.array([[1.0] * 3, [0.0] * 3,
                                            [2.0] * 3, [0.0] * 3]))


def test_logsumexp_rows_matches_numpy_and_is_stable():
    rng = rng_for(1)
    x = rng.normal(size=(5, 7))
    got = T.logsumexp_rows(Tensor(x)).data[:, 0]
    want = np.log(np.exp(x).sum(axis=1))
    assert np.allclose(got, want, atol=1e-12)
    # huge entries must not overflow
    big = Tensor(np.array([[1000.0, 1000.0]]))
    assert np.isfinite(T.logsumexp_rows(big).item())
    assert np.isclose(T.logsumexp_rows(big).item(), 1000.0 + np.log(2.0))


def test_logsumexp_rows_masked():
    x = np.array([[0.0, 100.0, 1.0]])
    mask = np.array([[1.0, 0.0, 1.0]])
    got = T.logsumexp_rows(Tensor(x), mask=mask).item()
    assert np.isclose(got, np.log(np.exp(0.0) + np.exp(1.0)))


def test_logsumexp_rows_empty_row_rejected():
    with pytest.raises(DegenerateInputError):
        T.logsumexp_rows(Tensor(np.ones((2, 3))), mask=np.array([[1, 1, 1],
                                                                 [0, 0, 0]]))


def test_softmax_rows_sums_to_one():
    rng = rng_for(2)
    p = T.softmax_rows(Tensor(rng.normal(size=(6, 4)))).data
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert (p > 0).all()


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


def test_l2_normalize_unit_rows_and_degenerate():
    rng = rng_for(3)
    v = Tensor(rng.normal(size=(5, 4)))
    z = T.l2_normalize(v).data
    assert np.allclose((z ** 2).sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(DegenerateInputError):
        T.l2_normalize(Tensor(np.zeros((2, 3))))


def test_l2_distance_value():
    a = Tensor([[0.0, 0.0], [1.0, 1.0]])
    b = Tensor([[3.0, 4.0], [1.0, 1.0]])
    assert T.l2_distance(a, b).item() == pytest.approx(25.0 / 2.0)


# ---------------------------------------------------------------- graph

def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor(np.ones(3), requires_grad=True).backward()


def test_gradient_accumulates_across_shared_use():
    a = leaf(rng_for(4), 3, 3)
    loss = T.tsum(a + a)  # a used twice
    loss.backward()
    assert np.array_equal(a.grad, 2.0 * np.ones((3, 3)))


def test_backward_leaves_no_garbage_cycle():
    """The graph is freed by reference counting, not left for the cyclic
    collector, so a training loop's memory does not grow between collections."""
    w = leaf(rng_for(8), 3, 2)
    gc.collect()
    gc.disable()
    try:
        T.tsum(T.relu(T.matmul(Tensor(np.ones((4, 3))), w))).backward()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_broadcast_add_unbroadcasts_gradient():
    a = leaf(rng_for(5), 4, 3)
    b = leaf(rng_for(6), 3)
    loss = T.tsum(a + b)
    loss.backward()
    assert np.array_equal(b.grad, 4.0 * np.ones(3))


def test_no_grad_for_constants():
    a = Tensor(np.ones((2, 2)))
    b = leaf(rng_for(7), 2, 2)
    loss = T.tsum(T.mul(a, b))
    loss.backward()
    assert a.grad is None
    assert b.grad is not None


# ------------------------------------------------- finite differences

def _fd_cases():
    return [
        ("add", lambda p: T.tsum(T.mul(T.add(p[0], p[1]), T.add(p[0], p[1]))),
         lambda r: [leaf(r, 3, 4), leaf(r, 3, 4)]),
        ("add_broadcast", lambda p: T.tsum(T.mul(T.add(p[0], p[1]), p[0])),
         lambda r: [leaf(r, 3, 4), leaf(r, 4)]),
        ("mul", lambda p: T.tsum(T.mul(p[0], p[1])),
         lambda r: [leaf(r, 2, 5), leaf(r, 2, 5)]),
        ("scale", lambda p: T.tsum(T.scale(T.mul(p[0], p[0]), -1.7)),
         lambda r: [leaf(r, 3, 3)]),
        ("matmul", lambda p: T.tsum(T.mul(T.matmul(p[0], p[1]),
                                          T.matmul(p[0], p[1]))),
         lambda r: [leaf(r, 3, 4), leaf(r, 4, 2)]),
        ("transpose", lambda p: T.tsum(T.mul(T.transpose(p[0]), T.transpose(p[0]))),
         lambda r: [leaf(r, 3, 4)]),
        ("relu", lambda p: T.tsum(T.relu(p[0])),
         lambda r: [leaf(r, 4, 4)]),
        ("exp", lambda p: T.tsum(T.exp(T.scale(p[0], 0.3))),
         lambda r: [leaf(r, 3, 3)]),
        ("log", lambda p: T.tsum(T.log(T.add(T.mul(p[0], p[0]), Tensor(1.0)))),
         lambda r: [leaf(r, 3, 3)]),
        ("pow_const", lambda p: T.tsum(T.pow_const(T.add(T.mul(p[0], p[0]),
                                                         Tensor(0.5)), -0.5)),
         lambda r: [leaf(r, 3, 3)]),
        ("tsum_axis", lambda p: T.tsum(T.mul(T.tsum(p[0], axis=1, keepdims=True),
                                             T.tsum(p[0], axis=1, keepdims=True))),
         lambda r: [leaf(r, 4, 3)]),
        ("tmean", lambda p: T.tmean(T.mul(p[0], p[0])),
         lambda r: [leaf(r, 4, 5)]),
        ("gather_rows", lambda p: T.tsum(T.mul(T.gather_rows(p[0], [0, 2, 2, 1]),
                                               T.gather_rows(p[0], [0, 2, 2, 1]))),
         lambda r: [leaf(r, 3, 4)]),
        ("logsumexp", lambda p: T.tsum(T.logsumexp_rows(p[0])),
         lambda r: [leaf(r, 4, 5)]),
        ("softmax_ce", lambda p: T.softmax_cross_entropy(
            p[0], np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                            [1.0, 0.0, 0.0], [0.25, 0.25, 0.5]])),
         lambda r: [leaf(r, 4, 3)]),
        ("l2_normalize", lambda p: T.tsum(T.mul(T.l2_normalize(p[0]),
                                                Tensor(np.arange(12.).reshape(3, 4)))),
         lambda r: [leaf(r, 3, 4)]),
        ("l2_distance", lambda p: T.l2_distance(p[0], p[1]),
         lambda r: [leaf(r, 4, 3), leaf(r, 4, 3)]),
    ]


@pytest.mark.parametrize("name,loss_fn,make_params",
                         _fd_cases(), ids=[c[0] for c in _fd_cases()])
def test_finite_difference(name, loss_fn, make_params):
    for instance in range(N_INSTANCES):
        r = rng_for(0xFD, hash(name) & 0xFFFF, instance)
        params = make_params(r)
        if name == "relu":  # keep values away from the kink
            for p in params:
                p.data += 0.2 * np.sign(p.data) + 1e-3
        check_gradients(lambda: loss_fn(params), params)


def test_masked_logsumexp_finite_difference():
    mask = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]], dtype=float)
    for instance in range(N_INSTANCES):
        p = [leaf(rng_for(0x3E, instance), 3, 4)]
        check_gradients(lambda: T.tsum(T.logsumexp_rows(p[0], mask=mask)), p)


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
    SGD({"p": p}, lr=0.1).zero_grad()
    assert p.grad is None
