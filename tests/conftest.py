"""Shared test helpers: finite-difference gradient checking and seeded RNGs.
``pyproject.toml`` puts ``src/`` and ``scripts/`` on the import path, so
tests import codim and the frozen protocols of ``scripts/reproduce.py``."""

import os

# One BLAS thread unless the caller set one: the suite's matrices are small,
# so more threads mostly spin. Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest


def rng_for(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(entropy))))


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def check_gradients(build, params, h=1e-5, tol=1e-6, max_entries=None):
    """Central finite differences against reverse-mode gradients.

    ``build()`` must return a scalar Tensor computed from ``params`` (a list
    of leaf Tensors with requires_grad=True). Every entry of every parameter
    is checked unless ``max_entries`` caps the count per parameter.
    """
    for p in params:
        p.grad = None
    loss = build()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        idxs = range(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idxs = np.linspace(0, flat.size - 1, max_entries).astype(int)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            up = build().item()
            flat[i] = orig - h
            down = build().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, rel_err(grad.reshape(-1)[i], fd))
    assert worst <= tol, f"worst finite-difference relative error {worst:.3e} > {tol}"
    return worst


@pytest.fixture
def rng():
    return rng_for(1234)
