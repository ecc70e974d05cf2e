"""Shared fixtures: deterministic RNGs, the Table-I problem, small datasets,
and an isolated on-disk experiment cache (so tests never touch a user's
.repro_cache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.dse import DSEProblem, ExhaustiveOracle, generate_random_dataset
from repro.experiments import Workspace


@pytest.fixture(autouse=True)
def _restore_execution_switch():
    """Guarantee the fused toggle never leaks across tests.

    The switch is an exception-safe context manager already; this
    backstop also covers tests that flip it mid-assert and fail, or
    call the module-level setter directly.
    """
    fused = nn.fused._FUSED.snapshot()
    yield
    nn.fused._FUSED.restore(fused)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def problem() -> DSEProblem:
    return DSEProblem()


@pytest.fixture(scope="session")
def oracle(problem) -> ExhaustiveOracle:
    return ExhaustiveOracle(problem)


@pytest.fixture(scope="session")
def small_dataset(problem):
    """A 600-sample labelled dataset shared across the session."""
    return generate_random_dataset(problem, 600, np.random.default_rng(999))


@pytest.fixture(scope="session")
def session_workspace(tmp_path_factory) -> Workspace:
    """Session-wide isolated cache so experiment runners share training."""
    return Workspace(tmp_path_factory.mktemp("repro_cache"))


def finite_difference_gradient(func, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = func(x)
        flat[i] = orig - eps
        lo = func(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return grad
