"""Shared fixtures for the ADEPT reproduction test suite."""

import numpy as np
import pytest

from repro.data import train_test_split
from repro.photonics import AMF
from repro.utils.rng import set_seed


@pytest.fixture(autouse=True)
def _reset_seed():
    """Make every test deterministic regardless of execution order."""
    set_seed(1234)
    yield


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def tiny_mnist():
    """A small MNIST-like train/test split shared across tests."""
    return train_test_split("mnist", 96, 48, seed=7)


@pytest.fixture
def amf():
    return AMF


class FaultInjector:
    """Deterministic fault injection: wraps ``fn`` so that calls
    ``n .. n + times - 1`` (1-based) raise ``RuntimeError("injected
    fault")`` instead of running; ``times=None`` fails every call from
    the ``n``-th on.  ``calls`` counts every call, failed or not."""

    def __init__(self, fn, n, times=1):
        self.fn = fn
        self.n = int(n)
        self.times = times
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls >= self.n and (
                self.times is None or self.calls < self.n + self.times):
            raise RuntimeError("injected fault")
        return self.fn(*args, **kwargs)


@pytest.fixture
def fault():
    """The :class:`FaultInjector` factory: ``fault(fn, n, times=1)``."""
    return FaultInjector
