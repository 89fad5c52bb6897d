"""Shared fixtures: one library/characterization per test session."""

from __future__ import annotations

import signal
import threading

import numpy as np
import pytest

from repro.cells import make_nangate15_library
from repro.core.backends import LutDelayBackend
from repro.core.characterization import characterize_library
from repro.core.parameters import ParameterSpace
from repro.electrical.spice import AnalyticalSpice
from repro.netlist.generate import random_circuit


def pytest_addoption(parser, pluginmanager):
    parser.addoption(
        "--shards", type=int, default=2,
        help="worker-process count for sharded-service tests "
             "(tests/service/test_shards.py)")
    if not pluginmanager.hasplugin("timeout"):
        # pytest-timeout is not a dependency; honour its ``timeout`` ini
        # key (pyproject.toml) with the SIGALRM fixture below.
        parser.addini("timeout", "per-test wall-clock limit in seconds",
                      default="0")


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    """Fail a test that runs past the ``timeout`` ini value instead of
    letting a hang (a stuck worker wait, a deadlocked pool) wedge the
    whole run.  Process pools and service threads all block the main
    thread in interruptible waits, so the alarm lands."""
    limit = float(request.config.getini("timeout") or 0)
    if (limit <= 0 or request.config.pluginmanager.hasplugin("timeout")
            or not hasattr(signal, "SIGALRM")
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def expired(signum, frame):
        pytest.fail(f"test exceeded the {limit:g} s per-test timeout")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def shard_count(request):
    return max(1, int(request.config.getoption("--shards")))


@pytest.fixture(scope="session")
def library():
    return make_nangate15_library()

@pytest.fixture(scope="session")
def space():
    return ParameterSpace.paper_default()


@pytest.fixture(scope="session")
def spice():
    return AnalyticalSpice()


@pytest.fixture(scope="session")
def characterization(library):
    """Full library characterization at the paper's default order N=3."""
    return characterize_library(library, n=3)


@pytest.fixture(scope="session")
def kernel_table(characterization):
    return characterization.compile()


@pytest.fixture(scope="session")
def lut_backend(characterization):
    """A duck-typed delay model: offers only ``delays_for_gates``."""
    return LutDelayBackend.from_characterization(characterization)


@pytest.fixture(scope="session")
def small_circuit():
    """A 60-gate random circuit used across simulator tests."""
    return random_circuit("small", num_inputs=8, num_gates=60, seed=42)


@pytest.fixture(scope="session")
def medium_circuit():
    return random_circuit("medium", num_inputs=16, num_gates=400, seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
