"""Shared fixtures and deterministic helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import Sampler


class ScriptedCountSampler(Sampler):
    """Sampler returning pre-scripted per-agent counts.

    Each call to :meth:`counts` (or each block of :meth:`count_blocks`) pops
    the next scripted vector. Lets protocol-semantics tests drive FET's
    comparisons deterministically.
    """

    def __init__(self, scripted: list[np.ndarray]) -> None:
        self.scripted = [np.asarray(v, dtype=np.int64) for v in scripted]
        self.cursor = 0

    def counts(self, population, ell, rng):
        if self.cursor >= len(self.scripted):
            raise AssertionError("scripted sampler exhausted")
        out = self.scripted[self.cursor]
        self.cursor += 1
        if out.shape != (population.n,):
            raise AssertionError("scripted vector has wrong shape")
        return out


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_population():
    return make_population(50, correct_opinion=1)


def scripted_sampler(*vectors) -> ScriptedCountSampler:
    return ScriptedCountSampler(list(vectors))


def pytest_configure(config):
    # The chaos/watchdog tests mark themselves with per-test timeouts that
    # pytest-timeout enforces in CI; locally (plugin absent) the mark must
    # still be registered so it does not warn.
    config.addinivalue_line(
        "markers",
        "timeout(seconds): per-test wall-clock budget (enforced when the "
        "pytest-timeout plugin is installed, as in CI)",
    )
    config.addinivalue_line(
        "markers",
        "metrics_smoke: end-to-end telemetry smoke (CI runs these "
        "separately with `pytest -m metrics_smoke` after the demo sweep)",
    )
    # A RuntimeWarning raised from repro's own code (overflow, invalid
    # value, ...) is a bug. The filter is module-scoped, so third-party
    # notices such as scipy's ks_2samp method fallback stay warnings.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:repro")
