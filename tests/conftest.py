"""Shared fixtures and deterministic helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.core.sampling import BatchedSampler


class ScriptedCountSampler(BatchedSampler):
    """Batched sampler returning pre-scripted per-agent counts.

    Each call to :meth:`counts` (or each block of :meth:`count_blocks`) pops
    the next scripted vector: ``(n,)`` for a one-row batch, ``(R, n)`` for a
    full one. Lets protocol-semantics tests drive the update rules
    deterministically.
    """

    def __init__(self, scripted: list[np.ndarray]) -> None:
        self.scripted = [np.asarray(v, dtype=np.int64) for v in scripted]
        self.cursor = 0

    def counts(self, batch, ell, rng):
        if self.cursor >= len(self.scripted):
            raise AssertionError("scripted sampler exhausted")
        out = self.scripted[self.cursor].reshape(-1, batch.n)
        self.cursor += 1
        if out.shape != (batch.replicas, batch.n):
            raise AssertionError("scripted vector has wrong shape")
        return out.copy()  # callers own (and may overwrite) what they get


def scripted_sampler(*vectors) -> ScriptedCountSampler:
    return ScriptedCountSampler(list(vectors))


def never(rows):
    """Stop condition that never holds: run the whole round budget."""
    return np.zeros(rows.replicas, dtype=bool)


def tiled(population, replicas):
    """``replicas`` copies of a one-row population's row, as one batch."""
    return population.select(np.zeros(replicas, dtype=int))


def step_row(protocol, population, state, sampler, rng):
    """One ``step_batch`` round of the one-row ``population``.

    ``state`` holds the row's ``(n,)``-shaped arrays and is updated in place
    to the round-``t+1`` values; returns the ``(n,)`` tentative opinions.
    """
    states = {key: np.array(value)[None] for key, value in state.items()}
    new = protocol.step_batch(population, states, sampler, rng)
    state.update({key: value[0] for key, value in states.items()})
    return new[0]


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def small_population():
    return make_population(50, correct_opinion=1)


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
    # Any RuntimeWarning in the test run (overflow, invalid value, a
    # library's silent method fallback, ...) is a bug.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
