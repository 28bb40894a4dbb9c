"""Tests for the dead-band FET ablation."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import scripted_sampler, step_row
from repro.core.engine import SynchronousEngine
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.initializers.standard import AllWrong
from repro.protocols.fet import FETProtocol
from repro.protocols.hysteresis import HysteresisFETProtocol


class TestConstruction:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            HysteresisFETProtocol(0, 1)
        with pytest.raises(ValueError):
            HysteresisFETProtocol(10, -1)

    def test_accounting_matches_fet(self):
        hfet = HysteresisFETProtocol(15, 3)
        fet = FETProtocol(15)
        assert hfet.samples_per_round() == fet.samples_per_round()
        assert hfet.memory_bits() == fet.memory_bits()
        assert hfet.passive


class TestStepSemantics:
    def test_band_suppresses_small_trends(self):
        proto = HysteresisFETProtocol(10, band=2)
        pop = make_population(4, 1)
        pop.adversarial_opinions(np.array([[1, 0, 1, 0]], dtype=np.uint8))
        state = {"prev_count": np.full(4, 5, dtype=np.int64)}
        # diffs: +2 (within band), -2 (within band), +3 (above), -3 (below)
        counts = np.array([7, 3, 8, 2], dtype=np.int64)
        sampler = scripted_sampler(counts, np.zeros(4))
        new = step_row(proto, pop, state, sampler, make_rng(0))
        assert new.tolist() == [1, 0, 1, 0]

    def test_band_zero_equals_fet(self):
        """band = 0 must reproduce FET decisions exactly."""
        n = 8
        counts = np.array([3, 1, 2, 4, 0, 2, 3, 1], dtype=np.int64)
        second = np.array([1, 2, 3, 0, 4, 2, 1, 3], dtype=np.int64)
        prev = np.full(n, 2, dtype=np.int64)
        opinions = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=np.uint8)

        results = []
        for proto in (HysteresisFETProtocol(4, 0), FETProtocol(4)):
            pop = make_population(n, 1)
            pop.adversarial_opinions(opinions[None])
            state = {"prev_count": prev.copy()}
            sampler = scripted_sampler(counts.copy(), second.copy())
            results.append(step_row(proto, pop, state, sampler, make_rng(0)))
        assert np.array_equal(results[0], results[1])


class TestNegativeResult:
    """The measured facts the module docstring claims."""

    def test_band_zero_converges_like_fet(self):
        n = 1000
        proto = HysteresisFETProtocol(56, 0)
        pop = make_population(n, 1)
        rng = make_rng(0)
        result = SynchronousEngine(proto, pop, rng=rng, initializer=AllWrong()).run(2000)
        assert result.converged

    def test_moderate_band_still_converges_but_slower(self):
        n = 1000
        times = {}
        for band in (0, 2):
            proto = HysteresisFETProtocol(56, band)
            pop = make_population(n, 1)
            rng = make_rng(1)
            result = SynchronousEngine(proto, pop, rng=rng, initializer=AllWrong()).run(20_000)
            assert result.converged, f"band={band} failed"
            times[band] = result.rounds
        assert times[2] >= times[0]  # the band can only slow things down

    def test_large_band_stalls(self):
        """A band at the count-noise scale kills the Yellow-escape engine."""
        n = 1000
        proto = HysteresisFETProtocol(56, 8)
        pop = make_population(n, 1)
        rng = make_rng(2)
        result = SynchronousEngine(proto, pop, rng=rng, initializer=AllWrong()).run(1000)
        assert not result.converged
