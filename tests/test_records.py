"""Tests for run records and protocol descriptions."""

from __future__ import annotations

import numpy as np

from repro.core.protocol import Protocol
from repro.core.records import RunResult
from repro.protocols.fet import FETProtocol


class TestRunResult:
    def test_final_fraction(self):
        result = RunResult(converged=True, rounds=2, trajectory=np.array([0.0, 0.5, 1.0]))
        assert result.final_fraction == 1.0

    def test_pairs_of_short_trajectory(self):
        result = RunResult(converged=False, rounds=0, trajectory=np.array([0.3]))
        assert result.pairs().shape == (0, 2)

    def test_pairs_window(self):
        result = RunResult(converged=True, rounds=3, trajectory=np.array([0.1, 0.2, 0.4, 0.8]))
        pairs = result.pairs()
        assert pairs.shape == (3, 2)
        assert pairs[0].tolist() == [0.1, 0.2]
        assert pairs[-1].tolist() == [0.4, 0.8]

    def test_summary_keys(self):
        result = RunResult(converged=True, rounds=5, trajectory=np.array([0.0, 1.0]))
        summary = result.summary()
        assert summary == {"converged": True, "rounds": 5, "final_fraction": 1.0}

    def test_default_flips_empty(self):
        result = RunResult(converged=False, rounds=1, trajectory=np.array([0.5, 0.5]))
        assert result.flips.size == 0


class TestProtocolDefaults:
    def test_describe_shape(self):
        class Bare(Protocol):
            name = "bare"

            def step_batch(self, batch, states, sampler, rng):
                return batch.opinions

        desc = Bare().describe()
        assert desc == {
            "name": "bare",
            "passive": True,
            "samples_per_round": 0,
            "memory_bits": 0.0,
        }

    def test_randomize_defaults_to_init(self):
        class Bare(Protocol):
            def init_state_batch(self, replicas, n, rng):
                return {"x": np.tile(np.arange(n), (replicas, 1))}

            def step_batch(self, batch, states, sampler, rng):
                return batch.opinions

        proto = Bare()
        rng = np.random.default_rng(0)
        assert np.array_equal(proto.randomize_state_batch(2, 4, rng)["x"], [np.arange(4)] * 2)

    def test_stateless_by_default(self):
        class Bare(Protocol):
            def step_batch(self, batch, states, sampler, rng):
                return batch.opinions

        rng = np.random.default_rng(0)
        assert Bare().init_state_batch(3, 4, rng) == {}
        assert Bare().randomize_state_batch(3, 4, rng) == {}

    def test_fet_repr(self):
        assert "FETProtocol" in repr(FETProtocol(5))
