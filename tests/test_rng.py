"""Tests for the RNG service."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rng import as_rng, make_rng, spawn_rngs
from repro.core.rng import interleave_seeds


class TestMakeRng:
    def test_returns_generator(self):
        assert isinstance(make_rng(0), np.random.Generator)

    def test_same_seed_same_stream(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = make_rng(1).random(5)
        b = make_rng(2).random(5)
        assert not np.array_equal(a, b)

    def test_none_seed_allowed(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestAsRng:
    def test_passes_generator_through(self):
        gen = make_rng(7)
        assert as_rng(gen) is gen

    def test_coerces_int(self):
        a = as_rng(9).random(3)
        b = make_rng(9).random(3)
        assert np.array_equal(a, b)

    def test_coerces_none(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 7)) == 7

    def test_zero_count(self):
        assert spawn_rngs(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_streams_are_independent(self):
        rngs = spawn_rngs(3, 4)
        draws = [r.random(4) for r in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_reproducible(self):
        a = [r.random(3) for r in spawn_rngs(11, 3)]
        b = [r.random(3) for r in spawn_rngs(11, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_different_from_plain_seed(self):
        spawned = spawn_rngs(5, 1)[0].random(4)
        plain = make_rng(5).random(4)
        assert not np.array_equal(spawned, plain)


class TestInterleaveSeeds:
    def test_labels_mapped(self):
        mapping = interleave_seeds(0, ["a", "b"])
        assert set(mapping) == {"a", "b"}

    def test_stable_assignment(self):
        m1 = interleave_seeds(0, ["a", "b"])
        m2 = interleave_seeds(0, ["a", "b"])
        assert np.array_equal(m1["a"].random(3), m2["a"].random(3))
