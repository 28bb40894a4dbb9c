"""Tests for the population factories and the one-row population they build."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchedPopulation
from repro.core.population import (
    make_majority_population,
    make_population,
)


class TestMakePopulation:
    def test_basic_shape(self):
        pop = make_population(10, 1)
        assert pop.opinions.shape == (1, 10)
        assert pop.n == 10
        assert pop.num_sources == 1
        assert pop.correct_opinion == 1

    def test_source_starts_correct(self):
        pop = make_population(10, 1)
        assert pop.opinions[:, pop.source_mask].tolist() == [[1]]

    def test_nonsources_start_wrong(self):
        pop = make_population(10, 1)
        assert (pop.opinions[:, ~pop.source_mask] == 0).all()

    def test_correct_zero(self):
        pop = make_population(10, 0)
        assert pop.opinions[:, pop.source_mask].tolist() == [[0]]
        assert (pop.opinions[:, ~pop.source_mask] == 1).all()

    def test_multiple_sources(self):
        pop = make_population(10, 1, num_sources=3)
        assert pop.num_sources == 3
        assert (pop.source_preferences[pop.source_mask] == 1).all()

    def test_custom_source_indices(self):
        pop = make_population(10, 1, source_indices=[4, 7])
        assert pop.source_mask[4] and pop.source_mask[7]
        assert pop.num_sources == 2

    def test_rejects_bad_num_sources(self):
        with pytest.raises(ValueError):
            make_population(5, 1, num_sources=0)
        with pytest.raises(ValueError):
            make_population(5, 1, num_sources=5)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            make_population(1, 1)

    def test_rejects_bad_opinion(self):
        with pytest.raises(ValueError):
            make_population(5, 2)


class TestFractions:
    def test_fraction_ones_initial(self):
        pop = make_population(10, 1)
        assert pop.fraction_ones().tolist() == pytest.approx([0.1])

    def test_count_ones(self):
        pop = make_population(10, 1)
        assert pop.count_ones().tolist() == [1]

    def test_nonsource_correct_fraction(self):
        pop = make_population(10, 1)
        assert pop.nonsource_correct_fraction().tolist() == [0.0]
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        assert pop.nonsource_correct_fraction().tolist() == [1.0]


class TestSetOpinions:
    def test_pins_source(self):
        pop = make_population(10, 1)
        pop.set_opinions(np.zeros((1, 10), dtype=np.uint8))
        assert pop.opinions[0, 0] == 1  # source re-pinned

    def test_shape_mismatch_rejected(self):
        pop = make_population(10, 1)
        with pytest.raises(ValueError):
            pop.set_opinions(np.zeros((1, 9), dtype=np.uint8))

    def test_no_pin_when_disabled(self):
        pop = make_majority_population(10, k0=2, k1=1)
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        # k0 sources prefer 0 but are not pinned in the majority variant.
        assert (pop.opinions == 1).all()


class TestAdversarialOpinions:
    def test_copies_input(self):
        pop = make_population(10, 1)
        arr = np.ones((1, 10), dtype=np.uint8)
        pop.adversarial_opinions(arr)
        arr[0, 5] = 0
        assert pop.opinions[0, 5] == 1

    def test_pins_by_default(self):
        pop = make_population(10, 1)
        pop.adversarial_opinions(np.zeros((1, 10), dtype=np.uint8))
        assert pop.opinions[0, 0] == 1

    def test_unpinned_mode(self):
        pop = make_majority_population(10, k0=2, k1=1)
        pop.adversarial_opinions(np.ones((1, 10), dtype=np.uint8), pin_sources=False)
        assert (pop.opinions == 1).all()

    def test_rejects_non_binary(self):
        pop = make_population(10, 1)
        with pytest.raises(ValueError):
            pop.adversarial_opinions(np.full((1, 10), 3, dtype=np.uint8))


class TestPredicates:
    def test_at_consensus_false_initially(self):
        assert make_population(10, 1).at_consensus().tolist() == [False]

    def test_at_correct_consensus(self):
        pop = make_population(10, 1)
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        assert pop.at_consensus().tolist() == [True]
        assert pop.at_correct_consensus().tolist() == [True]

    def test_wrong_consensus_detected(self):
        pop = make_majority_population(10, k0=2, k1=1)
        pop.set_opinions(np.ones((1, 10), dtype=np.uint8))
        assert pop.at_consensus().tolist() == [True]
        assert pop.at_correct_consensus().tolist() == [False]  # correct is 0 (k0 majority)


class TestCopy:
    def test_independent_copy(self):
        pop = make_population(10, 1)
        clone = pop.copy()
        clone.opinions[0, 5] = 1
        assert pop.opinions[0, 5] == 0

    def test_copy_preserves_fields(self):
        pop = make_majority_population(12, k0=3, k1=1)
        clone = pop.copy()
        assert clone.correct_opinion == 0
        assert clone.num_sources == 4
        assert clone.pin_each_round == pop.pin_each_round


class TestMajorityPopulation:
    def test_majority_decides_correct(self):
        assert make_majority_population(20, k0=4, k1=2).correct_opinion == 0
        assert make_majority_population(20, k0=2, k1=4).correct_opinion == 1

    def test_tie_rejected(self):
        with pytest.raises(ValueError):
            make_majority_population(20, k0=3, k1=3)

    def test_too_many_sources_rejected(self):
        with pytest.raises(ValueError):
            make_majority_population(5, k0=3, k1=2)

    def test_no_sources_rejected(self):
        with pytest.raises(ValueError):
            make_majority_population(5, k0=0, k1=0)

    def test_sources_unpinned(self):
        assert make_majority_population(20, k0=4, k1=2).pin_each_round is False


class TestValidation:
    def test_requires_source(self):
        with pytest.raises(ValueError):
            BatchedPopulation(
                opinions=np.zeros((1, 5), dtype=np.uint8),
                source_mask=np.zeros(5, dtype=bool),
                source_preferences=np.zeros(5, dtype=np.uint8),
                correct_opinion=0,
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BatchedPopulation(
                opinions=np.zeros((1, 5), dtype=np.uint8),
                source_mask=np.zeros(4, dtype=bool),
                source_preferences=np.zeros(5, dtype=np.uint8),
                correct_opinion=0,
            )

    def test_rejects_non_binary_opinions(self):
        mask = np.zeros(5, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError):
            BatchedPopulation(
                opinions=np.full((1, 5), 2, dtype=np.uint8),
                source_mask=mask,
                source_preferences=np.zeros(5, dtype=np.uint8),
                correct_opinion=0,
            )
