"""Tests for the baseline opinion dynamics (voter, majority, USD, sample-majority)."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import scripted_sampler, step_row
from repro.core.engine import run_protocol
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.initializers.standard import AllWrong
from repro.protocols.majority import MajorityProtocol
from repro.protocols.majority_sampling import MajoritySamplingProtocol
from repro.protocols.undecided import UndecidedStateProtocol
from repro.protocols.voter import VoterProtocol


class TestVoter:
    def test_copies_sampled_opinion(self):
        proto = VoterProtocol()
        pop = make_population(4, 1)
        sampler = scripted_sampler(np.array([1, 0, 1, 0]))
        new = step_row(proto, pop, {}, sampler, make_rng(0))
        assert new.tolist() == [1, 0, 1, 0]

    def test_is_passive_single_sample(self):
        proto = VoterProtocol()
        assert proto.passive
        assert proto.samples_per_round() == 1
        assert proto.memory_bits() == 0.0

    def test_fails_from_all_wrong(self):
        """Voter does not spread the source opinion in short horizons."""
        n = 2000
        proto = VoterProtocol()
        pop = make_population(n, 1)
        rng = make_rng(0)
        result = run_protocol(proto, pop, 300, rng=rng, initializer=AllWrong())
        assert not result.converged

    def test_preserves_consensus_of_nonsource_free_system(self):
        n = 100
        proto = VoterProtocol()
        pop = make_population(n, 1)
        pop.set_opinions(np.ones(n, dtype=np.uint8))
        result = run_protocol(proto, pop, 20, rng=1)
        assert result.converged
        assert result.rounds == 0


class TestMajority:
    def test_rejects_even_k(self):
        with pytest.raises(ValueError):
            MajorityProtocol(2)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            MajorityProtocol(-3)

    def test_majority_rule(self):
        proto = MajorityProtocol(3)
        pop = make_population(4, 1)
        sampler = scripted_sampler(np.array([3, 2, 1, 0]))
        new = step_row(proto, pop, {}, sampler, make_rng(0))
        assert new.tolist() == [1, 1, 0, 0]

    def test_locks_wrong_majority(self):
        """3-majority collapses to the initial (wrong) majority and stays."""
        n = 2000
        proto = MajorityProtocol(3)
        pop = make_population(n, 1)
        rng = make_rng(2)
        result = run_protocol(proto, pop, 200, rng=rng, initializer=AllWrong())
        assert not result.converged
        assert result.final_fraction < 0.05  # stuck near the wrong consensus

    def test_amplifies_correct_majority(self):
        n = 1000
        proto = MajorityProtocol(3)
        pop = make_population(n, 1)
        opinions = np.zeros(n, dtype=np.uint8)
        opinions[:700] = 1
        pop.adversarial_opinions(opinions)
        result = run_protocol(proto, pop, 200, rng=3)
        assert result.converged


class TestMajoritySampling:
    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            MajoritySamplingProtocol(0)

    def test_threshold_and_tie(self):
        proto = MajoritySamplingProtocol(4)
        pop = make_population(5, 1)
        pop.adversarial_opinions(np.array([0, 0, 1, 1, 0], dtype=np.uint8))
        sampler = scripted_sampler(np.array([3, 1, 2, 2, 4]))
        new = step_row(proto, pop, {}, sampler, make_rng(0))
        # counts 3>2 -> 1; 1<2 -> 0; tie keeps 1; tie keeps 1; 4>2 -> 1
        assert new.tolist() == [1, 0, 1, 1, 1]

    def test_locks_wrong_majority(self):
        n = 2000
        proto = MajoritySamplingProtocol(20)
        pop = make_population(n, 1)
        rng = make_rng(4)
        result = run_protocol(proto, pop, 300, rng=rng, initializer=AllWrong())
        assert not result.converged
        assert result.final_fraction < 0.05


class TestUndecided:
    def test_memory_accounting(self):
        proto = UndecidedStateProtocol()
        assert proto.memory_bits() == 1.0
        assert proto.samples_per_round() == 1

    def test_decided_agent_becomes_undecided_on_disagreement(self):
        proto = UndecidedStateProtocol()
        pop = make_population(3, 1)
        pop.adversarial_opinions(np.array([1, 0, 1], dtype=np.uint8))
        state = {"undecided": np.zeros(3, dtype=bool)}
        sampler = scripted_sampler(np.array([0, 0, 1]))  # sees 0, 0, 1
        new = step_row(proto, pop, state, sampler, make_rng(0))
        # Agent 0 (opinion 1) saw 0 -> undecided, keeps displaying 1.
        assert new.tolist() == [1, 0, 1]
        assert state["undecided"].tolist() == [True, False, False]

    def test_undecided_agent_adopts_seen(self):
        proto = UndecidedStateProtocol()
        pop = make_population(3, 1)
        pop.adversarial_opinions(np.array([1, 0, 0], dtype=np.uint8))
        state = {"undecided": np.array([False, True, True])}
        sampler = scripted_sampler(np.array([1, 1, 0]))
        new = step_row(proto, pop, state, sampler, make_rng(0))
        assert new.tolist()[1] == 1  # adopted the seen opinion
        assert new.tolist()[2] == 0
        assert not state["undecided"][1] and not state["undecided"][2]

    def test_randomize_state_varies(self):
        proto = UndecidedStateProtocol()
        state = proto.randomize_state_batch(2, 250, make_rng(0))
        assert 0 < state["undecided"].sum() < 500

    def test_fails_from_all_wrong(self):
        n = 2000
        proto = UndecidedStateProtocol()
        pop = make_population(n, 1)
        rng = make_rng(5)
        result = run_protocol(proto, pop, 300, rng=rng, initializer=AllWrong())
        assert not result.converged
        assert result.final_fraction < 0.05
