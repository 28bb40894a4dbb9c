"""Property-based tests (hypothesis) on the core invariants.

These probe the analytical layer and the simulation substrate with randomly
generated inputs: probability identities of coin competitions, classification
invariants of the domain partitions, conservation laws of the engine.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import never
from repro.analysis.coins import compare_binomials
from repro.analysis.domains import Domain, DomainPartition, YellowArea
from repro.analysis.drift import drift_g
from repro.core.engine import SynchronousEngine
from repro.core.population import make_population
from repro.core.rng import make_rng
from repro.protocols.fet import FETProtocol

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_interior = st.floats(min_value=0.001, max_value=0.999, allow_nan=False)
sample_sizes = st.integers(min_value=1, max_value=40)


class TestCoinProperties:
    @given(k=sample_sizes, p=probabilities, q=probabilities)
    @settings(max_examples=60, deadline=None)
    def test_outcomes_partition_unity(self, k, p, q):
        cmp_ = compare_binomials(k, p, q)
        assert cmp_.total == math.isclose(cmp_.total, 1.0, abs_tol=1e-9) or abs(cmp_.total - 1.0) < 1e-9
        assert cmp_.p_first_wins >= 0 and cmp_.p_tie >= 0 and cmp_.p_second_wins >= 0

    @given(k=sample_sizes, p=probabilities, q=probabilities)
    @settings(max_examples=60, deadline=None)
    def test_swap_symmetry(self, k, p, q):
        a = compare_binomials(k, p, q)
        b = compare_binomials(k, q, p)
        assert math.isclose(a.p_first_wins, b.p_second_wins, abs_tol=1e-9)
        assert math.isclose(a.p_tie, b.p_tie, abs_tol=1e-9)

    @given(k=sample_sizes, p=probabilities)
    @settings(max_examples=40, deadline=None)
    def test_identical_coins_are_fair(self, k, p):
        cmp_ = compare_binomials(k, p, p)
        assert math.isclose(cmp_.p_first_wins, cmp_.p_second_wins, abs_tol=1e-9)

    @given(k=sample_sizes, p=unit_interior)
    @settings(max_examples=40, deadline=None)
    def test_stochastic_dominance(self, k, p):
        """A strictly better coin never has a lower win probability."""
        q = min(1.0, p + 0.2)
        better_wins = compare_binomials(k, q, p).p_first_wins
        worse_wins = compare_binomials(k, p, q).p_first_wins
        assert better_wins >= worse_wins - 1e-9


class TestDriftProperties:
    @given(x=probabilities, y=probabilities, ell=sample_sizes)
    @settings(max_examples=60, deadline=None)
    def test_g_is_a_probability(self, x, y, ell):
        assert 0.0 <= drift_g(x, y, ell, 100) <= 1.0

    @given(x=unit_interior, y=unit_interior, ell=sample_sizes)
    @settings(max_examples=40, deadline=None)
    def test_g_respects_symmetry(self, x, y, ell):
        """g(x, y) + g(1-x, 1-y) ≈ 1 up to the O(1/n) source term."""
        n = 10_000
        total = drift_g(x, y, ell, n) + drift_g(1 - x, 1 - y, ell, n)
        assert abs(total - 1.0) <= 2.0 / n + 1e-9


class TestDomainProperties:
    @given(
        x=probabilities,
        y=probabilities,
        n=st.sampled_from([100, 1000, 10**6]),
        delta=st.floats(min_value=0.01, max_value=0.12),
    )
    @settings(max_examples=80, deadline=None)
    def test_classification_total_and_deterministic(self, x, y, n, delta):
        part = DomainPartition(n=n, delta=delta)
        a = part.classify(x, y)
        b = part.classify(x, y)
        assert a is b
        assert isinstance(a, Domain)

    @given(x=probabilities, y=probabilities)
    @settings(max_examples=80, deadline=None)
    def test_reflection_symmetry(self, x, y):
        part = DomainPartition(n=1000, delta=0.05)
        swap = {
            Domain.GREEN1: Domain.GREEN0,
            Domain.GREEN0: Domain.GREEN1,
            Domain.PURPLE1: Domain.PURPLE0,
            Domain.PURPLE0: Domain.PURPLE1,
            Domain.RED1: Domain.RED0,
            Domain.RED0: Domain.RED1,
            Domain.CYAN1: Domain.CYAN0,
            Domain.CYAN0: Domain.CYAN1,
            Domain.YELLOW: Domain.YELLOW,
            Domain.NONE: Domain.NONE,
        }
        assert part.classify(1 - x, 1 - y) is swap[part.classify(x, y)]

    @given(x=probabilities, y=probabilities)
    @settings(max_examples=80, deadline=None)
    def test_yellow_area_covers_square(self, x, y):
        part = DomainPartition(n=1000, delta=0.05)
        lo, hi = part.yellow_prime_lo, part.yellow_prime_hi
        px = lo + x * (hi - lo)
        py = lo + y * (hi - lo)
        assert part.classify_yellow_area(px, py) is not YellowArea.OUTSIDE

    @given(x=probabilities, y=probabilities)
    @settings(max_examples=60, deadline=None)
    def test_speed_nonnegative(self, x, y):
        part = DomainPartition(n=1000)
        assert part.speed(x, y) >= 0.0


class TestEngineProperties:
    @given(
        n=st.integers(min_value=4, max_value=120),
        ell=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        rounds=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=30, deadline=None)
    def test_source_invariant_and_opinions_binary(self, n, ell, seed, rounds):
        proto = FETProtocol(ell)
        pop = make_population(n, 1)
        rng = make_rng(seed)
        state = proto.randomize_state_batch(1, n, rng)
        pop.adversarial_opinions(rng.integers(0, 2, size=(1, n)).astype(np.uint8))
        engine = SynchronousEngine(proto, pop, rng=rng, state=state)
        for _ in range(rounds):
            engine.run(1, stop_condition=never)
            assert pop.opinions[:, pop.source_mask].tolist() == [[1]]
            assert np.isin(pop.opinions, (0, 1)).all()
            assert state["prev_count"].min() >= 0
            assert state["prev_count"].max() <= ell

    @given(
        n=st.integers(min_value=4, max_value=80),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_correct_consensus_is_absorbing(self, n, seed):
        """From (1, 1) — consensus held two rounds — FET never moves."""
        proto = FETProtocol(5)
        pop = make_population(n, 1)
        pop.set_opinions(np.ones((1, n), dtype=np.uint8))
        state = {"prev_count": np.full((1, n), 5, dtype=np.int64)}
        engine = SynchronousEngine(proto, pop, rng=make_rng(seed), state=state)
        result = engine.run(5, stop_condition=never)
        assert (result.trajectory == 1.0).all()
        assert pop.at_correct_consensus().all()
