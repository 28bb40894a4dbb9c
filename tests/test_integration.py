"""Integration tests: end-to-end scenarios across the whole stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.domains import DomainPartition
from repro.analysis.theory import theorem1_bound
from repro.config import RunSpec
from repro.core.engine import SynchronousEngine
from repro.core.population import make_majority_population, make_population
from repro.core.rng import make_rng
from repro.core.sampling import IndexSampler
from repro.initializers.adversarial import FrozenUnanimity, TwoRoundTarget
from repro.initializers.standard import AllWrong, ExactFraction
from repro.protocols.fet import FETProtocol, ell_for
from repro.protocols.oracle_clock import OracleClockProtocol


class TestAdversarialGrid:
    """FET converges from a grid of adversarial (x_prev, x_now) targets."""

    @pytest.mark.parametrize("x_prev,x_now", [(0.0, 0.0), (0.5, 0.5), (0.9, 0.1), (0.1, 0.9), (1.0, 1.0)])
    def test_converges(self, x_prev, x_now):
        n = 800
        proto = FETProtocol(ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(int(x_prev * 10) * 17 + int(x_now * 10))
        result = SynchronousEngine(
            proto, pop, rng=rng, initializer=TwoRoundTarget(x_prev, x_now)
        ).run(4000)
        assert result.converged


class TestTheorem1Shape:
    def test_median_below_scaled_bound(self):
        """Measured medians stay below a constant multiple of log^{5/2} n."""
        for n in (256, 1024, 4096):
            stats = RunSpec(
                protocol={"name": "fet", "ell": ell_for(n)},
                n=n,
                trials=6,
                max_rounds=int(50 * theorem1_bound(n)),
                seed=n,
            ).execute()
            assert stats.successes == stats.trials
            assert np.median(stats.times) < 3.0 * theorem1_bound(n)

    def test_worst_case_init_still_polylog(self):
        n = 1024
        stats = RunSpec(
            protocol={"name": "fet", "ell": ell_for(n)},
            n=n,
            initializer={"name": "zero-speed-center"},
            trials=6,
            max_rounds=int(50 * theorem1_bound(n)),
            seed=7,
        ).execute()
        assert stats.successes == stats.trials


class TestSimpleTrendParity:
    def test_simple_trend_also_converges(self):
        """The single-counter ablation behaves like FET empirically."""
        n = 1000
        stats = RunSpec(
            protocol={"name": "simple-trend", "ell": ell_for(n)},
            n=n,
            initializer={"name": "bernoulli", "p": 0.5},
            trials=6,
            max_rounds=5000,
            seed=11,
        ).execute()
        assert stats.successes == stats.trials


class TestPassiveVsOracle:
    def test_oracle_clock_faster_but_not_self_contained(self):
        """Oracle clock wins on speed; FET wins on assumptions."""
        n = 1024
        fet_stats = RunSpec(
            protocol={"name": "fet", "ell": ell_for(n)}, n=n, trials=5, max_rounds=5000, seed=13
        ).execute()
        oracle = OracleClockProtocol(n, ell=1)
        oracle_stats = RunSpec(
            protocol={"name": "oracle-clock", "ell": 1},
            n=n,
            trials=5,
            max_rounds=20 * oracle.period,
            seed=13,
        ).execute()
        assert fet_stats.successes == oracle_stats.successes == 5
        # FET pays a samples-per-round premium for self-containment.
        assert FETProtocol(ell_for(n)).samples_per_round() > oracle.samples_per_round()


class TestImpossibilityWitness:
    def test_majority_variant_frozen_for_polynomial_time(self):
        n = 128
        pop = make_majority_population(n, k0=n // 4, k1=n // 8)
        proto = FETProtocol(16)
        rng = make_rng(5)
        result = SynchronousEngine(
            proto, pop, rng=rng, initializer=FrozenUnanimity(opinion=1)
        ).run(n * n)
        assert not result.converged
        assert (result.trajectory == 1.0).all()

    def test_single_source_variant_escapes_same_state(self):
        """Contrast: with a pinned source the same unanimity is *correct*."""
        n = 128
        pop = make_population(n, 1)
        proto = FETProtocol(16)
        rng = make_rng(6)
        state = {"prev_count": np.full((1, n), 16, dtype=np.int64)}
        pop.set_opinions(np.ones((1, n), dtype=np.uint8))
        result = SynchronousEngine(proto, pop, rng=rng, state=state).run(100)
        assert result.converged


class TestDomainTrajectoryConsistency:
    def test_all_wrong_bounce_visits_cyan_then_green_side(self):
        n = 2000
        proto = FETProtocol(ell_for(n))
        pop = make_population(n, 1)
        rng = make_rng(8)
        result = SynchronousEngine(proto, pop, rng=rng, initializer=AllWrong()).run(3000)
        part = DomainPartition(n=n)
        families = [part.classify(float(x), float(y)).family for x, y in result.pairs()]
        assert families[0] == "Cyan"
        assert result.converged


class TestIndexSamplerEndToEnd:
    def test_literal_model_converges(self):
        n = 400
        proto = FETProtocol(ell_for(n, 4.0))
        pop = make_population(n, 1)
        rng = make_rng(10)
        result = SynchronousEngine(
            proto,
            pop,
            sampler=IndexSampler(exclude_self=True),
            rng=rng,
            initializer=ExactFraction(0.5),
        ).run(3000)
        assert result.converged
