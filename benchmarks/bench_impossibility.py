"""E-imposs — the Section 1.2 impossibility witness for the majority variant.

Paper argument: under passive communication, the *majority* bit-dissemination
problem (conflicting sources) cannot be solved in poly-log time. The proof
builds an adversarial state in which every observation is unanimous, so no
agent ever moves — even though the majority of sources prefers the opposite
bit.

We instantiate that construction concretely for FET: all opinions 1, all
counters saturated at ℓ, k0 = n/4 sources preferring 0 against k1 = n/8
preferring 1. The run must stay frozen for a *polynomial* number of rounds
(we use n² — far beyond any poly-log budget). The contrast run shows the
same unanimity state in the single-source problem is simply the (correct)
absorbing state.
"""

from __future__ import annotations

import numpy as np

from bench_common import banner, results_path, run_once
from repro.core.engine import SynchronousEngine
from repro.core.population import make_majority_population, make_population
from repro.core.rng import make_rng
from repro.initializers.adversarial import FrozenUnanimity
from repro.protocols.fet import FETProtocol, ell_for
from repro.viz.csv_out import write_rows
from repro.viz.tables import format_table

SIZES = [64, 128, 256]


def test_impossibility_witness(benchmark):
    def build():
        out = []
        for n in SIZES:
            pop = make_majority_population(n, k0=n // 4, k1=n // 8)
            proto = FETProtocol(ell_for(n))
            result = SynchronousEngine(
                proto, pop, rng=make_rng(n), initializer=FrozenUnanimity(opinion=1)
            ).run(n * n)
            frozen = bool((result.trajectory == 1.0).all())
            out.append((n, n * n, frozen, result.converged))
        return out

    results = run_once(benchmark, build)
    print(banner("Impossibility — majority variant frozen under passive communication"))
    rows = [
        [n, budget, "yes" if frozen else "NO", "yes" if conv else "no"]
        for n, budget, frozen, conv in results
    ]
    print(format_table(["n", "rounds run (n^2)", "frozen whole run", "reached correct"], rows))
    print("k0 = n/4 sources prefer 0 (the correct bit), k1 = n/8 prefer 1;")
    print("adversary: all opinions 1, all counters = ell -> all observations unanimous.")
    write_rows(
        results_path("impossibility.csv"),
        ("n", "rounds", "frozen", "converged"),
        results,
    )

    for n, _, frozen, converged in results:
        assert frozen, f"n={n}: the construction must be deterministically frozen"
        assert not converged


def test_single_source_contrast(benchmark):
    """The identical unanimity state is the legitimate fixed point when the
    (single) source actually prefers 1 — the indistinguishability at the
    heart of the argument."""

    def build():
        n = 128
        pop = make_population(n, 1)
        proto = FETProtocol(ell_for(n))
        pop.set_opinions(np.ones((1, n), dtype=np.uint8))
        state = {"prev_count": np.full((1, n), proto.ell, dtype=np.int64)}
        result = SynchronousEngine(proto, pop, rng=make_rng(0), state=state).run(200)
        return result

    result = run_once(benchmark, build)
    print(banner("Contrast — same state, single correct source: absorbing and correct"))
    print(f"converged={result.converged} rounds={result.rounds} final_x={result.final_fraction}")
    assert result.converged
    assert result.rounds == 0
