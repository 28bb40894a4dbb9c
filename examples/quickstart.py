#!/usr/bin/env python3
"""Quickstart: run FET once and watch the population adopt the source's opinion.

Builds a population of n agents with one source that knows the correct
opinion, starts everyone else on the *wrong* opinion with adversarial
internal state, runs the Follow-the-Emerging-Trend protocol (Protocol 1 of
Korman & Vacus, PODC 2022), and prints the trajectory of the fraction of
correct opinions.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import FETProtocol, SynchronousEngine, ell_for, make_population
from repro.core import make_rng
from repro.initializers import AllWrong
from repro.viz import render_trajectory


def main() -> None:
    n = 5000
    seed = 7

    rng = make_rng(seed)
    protocol = FETProtocol(ell_for(n))  # ell = ceil(c * ln n) samples per block
    population = make_population(n, correct_opinion=1)

    # Self-stabilizing setting: the adversary picks the initial opinions AND
    # the protocol's internal counters. AllWrong is the canonical start.
    engine = SynchronousEngine(protocol, population, rng=rng, initializer=AllWrong())

    print(f"n = {n} agents, 1 source, ell = {protocol.ell} samples per block")
    print(f"initial fraction holding the correct opinion: {population.fraction_ones()[0]:.4f}")

    result = engine.run(max_rounds=2000)

    print(f"\nconverged: {result.converged} in {result.rounds} rounds")
    print(f"(Theorem 1 scale for comparison: ln(n)^2.5 = {__import__('math').log(n) ** 2.5:.0f})")
    print("\ntrajectory of x_t (fraction with opinion 1):")
    print(render_trajectory(result.trajectory))


if __name__ == "__main__":
    main()
