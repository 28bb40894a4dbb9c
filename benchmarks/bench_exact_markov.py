"""E-markov — Observation 1's exact chain vs. the simulator.

For small n the pair process (x_t, x_{t+1}) is solved exactly: we build the
transition law implied by Observation 1 and compute expected absorption times
into (1, 1) by linear algebra, then check the Monte-Carlo simulator against
them. This is the strongest end-to-end validation of the engines: any
discrepancy in sampling, update rule, or source pinning would surface here.
"""

from __future__ import annotations

import numpy as np

from bench_common import banner, results_path, run_once
from repro.analysis.markov import ExactPairChain
from repro.config import RunSpec
from repro.viz.csv_out import write_rows
from repro.viz.tables import format_table

CASES = [(8, 3), (10, 4), (12, 4)]
ENGINES = ("batched", "counts")
TRIALS = 4000


def _absorption_steps(n: int, ell: int, engine: str, seed: int) -> np.ndarray:
    """Simulated absorption step counts ``t_con + 1`` from the pair state
    (1, 1): all wrong, with counters as if only the source held 1 last
    round (the two-round start at ``x_prev = 1/n``, ``x_now = 0``)."""
    stats = RunSpec(
        protocol={"name": "fet", "ell": ell},
        n=n,
        initializer={"name": "two-round", "x_prev": 1 / n, "x_now": 0.0},
        trials=TRIALS,
        max_rounds=5000,
        seed=seed,
        engine=engine,
    ).execute()
    assert stats.successes == TRIALS, f"n={n} {engine}: a trial missed the budget"
    return stats.times + 1


def test_exact_chain_vs_simulation(benchmark):
    def build():
        rows = []
        for n, ell in CASES:
            exact = ExactPairChain(n=n, ell=ell).expected_time_from_all_wrong()
            for engine in ENGINES:
                steps = _absorption_steps(n, ell, engine, seed=n * 13 + ell)
                standard_error = float(steps.std(ddof=1) / np.sqrt(TRIALS))
                rows.append((n, ell, engine, exact, float(steps.mean()), standard_error))
        return rows

    rows = run_once(benchmark, build)
    print(banner("Observation 1 — exact absorption times vs. simulated means"))
    print(format_table(
        ["n", "ell", "engine", "exact E[T] from (1,1)", f"mean t_con+1 ({TRIALS} trials)", "z"],
        [
            [n, e, engine, round(x, 3), round(s, 3), round((s - x) / se, 2)]
            for n, e, engine, x, s, se in rows
        ],
    ))
    print("(the pair chain reaches (n, n) one round after t_con)")
    write_rows(
        results_path("exact_markov.csv"),
        ("n", "ell", "engine", "exact", "simulated", "standard_error"),
        rows,
    )

    for n, ell, engine, exact, simulated, standard_error in rows:
        assert abs(simulated - exact) <= 4 * standard_error, (
            f"n={n} {engine}: simulator disagrees with the exact chain"
        )


def test_absorption_time_heatmap(benchmark):
    """Expected time from every pair state at n = 10 — the exact analogue of
    the per-domain dwell analysis at toy scale."""

    def build():
        chain = ExactPairChain(n=10, ell=4)
        times = chain.expected_absorption_times()
        return chain, times

    chain, times = run_once(benchmark, build)
    print(banner("Exact E[absorption time] over all pair states, n=10, ell=4"))
    header = ["i\\j"] + [str(j) for j in range(1, 11)]
    table = []
    for i in range(1, 11):
        row = [str(i)] + [
            f"{times[chain.state_index(i, j)]:.1f}" for j in range(1, 11)
        ]
        table.append(row)
    print(format_table(header, table))
    write_rows(
        results_path("exact_markov_heatmap.csv"),
        ("i", "j", "expected_time"),
        [
            (i, j, float(times[chain.state_index(i, j)]))
            for i in range(1, 11)
            for j in range(1, 11)
        ],
    )
    # Structure: the absorbing corner is 0; the hardest states sit on the
    # downward-trend side (high i, low j).
    assert times[chain.absorbing_index] == 0.0
    assert times[chain.state_index(10, 1)] > times[chain.state_index(1, 10)]
