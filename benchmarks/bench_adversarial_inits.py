"""E-adv — self-stabilization: convergence from every adversarial start class.

Paper claim: FET converges from an *arbitrary* initial configuration
(opinions and internal counters both adversarial). We measure convergence
time per initializer class, including the structurally hardest one the
analysis identifies — the zero-speed Yellow centre (x_t = x_{t+1} = 1/2) —
and the most misleading counter state (poisoned counters).

Every condition is a declarative :class:`~repro.config.RunSpec` cell built
from registry components (initializers by name, the population layout as a
``population`` component), validated through ``validate_cell`` exactly like
a sweep cell — no hand-built objects. The Section-1.2 impossibility witness
(frozen unanimity on the ``majority`` population variant) rides along as a
negative control: it must *never* converge.
"""

from __future__ import annotations

from bench_common import banner, results_path, run_once
from repro.analysis.theory import theorem1_bound
from repro.config import RunSpec
from repro.sweep.registry import validate_cell
from repro.viz.csv_out import write_rows
from repro.viz.tables import format_table

N = 2048
TRIALS = 15

INITIALIZERS = [
    {"name": "all-correct"},
    {"name": "all-wrong"},
    {"name": "bernoulli", "p": 0.5},
    {"name": "fraction", "x": 0.25},
    {"name": "zero-speed-center"},
    {"name": "poisoned-counters"},
    # violent downward trend toward the wrong side
    {"name": "two-round", "x_prev": 0.9, "x_now": 0.1},
    # violent upward trend toward the correct side
    {"name": "two-round", "x_prev": 0.1, "x_now": 0.9},
]


def _cells(max_rounds: int) -> list[RunSpec]:
    cells = [
        RunSpec(
            protocol={"name": "fet"},
            n=N,
            initializer=initializer,
            trials=TRIALS,
            max_rounds=max_rounds,
            seed=100 + index,
            population={"name": "standard"},
        )
        for index, initializer in enumerate(INITIALIZERS)
    ]
    for cell in cells:
        validate_cell(cell)
    return cells


def _impossibility_cell() -> RunSpec:
    # Section 1.2: all agents frozen at unanimity on the majority variant —
    # indistinguishable observations, so no passive protocol ever escapes.
    cell = RunSpec(
        protocol={"name": "fet"},
        n=256,
        initializer={"name": "frozen-unanimity", "opinion": 1},
        population={"name": "majority", "k0": 3, "k1": 2},
        correct_opinion=0,
        trials=5,
        max_rounds=200,
        seed=99,
        engine="sequential",
    )
    validate_cell(cell)
    return cell


def test_adversarial_initializations(benchmark):
    max_rounds = int(60 * theorem1_bound(N))

    def build():
        return [cell.execute() for cell in _cells(max_rounds)]

    all_stats = run_once(benchmark, build)
    print(banner(f"Self-stabilization — FET from adversarial starts, n={N}"))
    rows = []
    csv_rows = []
    for stats in all_stats:
        summary = stats.time_summary()
        rows.append(
            [
                stats.initializer_name,
                stats.row()["success"],
                summary.median,
                summary.mean,
                summary.p95,
                summary.maximum,
            ]
        )
        csv_rows.append(
            (stats.initializer_name, stats.successes, stats.trials, summary.median, summary.maximum)
        )
    print(format_table(["initializer", "success", "median", "mean", "p95", "max"], rows))
    print(f"\npaper bound scale ln^2.5(n) = {theorem1_bound(N):.1f} rounds")
    write_rows(
        results_path("adversarial_inits.csv"),
        ("initializer", "successes", "trials", "median", "max"),
        csv_rows,
    )

    for stats in all_stats:
        assert stats.successes == stats.trials, f"{stats.initializer_name} failed"
        # every start is exchangeable over the non-sources, so auto runs it
        # on the counts engine
        assert stats.engine == "counts", stats.initializer_name
    # The all-correct start must be (near-)instant: at most a couple of
    # settling rounds caused by adversarial counters.
    ordered = {s.initializer_name: s for s in all_stats}
    assert ordered["all-correct"].time_summary().maximum <= 25


def test_impossibility_witness():
    stats = _impossibility_cell().execute()
    print(banner("Impossibility witness — frozen unanimity, majority variant"))
    print(f"{stats.initializer_name}: {stats.successes}/{stats.trials} converged (must be 0)")
    assert stats.successes == 0
