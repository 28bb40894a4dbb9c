"""E-ablate — why split the sample? FET vs. the single-counter variant.

Paper context (Section 1.3): the first trend protocol reuses one counter in
two consecutive comparisons, creating a dependence between Y_t and Y_{t+1}
that blocks the analysis; FET removes it by splitting each round's 2ℓ samples
into two blocks. The paper changes the protocol *for the proof's sake* and
expects no behavioural regression. This ablation measures both variants —
same per-comparison sample size ℓ — from benign and adversarial starts.
"""

from __future__ import annotations

from bench_common import banner, results_path, run_once
from repro.config import RunSpec
from repro.initializers.adversarial import ZeroSpeedCenter
from repro.initializers.standard import AllWrong, BernoulliRandom
from repro.protocols.fet import ell_for
from repro.viz.csv_out import write_rows
from repro.viz.tables import format_table

NS = [1024, 4096]
TRIALS = 12
MAX_ROUNDS = 20_000

INITS = [AllWrong(), BernoulliRandom(0.5), ZeroSpeedCenter()]


def test_split_sample_ablation(benchmark):
    def build():
        out = []
        for n in NS:
            ell = ell_for(n)
            for init_index, init in enumerate(INITS):
                for label, name in (("FET", "fet"), ("simple-trend", "simple-trend")):
                    stats = RunSpec(
                        protocol={"name": name, "ell": ell},
                        n=n,
                        trials=TRIALS,
                        max_rounds=MAX_ROUNDS,
                        seed=900 + init_index,
                    ).execute(initializer=init)
                    out.append((n, init.name, label, stats))
        return out

    results = run_once(benchmark, build)
    print(banner("Ablation — sample split (FET) vs single counter (simple-trend)"))
    table = []
    csv_rows = []
    for n, init_name, label, stats in results:
        summary = stats.time_summary()
        table.append([n, init_name, label, stats.row()["success"], summary.median, summary.p95])
        csv_rows.append((n, init_name, label, stats.successes, stats.trials, summary.median))
    print(format_table(["n", "init", "variant", "success", "median T", "p95 T"], table))
    print("\n(The split costs 2x samples per round and exists to decouple")
    print(" consecutive comparisons for the analysis; behaviour should match.)")
    write_rows(
        results_path("ablation_split.csv"),
        ("n", "init", "variant", "successes", "trials", "median"),
        csv_rows,
    )

    for n, init_name, label, stats in results:
        assert stats.successes == stats.trials, f"{label} failed from {init_name} at n={n}"
    # Same-order convergence times: medians within 4x of each other per cell.
    cells = {}
    for n, init_name, label, stats in results:
        cells.setdefault((n, init_name), {})[label] = stats.time_summary().median
    for (n, init_name), pair in cells.items():
        hi = max(pair.values())
        lo = max(1.0, min(pair.values()))
        assert hi / lo < 4.0, f"variants diverge at n={n}, init={init_name}"
