"""Workload inputs, generated from a seed, and the checks on their outputs.

The program only ever sees the specs built here. Every seed the specs
carry comes from one :class:`numpy.random.SeedSequence` over the
benchmark's ``--seed`` (plus a fixed tag for the held-out stream), so the
same seed gives the same inputs and a held-out seed gives inputs no tuning
run has seen.

* ``paper-auto`` — the paper's grids as their users declare them, on the
  default ``engine="auto"``: the baselines lineup, the adversarial-start
  grid with its impossibility witness, the FET throughput headline and
  the noisy-FET θ cells. The checks are the paper's verdicts, as the
  repository's baselines and adversarial-start benchmarks assert them.
* ``counts-large-n`` — the seven protocols with count models at
  n ∈ {1e5, 1e6, 1e7} on ``engine="counts"``, plus noisy FET. The checks
  are per-cell bands (``bands.json``, written by ``calibrate.py``).
* ``service-mixed`` — small run specs for the run service: a store
  pre-fill and a stream of fresh submissions.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.analysis.theory import theorem1_bound
from repro.config import RunSpec
from repro.protocols.fet import ell_for
from repro.protocols.oracle_clock import OracleClockProtocol
from repro.sweep import SweepSpec

__all__ = [
    "BANDS_PATH",
    "SweepWorkload",
    "FreshStream",
    "check_counts",
    "check_paper",
    "counts_grids",
    "paper_grids",
    "prefill_specs",
    "seed_words",
]

#: Extra entropy word of the held-out seed stream ("HELD").
HELDOUT_TAG = 0x48454C44

BANDS_PATH = Path(__file__).with_name("bands.json")

BASELINE_N = 2048
BASELINE_TRIALS = 10
#: ~3·ln(2048)^2.5: who converges in poly-log time; voter-style dynamics
#: reach consensus only on a ~n timescale this budget excludes.
BASELINE_ROUNDS = 650
#: (label, protocol component) in axis order.
LINEUP = [
    ("FET", "fet"),
    ("simple-trend", "simple-trend"),
    ("voter", "voter"),
    ("3-majority", {"name": "k-majority", "k": 3}),
    ("sample-majority", "sample-majority"),
    ("undecided-state", "undecided-state"),
    ("oracle-clock", {"name": "oracle-clock", "ell": 1}),
    ("clock-sync", {"name": "clock-sync", "ell": ell_for(BASELINE_N)}),
]
#: Adversarial starts that only the per-agent engines can run.
ADVERSARIAL_STARTS = [
    {"name": "zero-speed-center"},
    {"name": "poisoned-counters"},
    {"name": "two-round", "x_prev": 0.9, "x_now": 0.1},
    {"name": "two-round", "x_prev": 0.1, "x_now": 0.9},
]
NOISY_N = 1500

COUNT_PROTOCOLS = [
    "fet",
    "simple-trend",
    "voter",
    {"name": "k-majority", "k": 3},
    "sample-majority",
    "undecided-state",
    "hysteresis-fet",
]
COUNT_SIZES = [100_000, 1_000_000, 10_000_000]
COUNT_TRIALS = 128
COUNT_ROUNDS = 650


class SweepWorkload:
    """A sweep workload's grids, dispatcher width, checks and copies.

    ``copies`` concurrent copies of the passes run in separate processes
    when a single process would see one core's speed alone: on a shared
    host each core's speed wanders independently by tens of percent over
    tens of seconds, and a single-process workload's run-to-run spread
    follows it. Two copies of ``counts-large-n`` keep every copy a plain
    single-process ``run_sweep`` while the pooled pass times average both
    cores.
    """

    def __init__(self, name: str, seed: int, heldout: bool = False) -> None:
        if name == "paper-auto":
            self.grids, self.jobs, self.copies = paper_grids(seed, heldout), 2, 1
            self._bands = None
        elif name == "counts-large-n":
            self.grids, self.jobs, self.copies = counts_grids(seed, heldout), 1, 2
            self._bands = load_bands()
        else:
            raise ValueError(f"not a sweep workload: {name!r}")

    def check(self, results: dict) -> list[dict]:
        if self._bands is None:
            return check_paper(results)
        return check_counts(results, self._bands)


def seed_words(seed: int, heldout: bool, count: int) -> list[int]:
    """``count`` independent 31-bit seeds from the benchmark seed."""
    entropy = [int(seed), HELDOUT_TAG] if heldout else [int(seed)]
    words = np.random.SeedSequence(entropy).generate_state(count, dtype=np.uint32)
    return [int(word) >> 1 for word in words]


def paper_grids(seed: int, heldout: bool = False) -> list[tuple[str, SweepSpec]]:
    s = seed_words(seed, heldout, 5)
    return [
        ("baselines", SweepSpec(
            name="baselines",
            seed=s[0],
            trials=BASELINE_TRIALS,
            axes={
                "protocol": [component for _, component in LINEUP],
                "n": [BASELINE_N],
                "initializer": ["all-wrong"],
            },
            max_rounds=BASELINE_ROUNDS,
        )),
        ("adversarial", SweepSpec(
            name="adversarial-inits",
            seed=s[1],
            trials=15,
            axes={"protocol": ["fet"], "n": [BASELINE_N], "initializer": ADVERSARIAL_STARTS},
            max_rounds=int(60 * theorem1_bound(BASELINE_N)),
        )),
        # Section 1.2: frozen unanimity on the majority variant gives
        # indistinguishable observations, so no passive protocol escapes.
        ("impossibility", SweepSpec(
            name="impossibility-witness",
            seed=s[2],
            trials=5,
            axes={
                "protocol": ["fet"],
                "n": [256],
                "initializer": [{"name": "frozen-unanimity", "opinion": 1}],
                "population": [{"name": "majority", "k0": 3, "k1": 2}],
                "correct_opinion": [0],
            },
            max_rounds=200,
            engine="sequential",
        )),
        ("fet-headline", SweepSpec(
            name="fet-throughput",
            seed=s[3],
            trials=500,
            axes={
                "protocol": ["fet"],
                "n": [1000, 10000],
                "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
            },
        )),
        ("noisy-fet", SweepSpec(
            name="noise-robustness",
            seed=s[4],
            trials=6,
            axes={
                "protocol": [{"name": "fet", "ell": ell_for(NOISY_N)}],
                "n": [NOISY_N],
                "noise": [0.01, 0.05],
            },
            max_rounds=5000,
            stability_rounds=1,
            measure={"kind": "theta", "theta": 0.95, "settle_window": 20},
        )),
    ]


def counts_grids(seed: int, heldout: bool = False) -> list[tuple[str, SweepSpec]]:
    s = seed_words(seed, heldout, 2)
    return [
        ("counts", SweepSpec(
            name="counts-large-n",
            seed=s[0],
            trials=COUNT_TRIALS,
            axes={
                "protocol": COUNT_PROTOCOLS,
                "n": COUNT_SIZES,
                "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
            },
            max_rounds=COUNT_ROUNDS,
            engine="counts",
        )),
        ("counts-noisy", SweepSpec(
            name="counts-noisy-fet",
            seed=s[1],
            trials=COUNT_TRIALS,
            axes={"protocol": ["fet"], "n": COUNT_SIZES, "noise": [0.01]},
            max_rounds=COUNT_ROUNDS,
            stability_rounds=1,
            engine="counts",
            measure={"kind": "theta", "theta": 0.95, "settle_window": 20},
        )),
    ]


# ------------------------------------------------------------------ checks


def _check(checks: list, name: str, ok: bool, detail: str = "") -> None:
    checks.append({"check": name, "ok": bool(ok), "detail": detail})


def check_paper(results: dict) -> list[dict]:
    """The paper's verdicts on one pass of ``paper-auto`` (grid -> SweepResult)."""
    checks: list[dict] = []
    by_label = {
        label: res.stats() for (label, _), res in zip(LINEUP, results["baselines"].results)
    }
    for label in ("FET", "simple-trend", "oracle-clock", "clock-sync"):
        got = by_label[label].successes
        _check(checks, f"baselines.{label}.converges", got == BASELINE_TRIALS,
               f"{got}/{BASELINE_TRIALS}")
    # Plain consensus dynamics lock the wrong side within the poly-log
    # budget (one lucky voter escape allowed).
    _check(checks, "baselines.voter.fails", by_label["voter"].successes <= 1,
           f"{by_label['voter'].successes}")
    for label in ("3-majority", "sample-majority", "undecided-state"):
        got = by_label[label].successes
        _check(checks, f"baselines.{label}.fails", got == 0, f"{got}")
    fet_p95 = by_label["FET"].time_summary().p95
    _check(checks, "baselines.FET.p95", fet_p95 < 5 * math.log(BASELINE_N), f"{fet_p95}")
    clock_p95 = by_label["oracle-clock"].time_summary().p95
    period = OracleClockProtocol(BASELINE_N).period
    _check(checks, "baselines.oracle-clock.p95", clock_p95 < 3 * period, f"{clock_p95}")

    for cell, res in zip(results["adversarial"].cells, results["adversarial"].results):
        stats = res.stats()
        _check(checks, f"adversarial.{cell.label()}.converges",
               stats.successes == stats.trials, f"{stats.successes}/{stats.trials}")
    witness = results["impossibility"].results[0].stats()
    _check(checks, "impossibility.never-converges", witness.successes == 0,
           f"{witness.successes}")
    for cell, res in zip(results["fet-headline"].cells, results["fet-headline"].results):
        stats = res.stats()
        _check(checks, f"fet-headline.{cell.label()}.converges",
               stats.successes == stats.trials, f"{stats.successes}/{stats.trials}")
    # Noise: θ=95% is reached at every level, but no noisy level retains
    # exact consensus (the trend rule amplifies defections).
    for cell, res in zip(results["noisy-fet"].cells, results["noisy-fet"].results):
        payload = res.payload
        _check(checks, f"noisy-fet.eps={cell.noise}.reaches",
               payload["reached"] == cell.trials, f"{payload['reached']}/{cell.trials}")
        levels = payload["settle_levels"]
        settle = float(np.mean(levels)) if levels else math.nan
        _check(checks, f"noisy-fet.eps={cell.noise}.not-retained", settle < 0.999, f"{settle}")
    return checks


def cell_band_key(cell) -> str:
    return "|".join([cell.protocol["name"], str(cell.n), cell.initializer["name"], str(cell.noise)])


def cell_outcome(cell, result) -> tuple[int, float]:
    """(successes or θ-reaches, mean rounds over them) of one cell."""
    payload = result.payload
    times = payload["times"]
    hits = payload["reached"] if "reached" in payload else payload["successes"]
    return int(hits), float(np.mean(times)) if len(times) else math.nan


def check_counts(results: dict, bands: dict) -> list[dict]:
    """Each counts cell's successes and mean rounds inside its stated band."""
    checks: list[dict] = []
    for name in ("counts", "counts-noisy"):
        for cell, res in zip(results[name].cells, results[name].results):
            key = cell_band_key(cell)
            band = bands.get(key)
            if band is None:
                _check(checks, f"{key}.band", False, "no stated band")
                continue
            hits, mean = cell_outcome(cell, res)
            lo, hi = band["hits"]
            _check(checks, f"{key}.hits", lo <= hits <= hi, f"{hits} not in [{lo}, {hi}]")
            if band.get("mean") is not None and hits >= band["min_hits_for_mean"]:
                mlo, mhi = band["mean"]
                _check(checks, f"{key}.mean", mlo <= mean <= mhi,
                       f"{mean:.2f} not in [{mlo}, {mhi}]")
    return checks


def load_bands() -> dict:
    return json.loads(BANDS_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------- service

FRESH_SIZES = [500, 1000, 1500, 2000]
FRESH_TRIALS = 16
PREFILL_SIZES = [64, 96, 128, 192, 256]
PREFILL_TRIALS = 4
STARTS = [{"name": "all-wrong"}, {"name": "bernoulli", "p": 0.5}]


def _small_spec(rng: np.random.Generator, sizes: list[int], trials: int) -> RunSpec:
    return RunSpec(
        protocol={"name": "fet"},
        n=int(rng.choice(sizes)),
        initializer=dict(STARTS[int(rng.integers(len(STARTS)))]),
        trials=trials,
        seed=int(rng.integers(2**31)),
    )


def prefill_specs(seed: int, heldout: bool, count: int) -> list[RunSpec]:
    """Small distinct run specs the service's store starts with."""
    rng = np.random.default_rng(seed_words(seed, heldout, 2)[0])
    return [_small_spec(rng, PREFILL_SIZES, PREFILL_TRIALS) for _ in range(count)]


class FreshStream:
    """Deterministic sequence of new, never-computed run specs (~10 ms each)."""

    def __init__(self, seed: int, heldout: bool) -> None:
        self._rng = np.random.default_rng(seed_words(seed, heldout, 2)[1])

    def next(self) -> RunSpec:
        return _small_spec(self._rng, FRESH_SIZES, FRESH_TRIALS)
