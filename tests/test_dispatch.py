"""Engine resolution: when ``engine="auto"`` runs a condition on counts.

``RunSpec.resolve_engine`` is the one rule: counts exactly when the
condition is count-capable (``RunSpec.counts_obstacle`` is ``None``) and
``n`` is at or above the protocol's measured crossover
``Protocol.counts_min_n``; batched otherwise — ``auto`` never picks
sequential. The matrix below
is generated from the component registry, so a new protocol or initializer
is covered automatically. The crossover constants themselves are checked
against the recorded scan in ``results/BENCH_counts.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.config import RunSpec
from repro.core.population import make_population
from repro.core.sampling import BatchedBinomialSampler, BatchedSampler
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.registry import (
    build_protocol,
    initializer_names,
    protocol_names,
    validate_cell,
)

RESULTS = Path(__file__).resolve().parent.parent / "results"

#: required parameters of registry initializers that have no defaults
INIT_PARAMS = {
    "fraction": {"x": 0.75},
    "two-round": {"x_prev": 0.9, "x_now": 0.1},
}
#: frozen-unanimity only exists on the crafted majority population, which
#: the override cases below cover
INITIALIZERS = [name for name in initializer_names() if name != "frozen-unanimity"]


def _cases():
    for protocol in protocol_names():
        min_n = build_protocol({"name": protocol}, 64).counts_min_n
        for init in INITIALIZERS:
            for noise in (0.0, 0.05):
                for n in (min_n - 1, min_n):
                    yield protocol, init, noise, n


@pytest.mark.parametrize("protocol_name,init_name,noise,n", list(_cases()))
def test_auto_resolves_to_counts_exactly_when_capable_and_past_crossover(
    protocol_name, init_name, noise, n
):
    spec = RunSpec(
        protocol={"name": protocol_name},
        n=n,
        noise=noise,
        initializer={"name": init_name, **INIT_PARAMS.get(init_name, {})},
        trials=2,
    )
    protocol = spec.build_protocol()
    initializer = spec.build_initializer()
    capable = protocol.counts_supported and initializer.supports_counts
    expected = "counts" if capable and n >= protocol.counts_min_n else "batched"
    assert spec.resolve_engine(protocol, initializer) == expected
    assert (spec.counts_obstacle(protocol, initializer) is None) == capable


def _fet_spec(**overrides) -> RunSpec:
    settings = dict(protocol={"name": "fet", "ell": 8}, n=400, trials=3, max_rounds=300, seed=3)
    settings.update(overrides)
    return RunSpec(**settings)


class FractionlessSampler(BatchedSampler):
    """A batched observation model without the ``effective_fractions`` seam."""

    def __init__(self) -> None:
        self._inner = BatchedBinomialSampler()

    def counts(self, batch, ell, rng):
        return self._inner.counts(batch, ell, rng)

    def count_blocks(self, batch, ell, blocks, rng):
        return self._inner.count_blocks(batch, ell, blocks, rng)


class TestNeverCounts:
    """Per-agent structure keeps ``auto`` off the counts engine at any n."""

    def test_capable_baseline_runs_on_counts(self):
        assert _fet_spec().execute().engine == "counts"

    def test_flip_traces_stay_batched(self):
        spec = SweepSpec(
            axes={"protocol": [{"name": "fet", "ell": 8}], "n": [400]},
            trials=3,
            max_rounds=300,
            measure={"kind": "trace", "flips": True},
        )
        assert run_sweep(spec).rows()[0]["engine"] == "batched"
        plain = SweepSpec(
            axes={"protocol": [{"name": "fet", "ell": 8}], "n": [400]},
            trials=3,
            max_rounds=300,
            measure={"kind": "trace"},
        )
        assert run_sweep(plain).rows()[0]["engine"] == "counts"

    def test_crafted_population_stays_batched(self):
        spec = _fet_spec(
            population={"name": "majority", "k0": 1, "k1": 2}, correct_opinion=1
        )
        assert spec.execute().engine == "batched"
        # the explicit standard layout is the native one: counts as usual
        assert _fet_spec(population={"name": "standard"}).execute().engine == "counts"

    def test_index_sampler_stays_batched(self):
        spec = _fet_spec(sampler={"name": "index"}, trials=1, n=120, max_rounds=50)
        assert spec.execute().engine == "batched"

    def test_live_population_factory_stays_batched(self):
        stats = _fet_spec().execute(population_factory=lambda: make_population(400, 1))
        assert stats.engine == "batched"

    def test_live_sampler_without_fraction_seam_stays_off_counts(self):
        seamless = _fet_spec().execute(batched_sampler=FractionlessSampler())
        assert seamless.engine == "batched"
        # a fraction-keyed sampler makes the override count-capable
        keyed = _fet_spec().execute(batched_sampler=BatchedBinomialSampler())
        assert keyed.engine == "counts"

    def test_explicit_overrides_win(self):
        assert _fet_spec(engine="batched").execute().engine == "batched"
        assert _fet_spec(engine="sequential").execute().engine == "sequential"


class TestOneRule:
    """Explicit-counts rejections are the auto rule's obstacles, verbatim."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"protocol": {"name": "clock-sync"}},
            {"initializer": {"name": "zero-speed-center"}},
            {"population": {"name": "majority", "k0": 1, "k1": 2}},
            {"sampler": {"name": "index"}},
            {"measure": {"kind": "trace", "flips": True}},
        ],
        ids=["protocol", "initializer", "population", "sampler", "flips"],
    )
    def test_validate_cell_reports_the_obstacle(self, overrides):
        auto = _fet_spec(**overrides)
        protocol = auto.build_protocol()
        initializer = auto.build_initializer()
        obstacle = auto.counts_obstacle(protocol, initializer)
        assert obstacle is not None
        assert auto.resolve_engine(protocol, initializer) != "counts"
        with pytest.raises(ValueError) as error:
            validate_cell(_fet_spec(engine="counts", **overrides))
        assert obstacle in str(error.value)


class TestRecordedCrossover:
    """``counts_min_n`` is the crossover of the recorded scan, so ``auto``
    never picks the slower engine on the machine that measured it."""

    scan = json.loads((RESULTS / "BENCH_counts.json").read_text())["scan"]

    @pytest.mark.parametrize(
        "name", sorted({row["protocol"] for row in scan["rows"]})
    )
    def test_counts_min_n_is_the_measured_crossover(self, name):
        rows = [row for row in self.scan["rows"] if row["protocol"] == name]
        min_n = build_protocol({"name": name}, 64).counts_min_n
        scanned = sorted({row["n"] for row in rows})
        assert min_n in scanned
        # counts at least as fast as batched at and above the constant ...
        assert all(row["ratio"] >= 1.0 for row in rows if row["n"] >= min_n)
        # ... and not at the next smaller scanned n (else it would be lower)
        below = [n for n in scanned if n < min_n]
        if below:
            assert min(row["ratio"] for row in rows if row["n"] == below[-1]) < 1.0
        assert self.scan["crossover"][name] == min_n

    def test_scan_covers_every_count_model(self):
        counted = {
            name for name in protocol_names() if build_protocol({"name": name}, 64).counts_supported
        }
        assert counted == {row["protocol"] for row in self.scan["rows"]}
        assert np.isfinite([row["ratio"] for row in self.scan["rows"]]).all()
