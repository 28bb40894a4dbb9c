"""Engine resolution: when ``engine="auto"`` runs a condition on counts.

``RunSpec.resolve_engine`` is the one rule: counts exactly when the
condition is count-capable (``RunSpec.counts_obstacle`` is ``None``), at
every ``n``; batched otherwise — ``auto`` never picks sequential. The
matrix below is generated from the component registry, so a new protocol
or initializer is covered automatically.
"""

from __future__ import annotations

import pytest

from repro.config import RunSpec
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.registry import (
    initializer_names,
    protocol_names,
    validate_cell,
)

#: required parameters of registry initializers that have no defaults
INIT_PARAMS = {
    "fraction": {"x": 0.75},
    "two-round": {"x_prev": 0.9, "x_now": 0.1},
}
#: frozen-unanimity only exists on the crafted majority population, which
#: the override cases below cover
INITIALIZERS = [name for name in initializer_names() if name != "frozen-unanimity"]


#: population sizes from the smallest with a non-source up: the rule has
#: no size test, so every size resolves alike
SIZES = (2, 31, 99, 4095)


def _cases():
    for protocol in protocol_names():
        for init in INITIALIZERS:
            for noise in (0.0, 0.05):
                for n in SIZES:
                    yield protocol, init, noise, n


@pytest.mark.parametrize("protocol_name,init_name,noise,n", list(_cases()))
def test_auto_resolves_to_counts_exactly_when_capable(protocol_name, init_name, noise, n):
    spec = RunSpec(
        protocol={"name": protocol_name},
        n=n,
        noise=noise,
        initializer={"name": init_name, **INIT_PARAMS.get(init_name, {})},
        trials=2,
    )
    protocol = spec.build_protocol()
    spec.build_initializer()
    capable = spec.counts_obstacle(protocol) is None
    assert capable == protocol.counts_supported
    assert spec.resolve_engine(protocol) == ("counts" if capable else "batched")


def _fet_spec(**overrides) -> RunSpec:
    settings = dict(protocol={"name": "fet", "ell": 8}, n=400, trials=3, max_rounds=300, seed=3)
    settings.update(overrides)
    return RunSpec(**settings)


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

    def test_fraction_keyed_sampler_runs_on_counts(self):
        # a declared sampler with the effective_fractions seam is count-capable
        spec = _fet_spec(sampler={"name": "noisy", "epsilon": 0.05})
        assert spec.counts_obstacle(spec.build_protocol()) is None
        assert spec.execute().engine == "counts"

    def test_explicit_overrides_win(self):
        assert _fet_spec(engine="batched").execute().engine == "batched"
        assert _fet_spec(engine="sequential").execute().engine == "sequential"


class TestCraftedStarts:
    """The paper's crafted starts are exchangeable over the non-sources, so
    they are no obstacle: ``auto`` runs them on counts."""

    @pytest.mark.parametrize(
        "initializer",
        [
            {"name": "zero-speed-center"},
            {"name": "poisoned-counters"},
            {"name": "two-round", "x_prev": 0.9, "x_now": 0.1},
        ],
        ids=["zero-speed-center", "poisoned-counters", "two-round"],
    )
    def test_crafted_start_is_count_capable(self, initializer):
        auto = _fet_spec(initializer=initializer)
        protocol = auto.build_protocol()
        assert auto.counts_obstacle(protocol) is None
        assert auto.resolve_engine(protocol) == "counts"
        validate_cell(_fet_spec(engine="counts", initializer=initializer))

    def test_zero_speed_center_at_a_billion_agents(self):
        stats = RunSpec(
            protocol={"name": "fet"},
            n=10**9,
            initializer={"name": "zero-speed-center"},
            trials=32,
            seed=9,
        ).execute()
        assert stats.engine == "counts"
        assert stats.successes == 32


class TestOneRule:
    """Explicit-counts rejections are the auto rule's obstacles, verbatim."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"protocol": {"name": "clock-sync"}},
            {"population": {"name": "majority", "k0": 1, "k1": 2}},
            {"sampler": {"name": "index"}},
            {"measure": {"kind": "trace", "flips": True}},
        ],
        ids=["protocol", "population", "sampler", "flips"],
    )
    def test_validate_cell_reports_the_obstacle(self, overrides):
        auto = _fet_spec(**overrides)
        protocol = auto.build_protocol()
        obstacle = auto.counts_obstacle(protocol)
        assert obstacle is not None
        assert auto.resolve_engine(protocol) != "counts"
        with pytest.raises(ValueError) as error:
            validate_cell(_fet_spec(engine="counts", **overrides))
        assert obstacle in str(error.value)

