"""Tests for the unified run-config API (`repro.config.RunSpec`) and the
spec-v2 sweep surface it unlocks: JSON round-trips, legacy v1 loading with
byte-identical aggregates, extended/dotted axes, sampler pairing, store
compaction, and the multisource migration."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import tiled
from repro.config import RunSpec, canonical_json, derive_seed
from repro.core.noise import BatchedNoisyCountSampler
from repro.core.population import make_population
from repro.core.sampling import BatchedBinomialSampler, IndexSampler
from repro.experiments.multisource import sweep_sources
from repro.initializers.standard import AllWrong
from repro.protocols.fet import FETProtocol
from repro.sweep import (
    AXES,
    EXTENDED_AXES,
    Cell,
    ResultsStore,
    SweepSpec,
    build_samplers,
    component_catalog,
    initializer_names,
    load_spec,
    protocol_names,
    run_sweep,
    sampler_names,
)

DATA = Path(__file__).parent / "data"


def demo_spec(**overrides) -> RunSpec:
    settings = dict(
        protocol={"name": "fet", "ell": 10},
        n=120,
        trials=4,
        max_rounds=100,
        seed=9,
    )
    settings.update(overrides)
    return RunSpec(**settings)


class TestRunSpecBasics:
    def test_json_round_trip(self):
        spec = demo_spec(
            noise=0.05,
            sampler={"name": "noisy", "epsilon": 0.05},
            num_sources=3,
            correct_opinion=0,
            linger_rounds=5,
        )
        twin = RunSpec.from_json(spec.to_json())
        assert twin == spec
        assert twin.key() == spec.key()
        # canonical form is byte-stable
        assert twin.to_json() == spec.to_json()

    def test_bare_component_names_are_normalized(self):
        bare = RunSpec(
            protocol="voter",
            n=64,
            trials=2,
            seed=0,
            initializer="all-wrong",
            sampler="binomial",
            population="standard",
        )
        full = RunSpec(
            protocol={"name": "voter"},
            n=64,
            trials=2,
            seed=0,
            initializer={"name": "all-wrong"},
            sampler={"name": "binomial"},
            population={"name": "standard"},
        )
        assert bare == full
        assert bare.key() == full.key()
        a, b = bare.execute(), full.execute()
        assert (a.engine, a.successes) == (b.engine, b.successes)
        np.testing.assert_array_equal(a.times, b.times)
        with pytest.raises(ValueError, match="protocol entries need a 'name' key"):
            RunSpec(protocol={"ell": 4}, n=64)

    def test_file_round_trip(self, tmp_path):
        spec = demo_spec()
        path = tmp_path / "run.json"
        path.write_text(spec.to_json())
        assert RunSpec.from_dict(json.loads(path.read_text())) == spec

    def test_default_fields_elided_from_hash_input(self):
        # Hash-compat: a spec with every new field at its default must emit
        # exactly the nine v1 keys, so pre-existing conditions keep their
        # content hashes, derived seeds, and store keys.
        spec = demo_spec()
        assert set(spec.spec_dict()) == {
            "protocol",
            "n",
            "noise",
            "initializer",
            "trials",
            "max_rounds",
            "stability_rounds",
            "engine",
            "measure",
        }

    def test_non_default_fields_enter_the_hash(self):
        base = demo_spec()
        assert demo_spec(num_sources=4).key() != base.key()
        assert demo_spec(linger_rounds=3).key() != base.key()
        assert demo_spec(sampler={"name": "binomial"}).key() != base.key()
        assert demo_spec(correct_opinion=0).key() != base.key()

    def test_validation(self):
        with pytest.raises(ValueError, match="trials must be >= 0"):
            demo_spec(trials=-1)
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            demo_spec(max_rounds=0)
        with pytest.raises(ValueError, match="num_sources must be in"):
            demo_spec(num_sources=0)
        with pytest.raises(ValueError, match="num_sources must be in"):
            demo_spec(num_sources=120)
        with pytest.raises(ValueError, match="linger_rounds"):
            demo_spec(linger_rounds=-1)
        with pytest.raises(ValueError, match="correct_opinion"):
            demo_spec(correct_opinion=2)
        with pytest.raises(ValueError, match="engine must be"):
            demo_spec(engine="gpu")
        with pytest.raises(ValueError, match="noise levels"):
            demo_spec(noise=0.7)
        # an explicit sampler replaces the noise-derived one: the run would
        # observe at another ε than its label, row and hash declare
        with pytest.raises(ValueError, match="conflicts with sampler"):
            RunSpec(
                protocol="fet", n=200, noise=0.2, sampler={"name": "binomial"}, trials=50, seed=1
            )
        with pytest.raises(ValueError, match="conflicts with sampler"):
            demo_spec(noise=0.2, sampler={"name": "noisy", "epsilon": 0.01})

    def test_protocol_none_cannot_serialize(self):
        spec = RunSpec(protocol=None, n=50, trials=1, max_rounds=10)
        with pytest.raises(ValueError, match="cannot be serialized"):
            spec.spec_dict()
        with pytest.raises(ValueError, match="no protocol component"):
            spec.build_protocol()

    def test_resolved_max_rounds_poly_log_rule(self):
        spec = demo_spec(max_rounds=None, n=1000)
        assert spec.resolved_max_rounds() == max(200, int(40 * np.log(1000) ** 2.5))
        assert demo_spec(max_rounds=77).resolved_max_rounds() == 77

    def test_derive_seed_is_content_addressed(self):
        a = derive_seed(1, {"x": 1})
        assert a == derive_seed(1, {"x": 1})
        assert a != derive_seed(2, {"x": 1})
        assert a != derive_seed(1, {"x": 2})
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestRunSpecExecution:
    def test_execute_matches_live_overrides(self):
        # Declared components and live instances passed to execute are the
        # same core: identical streams, identical aggregates.
        spec = demo_spec()
        direct = spec.execute()
        live = RunSpec(
            protocol=None, n=spec.n, trials=spec.trials, max_rounds=spec.max_rounds, seed=spec.seed
        ).execute(protocol=FETProtocol(10), initializer=AllWrong())
        assert direct.successes == live.successes
        assert np.array_equal(direct.times, live.times)
        # a count-capable FET cell: both resolve to counts.
        assert direct.engine == live.engine == "counts"

    def test_execute_multisource_population(self):
        spec = demo_spec(num_sources=30)
        stats = spec.execute()
        assert stats.engine == "counts"
        assert stats.successes == stats.trials
        # the declared source count reaches whichever engine auto picks
        assert spec.count_engine().population.num_sources == 30
        assert spec.batched_engine().batch.num_sources == 30

    def test_execute_correct_opinion_zero(self):
        stats = demo_spec(correct_opinion=0).execute()
        assert stats.successes == stats.trials

    def test_index_sampler_runs_on_lockstep_engines(self):
        spec = demo_spec(sampler={"name": "index"}, trials=2, n=60)
        stats = spec.execute()
        assert stats.engine == "batched"
        assert stats.successes == 2
        explicit = demo_spec(sampler={"name": "index"}, trials=2, n=60, engine="batched")
        assert explicit.execute().successes == 2
        with pytest.raises(ValueError, match="fraction-keyed"):
            demo_spec(sampler={"name": "index"}, engine="counts").execute()

    def test_batched_engine_prepared(self):
        spec = demo_spec(trials=3, num_sources=5)
        engine = spec.batched_engine()
        assert engine.batch.replicas == 3
        assert engine.batch.source_mask.sum() == 5
        result = engine.run(spec.max_rounds, stability_rounds=spec.stability_rounds)
        assert result.converged.all()

    def test_noise_resolves_noisy_sampler(self):
        batched = demo_spec(noise=0.1).samplers()
        assert isinstance(batched, BatchedNoisyCountSampler)
        assert batched.epsilon == 0.1
        assert isinstance(demo_spec().samplers(), BatchedBinomialSampler)


class TestSamplerRegistry:
    def test_noisy_sampler_carries_epsilon(self):
        batched = build_samplers({"name": "noisy", "epsilon": 0.2})
        assert isinstance(batched, BatchedNoisyCountSampler)
        assert batched.epsilon == 0.2

    def test_index_sampler_is_batched(self):
        sampler = build_samplers({"name": "index", "exclude_self": True})
        assert isinstance(sampler, IndexSampler) and sampler.exclude_self
        assert not hasattr(sampler, "effective_fractions")

    def test_unknown_names_and_params_rejected(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            build_samplers({"name": "quantum"})
        with pytest.raises(ValueError, match="unknown parameters"):
            build_samplers({"name": "binomial", "epsilon": 0.1})
        with pytest.raises(ValueError, match="epsilon"):
            build_samplers({"name": "noisy"})

    def test_catalog_covers_registries_exactly(self):
        catalog = component_catalog()
        assert sorted(catalog["protocol"]) == protocol_names()
        assert sorted(catalog["initializer"]) == initializer_names()
        assert sorted(catalog["sampler"]) == sampler_names()
        assert catalog["protocol"]["hysteresis-fet"] == ["band", "ell", "sample_constant"]
        assert catalog["sampler"]["noisy"] == ["epsilon"]

    def test_noisy_sampler_matches_flip_noise_law(self):
        """The registry's noisy sampler draws Binomial(ℓ, x + ε(1 − 2x)),
        the flip-noise observation law (KS against direct draws)."""
        eps, ell, n, reps = 0.2, 20, 400, 50
        batched_sampler = build_samplers({"name": "noisy", "epsilon": eps})
        population = make_population(n, 1)
        population.adversarial_opinions((np.arange(n) % 3 == 0).astype(np.uint8)[None])
        from repro.core.noise import noisy_fraction
        from repro.core.rng import make_rng

        batch = tiled(population, reps)
        law = make_rng(100).binomial(
            ell, noisy_fraction(population.fraction_ones()[0], eps), size=n * reps
        )
        batched_counts = batched_sampler.counts(batch, ell, make_rng(999)).ravel()
        ks = scipy_stats.ks_2samp(law, batched_counts, method="asymp")
        assert ks.pvalue > 1e-3


class TestSweepSpecV2:
    def test_cell_is_a_runspec(self):
        assert Cell is RunSpec

    def test_extended_axis_expansion_order(self):
        spec = SweepSpec(
            axes={
                "protocol": ["fet"],
                "n": [100, 200],
                "num_sources": [1, 5],
            },
            trials=1,
            max_rounds=50,
        )
        cells = spec.expand()
        assert [(c.n, c.num_sources) for c in cells] == [
            (100, 1),
            (100, 5),
            (200, 1),
            (200, 5),
        ]

    def test_extended_axis_defaults_keep_v1_hashes(self):
        base = SweepSpec(axes={"protocol": ["fet"], "n": [100]}, trials=2, max_rounds=50)
        via_axis = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "num_sources": [1]},
            trials=2,
            max_rounds=50,
        )
        assert [c.key() for c in base.expand()] == [c.key() for c in via_axis.expand()]

    def test_dotted_protocol_param_axis(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "protocol.ell": [4, 16], "n": [100]},
            trials=1,
            max_rounds=50,
        )
        cells = spec.expand()
        assert [c.protocol for c in cells] == [
            {"name": "fet", "ell": 4},
            {"name": "fet", "ell": 16},
        ]
        # identical to declaring the components one by one
        explicit = SweepSpec(
            axes={
                "protocol": [{"name": "fet", "ell": 4}, {"name": "fet", "ell": 16}],
                "n": [100],
            },
            trials=1,
            max_rounds=50,
        )
        assert [c.key() for c in cells] == [c.key() for c in explicit.expand()]

    def test_dotted_band_axis_collapses_hysteresis_sweep(self):
        spec = SweepSpec(
            axes={
                "protocol": ["hysteresis-fet"],
                "protocol.band": [1, 2, 3],
                "n": [100],
            },
            trials=0,
            max_rounds=50,
        )
        assert [c.protocol["band"] for c in spec.expand()] == [1, 2, 3]

    def test_dotted_measure_axis(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "measure.theta": [0.8, 0.9]},
            trials=1,
            max_rounds=50,
            measure={"kind": "theta", "theta": 0.5},
        )
        assert [c.measure["theta"] for c in spec.expand()] == [0.8, 0.9]

    def test_dotted_measure_axis_validates_merged_measure(self):
        with pytest.raises(ValueError, match="theta must be in"):
            SweepSpec(
                axes={"protocol": ["fet"], "n": [100], "measure.theta": [1.5]},
                trials=1,
                max_rounds=50,
                measure={"kind": "theta", "theta": 0.5},
            ).expand()

    def test_dotted_axis_rejects_unknown_root(self):
        with pytest.raises(ValueError, match="dotted axis"):
            SweepSpec(
                axes={"protocol": ["fet"], "n": [100], "engine.mode": [1]},
                trials=1,
            )
        with pytest.raises(ValueError, match="needs a 'sampler' axis"):
            SweepSpec(
                axes={"protocol": ["fet"], "n": [100], "sampler.epsilon": [0.1]},
                trials=1,
            )

    def test_sampler_axis(self):
        spec = SweepSpec(
            axes={
                "protocol": ["fet"],
                "n": [100],
                "sampler": ["binomial", {"name": "noisy", "epsilon": 0.1}],
            },
            trials=1,
            max_rounds=50,
        )
        cells = spec.expand()
        assert cells[0].sampler == {"name": "binomial"}
        assert cells[1].sampler == {"name": "noisy", "epsilon": 0.1}

    def test_zipped_extended_axes(self):
        spec = SweepSpec(
            axes={
                "protocol": ["fet"],
                "n": [100, 200],
                "num_sources": [1, 10],
            },
            zipped=[["n", "num_sources"]],
            trials=1,
            max_rounds=50,
        )
        assert [(c.n, c.num_sources) for c in spec.expand()] == [(100, 1), (200, 10)]

    def test_extended_axis_validation(self):
        with pytest.raises(ValueError, match="num_sources axis values"):
            SweepSpec(axes={"protocol": ["fet"], "n": [100], "num_sources": [0]}, trials=1)
        with pytest.raises(ValueError, match="engine axis values"):
            SweepSpec(axes={"protocol": ["fet"], "n": [100], "engine": ["gpu"]}, trials=1)
        with pytest.raises(ValueError, match="unknown axes"):
            SweepSpec(axes={"protocol": ["fet"], "n": [100], "temperature": [1]}, trials=1)

    def test_trials_and_stability_axes_override_spec_defaults(self):
        spec = SweepSpec(
            axes={
                "protocol": ["fet"],
                "n": [100],
                "trials": [0, 3],
                "stability_rounds": [4],
            },
            trials=9,
            max_rounds=50,
        )
        cells = spec.expand()
        assert [c.trials for c in cells] == [0, 3]
        assert all(c.stability_rounds == 4 for c in cells)

    def test_num_sources_bound_checked_before_dispatch(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "num_sources": [100]},
            trials=1,
            max_rounds=50,
        )
        with pytest.raises(ValueError, match="num_sources must be in"):
            spec.expand()

    def test_noise_crossed_with_a_sampler_fails_before_dispatch(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "noise": [0, 0.05], "sampler": ["binomial"]},
            trials=1,
            max_rounds=50,
        )
        ran = []
        with pytest.raises(ValueError, match="conflicts with sampler"):
            run_sweep(spec, work_fn=ran.append)
        assert ran == []

    def test_to_dict_round_trip_with_version(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "num_sources": [1, 2]},
            trials=1,
            max_rounds=50,
        )
        data = spec.to_dict()
        assert data["version"] == 2
        twin = SweepSpec.from_dict(data)
        assert [c.key() for c in twin.expand()] == [c.key() for c in spec.expand()]


class TestLegacySpecLoading:
    def test_v1_file_loads_unchanged(self):
        spec = load_spec(DATA / "golden_v1_spec.json")
        assert spec.name == "golden-v1"
        assert len(spec.expand()) == 16

    def test_v1_file_rejects_extended_axes(self):
        data = json.loads((DATA / "golden_v1_spec.json").read_text())
        data["axes"]["num_sources"] = [1, 2]
        with pytest.raises(ValueError, match="version-1 sweep spec"):
            SweepSpec.from_dict(data)
        data["version"] = 2
        assert len(SweepSpec.from_dict(data).expand()) == 32

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec version"):
            SweepSpec.from_dict(
                {"version": 99, "axes": {"protocol": ["fet"], "n": [100]}, "trials": 1}
            )

    def test_v1_aggregate_csv_byte_identical(self, tmp_path):
        """A pre-existing v1 spec JSON reproduces its aggregate CSV exactly
        (recorded before the RunSpec redesign) through the new loader. The
        voter rows were re-recorded when ``auto`` began resolving voter
        cells at n >= 32 to the counts engine, after a 2000-trial check
        per cell (success rates by Fisher's exact test, t_con by KS) found
        the two engines indistinguishable on every voter cell. The bernoulli
        rows were re-recorded when initializers began drawing the
        non-source one-count first and placing it (same law, new draws),
        after a 400-trial check of every bernoulli cell against the old
        draws. The FET rows were re-recorded when ``auto`` dropped its size
        threshold and began running them on counts, after a 400-trial check
        of all eight FET cells against the batched rows (Fisher on
        successes, KS on times; the one p < 0.01 re-ran clean at 2000 trials
        on three further seeds)."""
        spec = load_spec(DATA / "golden_v1_spec.json")
        out = tmp_path / "agg.csv"
        run_sweep(spec).write_csv(out)
        assert out.read_bytes() == (DATA / "golden_v1_aggregate.csv").read_bytes()

    def test_v1_theta_aggregate_csv_byte_identical(self, tmp_path):
        """As above for a θ grid. Both rows were re-recorded when ``auto``
        began running them on counts, after a 400-trial check against the
        batched rows (Fisher on cells reaching θ, KS on times)."""
        spec = load_spec(DATA / "golden_v1_theta_spec.json")
        out = tmp_path / "agg.csv"
        run_sweep(spec).write_csv(out)
        assert out.read_bytes() == (DATA / "golden_v1_theta_aggregate.csv").read_bytes()


class TestGoldenPaths:
    def test_per_agent_and_never_converging_paths_byte_identical(self, tmp_path):
        """The v1 goldens run FET on counts; this grid pins the other paths
        a round can take: clock-sync (its plurality and synchronized tiers)
        and oracle-clock on the batched engine, voter and undecided-state
        from all-wrong on counts with a budget they never meet, and the
        Section 1.2 impossibility witness on ``engine="sequential"``."""
        spec = load_spec(DATA / "golden_v2_paths_spec.json")
        out = tmp_path / "agg.csv"
        run_sweep(spec).write_csv(out)
        assert out.read_bytes() == (DATA / "golden_v2_paths_aggregate.csv").read_bytes()


class TestMultisourceMigration:
    def test_invalid_source_count_raises_before_any_cell_runs(self, tmp_path):
        """Regression: a bad count used to surface mid-loop, after earlier
        cells had already burned compute. Now the whole list is validated up
        front — nothing is executed and nothing lands in the store."""
        store = ResultsStore(tmp_path / "store.jsonl")
        with pytest.raises(ValueError, match="source count must be in"):
            sweep_sources(
                100, 10, [1, 4, 100], trials=2, max_rounds=10, seed=0, store=store
            )
        assert len(store) == 0

    def test_rows_match_axis_order_and_derive_independent_seeds(self):
        rows = sweep_sources(100, 10, [1, 5, 20], trials=2, max_rounds=60, seed=3)
        assert [row.num_sources for row in rows] == [1, 5, 20]
        # derived per-cell seeds replaced the ad-hoc seed+index scheme
        spec_cells = {
            cell.num_sources: cell.seed
            for cell in __import__("repro.sweep", fromlist=["SweepSpec"]).SweepSpec(
                name="multisource",
                seed=3,
                trials=2,
                axes={
                    "protocol": [{"name": "fet", "ell": 10}],
                    "n": [100],
                    "initializer": [{"name": "all-wrong"}],
                    "num_sources": [1, 5, 20],
                },
                max_rounds=60,
            ).expand()
        }
        assert len(set(spec_cells.values())) == 3

    def test_statistically_equivalent_to_manual_loop(self):
        """The orchestrated num_sources grid reproduces the old hand-rolled
        sweep's rows (different seed scheme, same distributions)."""
        n, ell, counts = 200, 15, [1, 25]
        rows = sweep_sources(n, ell, counts, trials=10, max_rounds=500, seed=0)
        manual = [
            RunSpec(
                protocol={"name": "fet", "ell": ell},
                n=n,
                trials=10,
                max_rounds=500,
                seed=100 + index,
            ).execute(population_factory=lambda k=k: make_population(n, 1, num_sources=k))
            for index, k in enumerate(counts)
        ]
        for row, stats in zip(rows, manual):
            assert row.stats.successes == stats.successes == 10
            assert abs(np.median(row.stats.times) - np.median(stats.times)) <= 3

    def test_jobs_and_store_supported(self, tmp_path):
        store = tmp_path / "multi.jsonl"
        first = sweep_sources(
            100, 10, [1, 4], trials=2, max_rounds=60, seed=1, jobs=2, store=store
        )
        again = sweep_sources(
            100, 10, [1, 4], trials=2, max_rounds=60, seed=1, store=store
        )
        for a, b in zip(first, again):
            assert a.stats.successes == b.stats.successes
            assert np.array_equal(a.stats.times, b.stats.times)


class TestStoreCompaction:
    def test_compact_keeps_latest_record_per_key(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1})
        store.put("b", {"payload": 2})
        store.put("a", {"payload": 3})  # supersedes the first line
        assert len(path.read_text().splitlines()) == 3
        summary = store.compact()
        assert summary == {
            "lines_before": 3,
            "corrupt_lines": 0,
            "checksum_failures": 0,
            "records": 2,
        }
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        reloaded = ResultsStore(path)
        assert reloaded.get("a")["payload"] == 3
        assert reloaded.get("b")["payload"] == 2

    def test_compact_preserves_original_provenance(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1, "provenance": {"host": "elsewhere"}})
        store.compact()
        assert ResultsStore(path).get("a")["provenance"] == {"host": "elsewhere"}

    def test_compact_drops_torn_tail_safely(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1})
        with path.open("a") as handle:
            handle.write('{"key": "b", "payl')  # killed mid-append
        store = ResultsStore(path)
        summary = store.compact()
        assert summary["corrupt_lines"] == 1
        assert summary["records"] == 1
        # the rewritten file is fully valid and appendable again
        store.put("c", {"payload": 2})
        reloaded = ResultsStore(path)
        assert reloaded.corrupt_lines == 0
        assert sorted(reloaded.keys()) == ["a", "c"]

    def test_compact_missing_file_is_noop(self, tmp_path):
        store = ResultsStore(tmp_path / "never_written.jsonl")
        assert store.compact()["records"] == 0
        assert not (tmp_path / "never_written.jsonl").exists()

    def test_compact_picks_up_external_appends(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1})
        # another process appends after this handle loaded
        ResultsStore(path).put("b", {"payload": 2})
        summary = store.compact()
        assert summary["records"] == 2
        assert sorted(ResultsStore(path).keys()) == ["a", "b"]

    def test_compact_leaves_no_tmp_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1})
        store.compact()
        assert list(tmp_path.iterdir()) == [path]


class TestCellValidationConflicts:
    def test_index_sampler_with_batched_engine_runs(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "sampler": ["index"]},
            trials=1,
            max_rounds=50,
            engine="batched",
        )
        assert [row["engine"] for row in run_sweep(spec).rows()] == ["batched"]

    def test_index_sampler_with_trace_measure_runs(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "sampler": ["index"]},
            trials=1,
            max_rounds=50,
            measure={"kind": "trace"},
        )
        assert [row["engine"] for row in run_sweep(spec).rows()] == ["batched"]

    def test_index_sampler_with_counts_engine_fails_fast(self):
        spec = SweepSpec(
            axes={"protocol": ["fet"], "n": [100], "sampler": ["index"]},
            trials=1,
            max_rounds=50,
            engine="counts",
        )
        with pytest.raises(ValueError, match="invalid sweep cell .*fraction-keyed"):
            run_sweep(spec)

    def test_index_sampler_with_auto_engine_runs_batched(self):
        spec = SweepSpec(
            axes={"protocol": ["fet", {"name": "fet", "ell": 12}], "n": [60], "sampler": ["index"]},
            trials=2,
            max_rounds=80,
        )
        result = run_sweep(spec)
        assert all(row["engine"] == "batched" for row in result.rows())


class TestCLISurface:
    def test_sweep_list_prints_catalog(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in protocol_names() + initializer_names() + sampler_names():
            assert name in out
        assert "measures: consensus, theta, trace" in out

    def test_sweep_compact_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "store.jsonl"
        store = ResultsStore(path)
        store.put("a", {"payload": 1})
        store.put("a", {"payload": 2})
        assert main(["sweep", "--compact", "--store", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kept 1 record(s)" in out
        assert len(path.read_text().splitlines()) == 1

    def test_sweep_compact_requires_store(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--compact"]) == 2
        assert "--store" in capsys.readouterr().err


class TestLiveOverrides:
    def test_error_messages_with_a_live_protocol(self):
        protocol = FETProtocol(8)
        with pytest.raises(ValueError, match="trials must be >= 0"):
            RunSpec(protocol=None, n=100, trials=-1, max_rounds=10).execute(protocol=protocol)
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            RunSpec(protocol=None, n=100, trials=1, max_rounds=0).execute(protocol=protocol)
        with pytest.raises(ValueError, match="engine must be"):
            RunSpec(protocol=None, n=100, engine="x").execute(protocol=protocol)
        with pytest.raises(ValueError, match="fraction-keyed"):
            RunSpec(protocol=None, n=100, max_rounds=10, engine="counts").execute(
                protocol=protocol, batched_sampler=IndexSampler()
            )
