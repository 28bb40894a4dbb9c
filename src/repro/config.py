"""One declarative run configuration for every execution layer.

A :class:`RunSpec` fully describes one experimental *condition* — the unit
every table in the paper reproduction is built from: a protocol component,
an initializer component, a sampler/observation component, the population
shape (``n``, ``num_sources``, ``correct_opinion``), the engine policy,
the stability/linger windows, the round budget, and the measurement. All
components are named ``{"name": ..., params}`` dicts resolved through the
registries in :mod:`repro.sweep.registry`, so a spec:

* round-trips through **canonical JSON** (:func:`canonical_json`) — it can
  live in a file, travel to a worker process, and be diffed;
* has a **content-hash key** (:meth:`RunSpec.key`) — the results-store
  identity, covering everything that determines the outcome;
* derives **seeds** deterministically (:func:`derive_seed`) — the same
  condition under the same base seed gets the same stream in every
  process, job count, and resumed run.

The layers consume it uniformly:

* :meth:`RunSpec.execute` runs the condition's batch of trials and returns
  :class:`~repro.experiments.harness.TrialStats` — the one entry point for
  a batch of trials;
* a sweep :class:`~repro.sweep.spec.Cell` *is* a ``RunSpec`` (plus its
  derived seed), so grids, the store, and the dispatcher all speak it;
* :meth:`RunSpec.batched_engine` hands trace/θ consumers a fully prepared
  :class:`~repro.core.batch.BatchedEngine`, so no caller outside the
  harness builds engines or resolves observation models by hand.

**Hash compatibility.** :meth:`spec_dict` emits the new fields
(``sampler``, ``num_sources``, ``correct_opinion``, ``linger_rounds``)
only when they differ from their defaults, so every condition expressible
before those fields existed keeps its exact content hash — and therefore
its derived seed, store key, and aggregate CSV bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.batch import BatchedEngine
    from .core.counts import CountEngine
    from .core.batch import BatchedPopulation
    from .core.protocol import Protocol
    from .core.sampling import BatchedSampler
    from .experiments.harness import TrialStats
    from .initializers.standard import Initializer
    from .trace.recorder import TraceRecorder

__all__ = [
    "ENGINES",
    "RUN_SCHEMA",
    "RunSpec",
    "canonical_json",
    "default_round_budget",
    "derive_seed",
    "normalize_component",
]

#: Bumped when the run-spec schema changes incompatibly, so stale store
#: entries miss instead of deserializing into the wrong shape. (Additive,
#: default-elided fields do NOT bump it — see the hash-compatibility note.)
RUN_SCHEMA = 1

#: The ``engine`` policies a run or sweep may declare.
ENGINES = ("auto", "batched", "sequential", "counts")

#: Default of the ``batched_sampler`` keyword of :meth:`RunSpec.resolve_engine`
#: and :meth:`RunSpec.counts_obstacle`: resolve the spec's own sampler.
_SPEC_SAMPLER: Any = object()


def canonical_json(obj: Any) -> str:
    """Serialize to the canonical form used for hashing (sorted keys, no
    whitespace) — byte-stable across processes and sessions."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(base_seed: int, spec_dict: dict) -> int:
    """Deterministic integer seed for one run configuration.

    The configuration's canonical JSON is hashed and the digest words are
    spawned through a :class:`numpy.random.SeedSequence` together with the
    base seed: distinct configurations (or distinct base seeds) give
    independent streams, while the same configuration under the same base
    seed gets the same seed in every process, job count, and resumed run.
    """
    digest = hashlib.sha256(canonical_json(spec_dict).encode()).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    sequence = np.random.SeedSequence((int(base_seed), *words))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def normalize_component(value: Any, what: str) -> dict:
    """Coerce a declared component — a bare name or a ``{"name": ...,
    params}`` dict — to its dict form (a copy); ``what`` labels errors."""
    if isinstance(value, str):
        return {"name": value}
    if isinstance(value, dict):
        if "name" not in value:
            raise ValueError(f"{what} entries need a 'name' key, got {value!r}")
        return {key: value[key] for key in value}
    raise ValueError(f"{what} entries must be names or dicts, got {value!r}")


def default_round_budget(n: int) -> int:
    """The Theorem-1 poly-log round budget: ``max(200, 40·(ln n)^2.5)``.

    The one definition of the convention shared by every consumer — run
    specs with ``max_rounds=None``, the single-run drivers (``repro
    trace``, the sample-size ablation). ``SweepSpec`` keeps its own
    *parameterized* resolver (``max_rounds_factor``/``min_rounds``) because
    those knobs are part of every cell's seed-deriving content hash.
    """
    return max(200, int(40 * math.log(n) ** 2.5))


def _default_initializer() -> dict:
    return {"name": "all-wrong"}


def _default_measure() -> dict:
    return {"kind": "consensus"}


@dataclass(frozen=True)
class RunSpec:
    """One fully-described experimental condition (see module docstring).

    Parameters
    ----------
    protocol:
        ``{"name": ..., params}`` component (see the protocol registry), or
        ``None`` when a live ``protocol`` instance is supplied to
        :meth:`execute` — a ``None`` protocol cannot be serialized or
        hashed. Every component field (``protocol``,
        ``initializer``, ``sampler``, ``population``) also takes a bare
        name, normalized at construction to ``{"name": ...}``, so both forms
        run and hash alike.
    n:
        Population size (sources included).
    noise:
        Per-bit observation-flip probability ε. Sugar for the default noisy
        observation component: when ``sampler`` is ``None`` and ε > 0 the
        run observes through
        :class:`~repro.core.noise.BatchedNoisyCountSampler`. Beside an
        explicit ``sampler``, ε > 0 is only accepted when that sampler is
        ``{"name": "noisy", "epsilon": ε}`` (``ValueError`` otherwise).
    initializer:
        ``{"name": ..., params}`` component (initializer registry).
    trials:
        Independent trials of the condition (0 degrades to an empty
        aggregate).
    max_rounds:
        Per-trial round budget; ``None`` applies the poly-log convention
        ``max(200, 40·(ln n)^2.5)`` at execution time (grids resolve their
        own parameterized rule per cell before hashing).
    stability_rounds:
        Consecutive all-correct rounds required for convergence.
    engine:
        ``"auto"``, ``"batched"``, ``"sequential"``, or ``"counts"`` (the
        sufficient-statistic engine; explicit requests need count-capable
        components). ``"auto"`` runs the condition on counts whenever it is
        count-capable, else on batched — never on sequential
        (:meth:`resolve_engine`). ``"sequential"`` runs every
        trial as its own one-replica lock-step run on its own spawned
        stream. Explicit ``"batched"``/``"sequential"`` are the override.
        The policy, not the resolved engine, is part of the content hash.
    measure:
        Measurement descriptor; kinds live in the sweep runner's registry.
    sampler:
        Observation component ``{"name": ..., params}`` (sampler registry),
        or ``None`` for the noise-derived default. The registry builds one
        batched sampler, which every engine consumes.
    num_sources:
        Number of agreeing source agents (the E-multi axis).
    correct_opinion:
        The bit the population must converge on.
    linger_rounds:
        Lock-step settle window: converged replicas keep stepping this many
        rounds before retiring (trace consumers).
    population:
        Population-layout component ``{"name": ..., params}`` (population
        registry), or ``None`` for the standard source-pinned layout built
        from the shape fields. ``{"name": "standard"}`` is the same layout
        declared explicitly; ``{"name": "majority", "k0": ..., "k1": ...}``
        builds the Section-1.2 majority variant (crafted layouts force the
        per-trial population path and are rejected by the counts engine).
    seed:
        Base RNG seed of the condition. Sweep cells carry a derived seed.
    """

    protocol: dict | None
    n: int
    noise: float = 0.0
    initializer: dict = field(default_factory=_default_initializer)
    trials: int = 1
    max_rounds: int | None = None
    stability_rounds: int = 2
    engine: str = "auto"
    measure: dict = field(default_factory=_default_measure)
    sampler: dict | None = None
    num_sources: int = 1
    correct_opinion: int = 1
    linger_rounds: int = 0
    population: dict | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("protocol", "initializer", "sampler", "population"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, normalize_component(value, name))
        if self.n < 2:
            raise ValueError(f"population sizes must be >= 2, got {self.n}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.stability_rounds < 1:
            raise ValueError(f"stability_rounds must be >= 1, got {self.stability_rounds}")
        if self.linger_rounds < 0:
            raise ValueError(f"linger_rounds must be >= 0, got {self.linger_rounds}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(map(repr, ENGINES))}, got {self.engine!r}"
            )
        if not 0.0 <= self.noise <= 0.5:
            raise ValueError(f"noise levels must be in [0, 1/2], got {self.noise}")
        if self.noise > 0.0 and self.sampler is not None and self.sampler != {
            "name": "noisy", "epsilon": self.noise
        }:
            raise ValueError(
                f"noise={self.noise} conflicts with sampler {self.sampler!r}: an "
                "explicit sampler replaces the noise-derived one, so declare "
                "noise only as a 'noisy' sampler with the same epsilon"
            )
        if self.correct_opinion not in (0, 1):
            raise ValueError(f"correct_opinion must be 0 or 1, got {self.correct_opinion}")
        if not 1 <= self.num_sources < self.n:
            raise ValueError(
                f"num_sources must be in [1, n), got {self.num_sources} with n={self.n}"
            )

    # --------------------------------------------------------- serialization

    def spec_dict(self) -> dict:
        """The configuration without the seed — the seed-derivation and
        content-hash input.

        New fields are emitted only at non-default values so pre-existing
        conditions keep their exact hashes (see the module docstring).
        """
        if self.protocol is None:
            raise ValueError("a RunSpec with protocol=None cannot be serialized or hashed")
        out = {
            "protocol": self.protocol,
            "n": self.n,
            "noise": self.noise,
            "initializer": self.initializer,
            "trials": self.trials,
            "max_rounds": self.max_rounds,
            "stability_rounds": self.stability_rounds,
            "engine": self.engine,
            "measure": self.measure,
        }
        if self.sampler is not None:
            out["sampler"] = self.sampler
        if self.num_sources != 1:
            out["num_sources"] = self.num_sources
        if self.correct_opinion != 1:
            out["correct_opinion"] = self.correct_opinion
        if self.linger_rounds != 0:
            out["linger_rounds"] = self.linger_rounds
        if self.population is not None:
            out["population"] = self.population
        return out

    def to_dict(self) -> dict:
        out = self.spec_dict()
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        return cls(**data)

    def to_json(self) -> str:
        """Canonical JSON of the full spec (seed included)."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def key(self) -> str:
        """Content hash of the configuration + seed: the results-store key."""
        payload = {"schema": RUN_SCHEMA, **self.to_dict()}
        return hashlib.sha256(canonical_json(payload).encode()).hexdigest()

    def label(self) -> str:
        """Short human-readable tag for logs and errors."""
        parts = [self.protocol["name"] if self.protocol else "<live>", f"n={self.n}"]
        if self.noise:
            parts.append(f"eps={self.noise}")
        if self.sampler is not None:
            parts.append(self.sampler["name"])
        if self.num_sources != 1:
            parts.append(f"sources={self.num_sources}")
        if self.population is not None:
            parts.append(f"pop={self.population['name']}")
        parts.append(self.initializer["name"])
        return " ".join(parts)

    # ------------------------------------------------------------ resolution
    #
    # Declarative components -> live objects. Registry imports are deferred:
    # the registries import the protocol/initializer packages, which import
    # core — making them module-level imports here would cycle through
    # repro.sweep at package-import time.

    def resolved_max_rounds(self) -> int:
        """The round budget, with ``None`` resolved by the poly-log rule."""
        if self.max_rounds is not None:
            return self.max_rounds
        return default_round_budget(self.n)

    def build_protocol(self) -> "Protocol":
        """Instantiate the declared protocol component for this ``n``."""
        from .sweep.registry import build_protocol

        if self.protocol is None:
            raise ValueError("this RunSpec declares no protocol component")
        return build_protocol(self.protocol, self.n)

    def build_initializer(self) -> "Initializer":
        """Instantiate the declared initializer component."""
        from .sweep.registry import build_initializer

        return build_initializer(self.initializer)

    def population_factory(self) -> Callable[[], "BatchedPopulation"] | None:
        """Factory for the declared population layout, or ``None`` when the
        engines should build the standard layout natively from the shape
        fields (no component declared, or the explicit ``standard`` one —
        resolving ``standard`` to "no override" keeps the vectorized
        batch-initialization and counts fast paths available)."""
        if self.population is None:
            return None
        from .sweep.registry import population_factory

        return population_factory(
            self.population,
            self.n,
            num_sources=self.num_sources,
            correct_opinion=self.correct_opinion,
        )

    def samplers(self) -> "BatchedSampler":
        """The batched observation component every engine consumes.

        Resolution: an explicit ``sampler`` component wins; otherwise
        ``noise`` > 0 selects the noisy model and ``noise`` = 0 the exact
        binomial default.
        """
        from .sweep.registry import build_samplers

        if self.sampler is not None:
            return build_samplers(self.sampler)
        if self.noise > 0.0:
            return build_samplers({"name": "noisy", "epsilon": self.noise})
        return build_samplers({"name": "binomial"})

    def counts_obstacle(
        self,
        protocol: "Protocol",
        *,
        batched_sampler: "BatchedSampler" = _SPEC_SAMPLER,
        custom_population: bool = False,
    ) -> str | None:
        """Why this condition cannot run on the counts engine, or ``None``
        when it can — the one count-capability rule.

        A condition is count-capable when the protocol has a count model,
        the population is the standard source-pinned layout, the batched
        observation model is keyed on one-fractions (``effective_fractions``)
        and no per-agent flip counts are recorded. ``batched_sampler``
        replaces the spec's own and ``custom_population`` marks a live
        ``population_factory`` override. :meth:`resolve_engine` and
        ``validate_cell`` both ask this question, so "``auto`` picks counts"
        and "explicit counts is accepted" cannot drift apart.
        """
        if not protocol.counts_supported:
            return (
                f"protocol {protocol.name!r} has no count model "
                "(counts_supported=False); the counts engine cannot run it — "
                "use engine='auto', 'batched' or 'sequential'"
            )
        if self.population is not None and self.population.get("name") != "standard":
            return (
                f"population {self.population.get('name')!r} is a crafted "
                "per-agent layout; the counts engine only models the standard "
                "source-pinned population"
            )
        if custom_population:
            return (
                "population_factory builds a per-agent layout; the counts "
                "engine only models the standard source-pinned population"
            )
        if batched_sampler is _SPEC_SAMPLER:
            batched_sampler = self.samplers()
        if not hasattr(batched_sampler, "effective_fractions"):
            return (
                f"sampler {type(batched_sampler).__name__} has no fraction-keyed "
                "batched observation model; the counts engine draws its own "
                "multinomial transitions and only supports the "
                "BatchedBinomialSampler family"
            )
        if self.measure.get("kind") == "trace" and self.measure.get("flips"):
            return (
                "per-agent flip counts are not a function of the state-count "
                "sufficient statistic; the counts engine cannot record them — "
                "use engine='batched'"
            )
        return None

    def resolve_engine(
        self,
        protocol: "Protocol",
        *,
        batched_sampler: "BatchedSampler" = _SPEC_SAMPLER,
        custom_population: bool = False,
    ) -> str:
        """The engine this condition runs on: ``"counts"``, ``"batched"`` or
        ``"sequential"`` — the one engine-resolution rule.

        ``"auto"`` picks counts exactly when the condition is count-capable
        (:meth:`counts_obstacle` is ``None``), else batched; it never picks
        sequential. Explicit engines are returned as declared, after
        checking that counts' components can run on it (``ValueError``
        otherwise). Keywords as in :meth:`counts_obstacle`.
        """
        if self.engine in ("batched", "sequential"):
            return self.engine
        obstacle = self.counts_obstacle(
            protocol,
            batched_sampler=batched_sampler,
            custom_population=custom_population,
        )
        if obstacle is None:
            return "counts"
        if self.engine == "counts":
            raise ValueError(obstacle)
        return "batched"

    # ------------------------------------------------------------- execution

    def execute(
        self,
        *,
        keep_results: bool = False,
        protocol: "Protocol | None" = None,
        initializer: "Initializer | None" = None,
        batched_sampler: "BatchedSampler | None" = None,
        population_factory: Callable[[], "BatchedPopulation"] | None = None,
    ) -> "TrialStats":
        """Run the condition's batch of trials and aggregate the outcomes.

        The keyword overrides take live objects — pre-built instances, or
        components with no declarative form (crafted populations, scripted
        samplers); each replaces the corresponding declared component. One
        protocol instance serves every trial (protocol instances hold round
        configuration only). All execution — engine choice,
        observation-model resolution, engine assembly — happens in the
        harness core behind this method.
        """
        from .experiments.harness import execute_run

        return execute_run(
            self,
            keep_results=keep_results,
            protocol=protocol,
            initializer=initializer,
            batched_sampler=batched_sampler,
            population_factory=population_factory,
        )

    def batched_engine(
        self,
        *,
        protocol: "Protocol | None" = None,
        initializer: "Initializer | None" = None,
    ) -> "BatchedEngine":
        """A fully prepared lock-step engine for this condition.

        Builds the initialized ``(R, n)`` batch (same spawned streams as
        :meth:`execute`'s batched path), resolves the batched observation
        component, and returns the engine ready for
        :meth:`~repro.core.batch.BatchedEngine.run` — the one entry point
        for trace/θ consumers, so they never assemble engines or resolve
        samplers by hand. ``protocol``/``initializer`` accept pre-built
        instances to avoid rebuilding them around a registry validation.
        """
        from .experiments.harness import make_batched_engine

        return make_batched_engine(self, protocol=protocol, initializer=initializer)

    def count_engine(
        self,
        *,
        protocol: "Protocol | None" = None,
        initializer: "Initializer | None" = None,
    ) -> "CountEngine":
        """A fully prepared sufficient-statistic engine for this condition.

        The counts analogue of :meth:`batched_engine`: builds the initialized
        ``(R, S)`` state-count matrix and the protocol's carried count-model
        state, resolves the fraction-keyed observation
        component, and returns a :class:`~repro.core.counts.CountEngine`
        ready to ``run``. Raises when any declared component has no
        count-level form (frozen unanimity, the index sampler, protocols
        without a count model).
        """
        from .experiments.harness import make_count_engine

        return make_count_engine(self, protocol=protocol, initializer=initializer)
