"""Name → object registries for declarative run/sweep components.

Run specs and sweep cells describe their components as ``{"name": ...,
params}`` dicts (JSON-able, picklable, hashable into store keys); this
module turns those descriptions back into live objects inside whichever
process runs the cell. Three component kinds are registered:

* **protocols** — every protocol shipped by the library;
* **initializers** — every initializer, including the crafted adversarial
  constructions (:class:`~repro.initializers.adversarial.FrozenUnanimity`
  additionally needs the ``majority`` population component — the pairing
  is cross-checked by :func:`validate_cell`);
* **samplers** — observation models (:func:`build_samplers`), each one
  :class:`~repro.core.sampling.BatchedSampler` that every engine consumes
  (a sequential trial observes through it as a one-row batch; the counts
  engine reads its ``effective_fractions``, which the literal ``index``
  sampler lacks);
* **populations** — population layouts (:func:`build_population`):
  ``standard`` is the default source-pinned layout every run spec builds
  natively (declaring it changes nothing), ``majority`` the
  Section-1.2 majority variant (``k0``/``k1`` sources with opposing
  preferences, sources unpinned), previously reachable only by
  hand-building populations in benchmark code.

Sample-size parameters: protocols taking ℓ accept an explicit ``ell`` or
derive the paper's ``ℓ = ⌈c·ln n⌉`` from the cell's population size, with
``sample_constant`` overriding ``c``.
"""

from __future__ import annotations

from typing import Callable

from ..core.batch import BatchedPopulation
from ..core.noise import BatchedNoisyCountSampler
from ..core.protocol import Protocol
from ..core.sampling import (
    BatchedBinomialSampler,
    BatchedSampler,
    IndexSampler,
)
from ..core.population import make_majority_population, make_population
from ..initializers.adversarial import (
    FrozenUnanimity,
    PoisonedCounters,
    TwoRoundTarget,
    ZeroSpeedCenter,
)
from ..initializers.standard import (
    AllCorrect,
    AllWrong,
    BernoulliRandom,
    ExactFraction,
    Initializer,
    RandomizeProtocolState,
)
from ..protocols import (
    ClockSyncProtocol,
    DEFAULT_SAMPLE_CONSTANT,
    FETProtocol,
    HysteresisFETProtocol,
    MajorityProtocol,
    MajoritySamplingProtocol,
    OracleClockProtocol,
    SimpleTrendProtocol,
    UndecidedStateProtocol,
    VoterProtocol,
    ell_for,
)

__all__ = [
    "build_initializer",
    "build_population",
    "build_protocol",
    "build_samplers",
    "component_catalog",
    "initializer_names",
    "population_factory",
    "population_names",
    "protocol_names",
    "sampler_names",
    "validate_cell",
]


def _params(spec: dict, kind: str, allowed: set[str]) -> dict:
    params = {key: value for key, value in spec.items() if key != "name"}
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(
            f"unknown parameters {sorted(unknown)} for {kind} {spec['name']!r}; "
            f"allowed: {sorted(allowed) or 'none'}"
        )
    return params


def _resolve_ell(params: dict, n: int) -> int:
    if "ell" in params:
        return int(params["ell"])
    return ell_for(n, float(params.get("sample_constant", DEFAULT_SAMPLE_CONSTANT)))


_ELL_PARAMS = {"ell", "sample_constant"}

#: name -> (builder(params, n) -> Protocol, allowed parameter names)
_PROTOCOLS: dict[str, tuple[Callable[[dict, int], Protocol], set[str]]] = {
    "fet": (lambda p, n: FETProtocol(_resolve_ell(p, n)), _ELL_PARAMS),
    "simple-trend": (lambda p, n: SimpleTrendProtocol(_resolve_ell(p, n)), _ELL_PARAMS),
    "sample-majority": (lambda p, n: MajoritySamplingProtocol(_resolve_ell(p, n)), _ELL_PARAMS),
    "hysteresis-fet": (
        lambda p, n: HysteresisFETProtocol(_resolve_ell(p, n), band=int(p.get("band", 1))),
        _ELL_PARAMS | {"band"},
    ),
    "voter": (lambda p, n: VoterProtocol(), set()),
    "k-majority": (lambda p, n: MajorityProtocol(k=int(p.get("k", 3))), {"k"}),
    "undecided-state": (lambda p, n: UndecidedStateProtocol(), set()),
    "oracle-clock": (lambda p, n: OracleClockProtocol(n, ell=int(p.get("ell", 1))), {"ell"}),
    "clock-sync": (lambda p, n: ClockSyncProtocol(n, ell=int(p.get("ell", 1))), {"ell"}),
}

#: name -> (builder(params) -> Initializer, allowed parameter names)
_INITIALIZERS: dict[str, tuple[Callable[[dict], Initializer], set[str]]] = {
    "all-wrong": (lambda p: AllWrong(), set()),
    "all-correct": (lambda p: AllCorrect(), set()),
    "bernoulli": (lambda p: BernoulliRandom(float(p.get("p", 0.5))), {"p"}),
    "fraction": (lambda p: ExactFraction(float(p["x"])), {"x"}),
    "randomize-state": (lambda p: RandomizeProtocolState(), set()),
    "two-round": (
        lambda p: TwoRoundTarget(float(p["x_prev"]), float(p["x_now"])),
        {"x_prev", "x_now"},
    ),
    "zero-speed-center": (lambda p: ZeroSpeedCenter(), set()),
    "poisoned-counters": (lambda p: PoisonedCounters(), set()),
    "frozen-unanimity": (
        lambda p: FrozenUnanimity(int(p.get("opinion", 1))),
        {"opinion"},
    ),
}

#: name -> (builder(params, n, num_sources, correct_opinion) -> BatchedPopulation,
#:          allowed parameter names). ``standard`` is what every run spec
#:          builds natively when no population component is declared — it is
#:          registered so specs can say so explicitly, and resolution treats
#:          it as "no override" to keep the vectorized batch-init fast path.
_POPULATIONS: dict[
    str,
    tuple[Callable[[dict, int, int, int], BatchedPopulation], set[str]],
] = {
    "standard": (
        lambda p, n, num_sources, correct: make_population(
            n, correct, num_sources=num_sources
        ),
        set(),
    ),
    "majority": (
        lambda p, n, num_sources, correct: _build_majority(p, n, correct),
        {"k0", "k1"},
    ),
}


def _build_majority(params: dict, n: int, correct_opinion: int) -> BatchedPopulation:
    if "k0" not in params or "k1" not in params:
        raise ValueError("the 'majority' population needs 'k0' and 'k1' source counts")
    k0, k1 = int(params["k0"]), int(params["k1"])
    population = make_majority_population(n, k0, k1)
    if population.correct_opinion != correct_opinion:
        raise ValueError(
            f"the majority of sources prefers {population.correct_opinion} "
            f"(k0={k0}, k1={k1}), but the spec declares "
            f"correct_opinion={correct_opinion}"
        )
    return population


def _epsilon_param(params: dict) -> float:
    if "epsilon" not in params:
        raise ValueError("the 'noisy' sampler needs an 'epsilon' parameter")
    return float(params["epsilon"])


#: name -> (batched builder(params) -> BatchedSampler, allowed parameter names)
_SAMPLERS: dict[str, tuple[Callable[[dict], BatchedSampler], set[str]]] = {
    "binomial": (lambda p: BatchedBinomialSampler(), set()),
    "noisy": (lambda p: BatchedNoisyCountSampler(_epsilon_param(p)), {"epsilon"}),
    "index": (
        lambda p: IndexSampler(exclude_self=bool(p.get("exclude_self", False))),
        {"exclude_self"},
    ),
}


def protocol_names() -> list[str]:
    return sorted(_PROTOCOLS)


def initializer_names() -> list[str]:
    return sorted(_INITIALIZERS)


def sampler_names() -> list[str]:
    return sorted(_SAMPLERS)


def population_names() -> list[str]:
    return sorted(_POPULATIONS)


def component_catalog() -> dict[str, dict[str, list[str]]]:
    """Kind → name → accepted parameter names, straight from the registries.

    The single source the documentation surfaces (``repro sweep --list``)
    render from — so the printed catalog can never drift from what the
    builders actually accept.
    """
    return {
        "protocol": {name: sorted(entry[1]) for name, entry in sorted(_PROTOCOLS.items())},
        "initializer": {name: sorted(entry[1]) for name, entry in sorted(_INITIALIZERS.items())},
        "sampler": {name: sorted(entry[1]) for name, entry in sorted(_SAMPLERS.items())},
        "population": {name: sorted(entry[1]) for name, entry in sorted(_POPULATIONS.items())},
    }


def build_protocol(spec: dict, n: int) -> Protocol:
    """Instantiate the protocol described by ``spec`` for population size ``n``."""
    name = spec.get("name")
    if name not in _PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}; known protocols: {protocol_names()}")
    builder, allowed = _PROTOCOLS[name]
    return builder(_params(spec, "protocol", allowed), n)


def build_initializer(spec: dict) -> Initializer:
    """Instantiate the initializer described by ``spec``."""
    name = spec.get("name")
    if name not in _INITIALIZERS:
        raise ValueError(f"unknown initializer {name!r}; known initializers: {initializer_names()}")
    builder, allowed = _INITIALIZERS[name]
    return builder(_params(spec, "initializer", allowed))


def build_population(
    spec: dict, n: int, *, num_sources: int = 1, correct_opinion: int = 1
) -> BatchedPopulation:
    """Instantiate the population layout described by ``spec``, as a
    one-row batch.

    ``standard`` reproduces exactly what ``make_population`` builds from the
    run spec's shape fields; ``majority`` builds the Section-1.2 variant
    (its ``k0``/``k1`` parameters define the source structure, so the run
    spec's ``num_sources`` is not consulted, and ``correct_opinion`` must
    agree with the declared source majority).
    """
    name = spec.get("name")
    if name not in _POPULATIONS:
        raise ValueError(
            f"unknown population {name!r}; known populations: {population_names()}"
        )
    builder, allowed = _POPULATIONS[name]
    return builder(_params(spec, "population", allowed), n, num_sources, correct_opinion)


def population_factory(
    spec: dict, n: int, *, num_sources: int = 1, correct_opinion: int = 1
) -> Callable[[], BatchedPopulation] | None:
    """Zero-argument factory building a fresh population per call.

    Returns ``None`` for the ``standard`` layout — it is precisely what the
    engines build natively from the shape fields, and resolving it to "no
    override" keeps the vectorized batch-initialization and counts fast
    paths available. Parameter errors surface immediately (the first
    instantiation happens in the creator), before any worker is spawned.
    """
    name = spec.get("name")
    if name not in _POPULATIONS:
        raise ValueError(
            f"unknown population {name!r}; known populations: {population_names()}"
        )
    _params(spec, "population", _POPULATIONS[name][1])
    if name == "standard":
        return None
    build_population(spec, n, num_sources=num_sources, correct_opinion=correct_opinion)
    return lambda: build_population(
        spec, n, num_sources=num_sources, correct_opinion=correct_opinion
    )


def build_samplers(spec: dict) -> BatchedSampler:
    """The observation model for an observation spec.

    Every engine consumes this one :class:`BatchedSampler`: the batched
    engine on its ``(R, n)`` batch, ``engine="sequential"`` on each trial's
    one-row batch, and the counts engine through its
    ``effective_fractions`` (fraction-keyed models only).
    """
    name = spec.get("name")
    if name not in _SAMPLERS:
        raise ValueError(f"unknown sampler {name!r}; known samplers: {sampler_names()}")
    builder, allowed = _SAMPLERS[name]
    return builder(_params(spec, "sampler", allowed))


def validate_cell(cell) -> None:
    """Fail fast on a cell whose components cannot be built.

    Called by the orchestrator on every cell before any worker is spawned,
    so a typo'd protocol, initializer, or sampler name raises one clear
    ValueError in the orchestrating process instead of an opaque exception
    from inside a pool worker after part of the grid has already run.
    """
    try:
        protocol = build_protocol(cell.protocol, cell.n)
        build_initializer(cell.initializer)
        population = getattr(cell, "population", None)
        if population is not None:
            build_population(
                population,
                cell.n,
                num_sources=cell.num_sources,
                correct_opinion=cell.correct_opinion,
            )
        if cell.initializer.get("name") == "frozen-unanimity" and (
            population is None or population.get("name") != "majority"
        ):
            raise ValueError(
                "the frozen-unanimity initializer models the majority variant; "
                "declare population={'name': 'majority', 'k0': ..., 'k1': ...}"
            )
        if cell.engine == "counts":
            # The counts engine models exchangeable source-pinned populations
            # through their state-count sufficient statistic; a component
            # that needs per-agent structure is rejected here, before any
            # worker is spawned — by the same rule ``auto`` uses to pick it.
            obstacle = cell.counts_obstacle(protocol)
            if obstacle is not None:
                raise ValueError(obstacle)
        if cell.sampler is not None:
            build_samplers(cell.sampler)
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"invalid sweep cell [{cell.label()}]: {error}") from error
