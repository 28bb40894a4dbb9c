"""Declarative sweep grids: axes, cells, and deterministic per-cell seeds.

A :class:`SweepSpec` names the axes of an experiment grid by *value lists*
rather than by Python objects, so a whole sweep round-trips through JSON:
it can live in a file, be handed to ``repro sweep``, be hashed into a
results-store key, and be shipped to a worker process.
:meth:`SweepSpec.expand` turns the spec into a flat list of independent
cells — and since the unified run-config API, a cell *is* a
:class:`~repro.config.RunSpec` carrying its derived seed (``Cell`` is an
alias), so every grid point is a complete, executable run description.

Three families of axes exist (spec **version 2**; version-1 files, which
predate the extended families, load unchanged through :func:`load_spec`):

* the **core four** — ``protocol``, ``n``, ``noise``, ``initializer`` —
  crossed in that canonical order exactly as in version 1;
* **extended field axes** (:data:`EXTENDED_AXES`) — any remaining
  :class:`~repro.config.RunSpec` field: ``sampler``, ``population``,
  ``num_sources``, ``correct_opinion``, ``stability_rounds``,
  ``linger_rounds``, ``trials``, ``max_rounds``, ``engine`` — crossed after the core four in
  sorted-name order, so grids that only use the core four keep their exact
  version-1 cell order, seeds, and keys;
* **dotted parameter axes** — ``"protocol.ell"``, ``"protocol.band"``,
  ``"initializer.p"``, ``"sampler.epsilon"``, ``"measure.theta"`` … —
  each value is merged into the named component dict of the cell, so
  one-spec-per-parameter-value sweeps collapse into a single grid.

Axes are **crossed** by default (full Cartesian product in the canonical
order); axes listed together in ``zipped`` advance **in lock-step**
instead (their value lists must have equal length), e.g. zipping ``n``
with ``initializer`` pairs the i-th population size with the i-th start.

Every cell receives its own integer seed derived from the spec's base seed
and a content hash of the cell's configuration (:func:`~repro.config.derive_seed`).
The derivation is a :class:`numpy.random.SeedSequence` over distinct
entropy tuples, so cell streams are independent by construction, and —
because the hash covers only the cell's own configuration — a cell keeps
its seed (and therefore its exact results) when the surrounding grid is
reordered, grown, or split across resumed runs. Cells whose extended
fields sit at their defaults hash exactly as their version-1 form did.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..config import ENGINES, RunSpec, canonical_json, derive_seed, normalize_component

__all__ = [
    "AXES",
    "EXTENDED_AXES",
    "SPEC_VERSION",
    "Cell",
    "SweepSpec",
    "canonical_json",
    "fet_demo_spec",
    "load_spec",
]

#: Canonical core axis order; cross-product expansion and cell ordering put
#: these first, exactly as version-1 specs did.
AXES = ("protocol", "n", "noise", "initializer")

#: The remaining grid-able RunSpec fields (spec version 2); crossed after
#: the core four, in sorted-name order.
EXTENDED_AXES = (
    "correct_opinion",
    "engine",
    "linger_rounds",
    "max_rounds",
    "num_sources",
    "population",
    "sampler",
    "stability_rounds",
    "trials",
)

#: Component dicts a dotted axis ("root.param") may merge parameters into.
DOTTED_ROOTS = ("protocol", "initializer", "sampler", "measure")

#: Current sweep-spec file version. Files without a ``version`` key are
#: version 1 (core axes only) and load unchanged.
SPEC_VERSION = 2

#: A sweep cell is a complete run description plus its derived seed.
Cell = RunSpec


def _int_values(values: list, axis: str, minimum: int) -> list[int]:
    out = [int(v) for v in values]
    for v in out:
        if v < minimum:
            raise ValueError(f"{axis} axis values must be >= {minimum}, got {v}")
    return out


@dataclass
class SweepSpec:
    """Declarative experiment grid over any :class:`RunSpec` field.

    Parameters
    ----------
    axes:
        Axis name → value list. ``protocol`` and ``n`` are required;
        ``noise`` defaults to ``[0.0]`` and ``initializer`` to all-wrong.
        Scalars are auto-wrapped into single-value lists; component entries
        (protocol, initializer, sampler) may be bare names or ``{"name":
        ..., params}`` dicts (see ``sweep.registry`` for the known names
        and parameters). Beyond the core four, any name in
        :data:`EXTENDED_AXES` grids the matching :class:`RunSpec` field,
        and dotted names (``"protocol.ell"``) grid a single component
        parameter — see the module docstring.
    zipped:
        Groups of axis names that advance in lock-step instead of being
        crossed; the lists of every axis in a group must have equal length.
    trials:
        Trials per cell (0 allowed: cells degrade to empty aggregates);
        a ``trials`` axis overrides it per cell.
    max_rounds:
        Per-run round budget. ``None`` applies the poly-log rule
        ``max(min_rounds, int(max_rounds_factor · (ln n)^2.5))`` per cell —
        the Theorem-1 scaling convention of the convergence sweeps. A
        ``max_rounds`` axis overrides both per cell.
    measure:
        ``{"kind": "consensus"}`` (default; full convergence aggregates via
        the run-spec executor), ``{"kind": "theta", "theta": ..,
        "settle_window": ..}`` (θ-convergence + settle level, the
        robustness-sweep measurement, served by trace recording on the
        lock-step engines), or ``{"kind": "trace",
        "stride": .., "ring": .., "flips": ..}`` (convergence aggregates
        plus trace-derived trajectory statistics). Kinds live in the
        runner's measure registry (``repro.sweep.register_measure``);
        ``measure.<param>`` axes grid a measure parameter.
    """

    axes: dict[str, list]
    trials: int
    seed: int = 0
    name: str = "sweep"
    zipped: list[list[str]] = field(default_factory=list)
    max_rounds: int | None = None
    max_rounds_factor: float = 40.0
    min_rounds: int = 50
    stability_rounds: int = 2
    engine: str = "auto"
    measure: dict = field(default_factory=lambda: {"kind": "consensus"})

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.stability_rounds < 1:
            raise ValueError(f"stability_rounds must be >= 1, got {self.stability_rounds}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {', '.join(map(repr, ENGINES))}, got {self.engine!r}"
            )

        axes = dict(self.axes)
        dotted = [axis for axis in axes if "." in axis]
        for axis in dotted:
            root, _, param = axis.partition(".")
            if root not in DOTTED_ROOTS:
                raise ValueError(
                    f"dotted axis {axis!r} must target one of {DOTTED_ROOTS}, got root {root!r}"
                )
            if not param or "." in param:
                raise ValueError(f"dotted axis {axis!r} must name exactly one parameter")
            if root == "sampler" and "sampler" not in axes:
                raise ValueError(
                    f"dotted axis {axis!r} needs a 'sampler' axis to merge into"
                )
        unknown = set(axes) - set(AXES) - set(EXTENDED_AXES) - set(dotted)
        if unknown:
            raise ValueError(
                f"unknown axes {sorted(unknown)}; known axes: {AXES + EXTENDED_AXES} "
                f"plus dotted parameters of {DOTTED_ROOTS}"
            )
        for required in ("protocol", "n"):
            if required not in axes:
                raise ValueError(f"axes must include {required!r}")
        axes.setdefault("noise", [0.0])
        axes.setdefault("initializer", [{"name": "all-wrong"}])
        for axis, values in axes.items():
            if not isinstance(values, (list, tuple)):
                values = [values]
            values = list(values)
            if not values:
                raise ValueError(f"axis {axis!r} must have at least one value")
            axes[axis] = values
        axes["protocol"] = [normalize_component(v, "protocol axis") for v in axes["protocol"]]
        axes["initializer"] = [
            normalize_component(v, "initializer axis") for v in axes["initializer"]
        ]
        axes["n"] = [int(v) for v in axes["n"]]
        axes["noise"] = [float(v) for v in axes["noise"]]
        for n in axes["n"]:
            if n < 2:
                raise ValueError(f"population sizes must be >= 2, got {n}")
        for eps in axes["noise"]:
            if not 0.0 <= eps <= 0.5:
                raise ValueError(f"noise levels must be in [0, 1/2], got {eps}")
        if "sampler" in axes:
            axes["sampler"] = [normalize_component(v, "sampler axis") for v in axes["sampler"]]
        if "population" in axes:
            axes["population"] = [
                normalize_component(v, "population axis") for v in axes["population"]
            ]
        if "engine" in axes:
            for value in axes["engine"]:
                if value not in ENGINES:
                    raise ValueError(
                        f"engine axis values must be one of "
                        f"{', '.join(map(repr, ENGINES))}, got {value!r}"
                    )
        if "correct_opinion" in axes:
            for value in axes["correct_opinion"]:
                if value not in (0, 1):
                    raise ValueError(f"correct_opinion axis values must be 0 or 1, got {value!r}")
        for axis, minimum in (
            ("num_sources", 1),
            ("stability_rounds", 1),
            ("linger_rounds", 0),
            ("trials", 0),
            ("max_rounds", 1),
        ):
            if axis in axes:
                axes[axis] = _int_values(axes[axis], axis, minimum)
        self.axes = axes
        self._dotted = sorted(dotted)

        # Measure validation happens in the runner's registry; the import is
        # deferred to keep spec importable first (runner imports spec at
        # module load). When measure parameters are gridded, each cell's
        # merged measure dict is validated during expansion instead.
        if not any(axis.startswith("measure.") for axis in self._dotted):
            from .runner import validate_measure

            validate_measure(self.measure)

        zipped = [list(group) for group in self.zipped]
        seen: set[str] = set()
        for group in zipped:
            if len(group) < 2:
                raise ValueError(f"zipped groups need at least two axes, got {group}")
            for axis in group:
                if axis not in self.axes:
                    raise ValueError(f"zipped axis {axis!r} is not a spec axis")
                if axis in seen:
                    raise ValueError(f"axis {axis!r} appears in more than one zipped group")
                seen.add(axis)
            lengths = {axis: len(self.axes[axis]) for axis in group}
            if len(set(lengths.values())) != 1:
                raise ValueError(f"zipped axes must have equal lengths, got {lengths}")
        self.zipped = zipped

    # ------------------------------------------------------------- expansion

    def _axis_order(self) -> list[str]:
        """All axes in canonical order: the core four, then extended fields
        and dotted parameters in sorted-name order (grids using only the
        core four therefore keep their version-1 cell order)."""
        extras = sorted(axis for axis in self.axes if axis not in AXES)
        return [axis for axis in AXES if axis in self.axes] + extras

    def _groups(self) -> list[list[str]]:
        """Iteration groups in canonical order: zipped axes travel together."""
        groups: list[list[str]] = []
        emitted: set[str] = set()
        order = self._axis_order()
        for axis in order:
            if axis in emitted:
                continue
            group = next((g for g in self.zipped if axis in g), None)
            if group is not None:
                ordered = [a for a in order if a in group]
                groups.append(ordered)
                emitted.update(ordered)
            else:
                groups.append([axis])
                emitted.add(axis)
        return groups

    def resolve_max_rounds(self, n: int) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return max(self.min_rounds, int(self.max_rounds_factor * math.log(n) ** 2.5))

    def expand(self) -> list[Cell]:
        """Expand the grid into independent cells, in canonical order.

        The order is the Cartesian product of the iteration groups in the
        canonical axis order — deterministic and independent of how the
        cells later get scheduled, which is what makes aggregate output
        reproducible across job counts.
        """
        validate_merged_measure = any(axis.startswith("measure.") for axis in self._dotted)
        if validate_merged_measure:
            from .runner import validate_measure

        groups = self._groups()
        lengths = [len(self.axes[group[0]]) for group in groups]
        cells: list[Cell] = []
        for combo in itertools.product(*(range(length) for length in lengths)):
            coords: dict[str, Any] = {}
            for group, index in zip(groups, combo):
                for axis in group:
                    coords[axis] = self.axes[axis][index]
            components: dict[str, Any] = {
                "protocol": coords["protocol"],
                "initializer": coords["initializer"],
                "sampler": coords.get("sampler"),
                "measure": self.measure,
            }
            for axis in self._dotted:
                root, _, param = axis.partition(".")
                components[root] = {**components[root], param: coords[axis]}
            if validate_merged_measure:
                validate_measure(components["measure"])
            n = coords["n"]
            draft = RunSpec(
                protocol=components["protocol"],
                n=n,
                noise=coords["noise"],
                initializer=components["initializer"],
                trials=coords.get("trials", self.trials),
                max_rounds=coords.get("max_rounds", self.resolve_max_rounds(n)),
                stability_rounds=coords.get("stability_rounds", self.stability_rounds),
                engine=coords.get("engine", self.engine),
                measure=components["measure"],
                sampler=components["sampler"],
                num_sources=coords.get("num_sources", 1),
                correct_opinion=coords.get("correct_opinion", 1),
                linger_rounds=coords.get("linger_rounds", 0),
                population=coords.get("population"),
            )
            seed = derive_seed(self.seed, draft.spec_dict())
            cells.append(replace(draft, seed=seed))
        return cells

    # --------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "axes": self.axes,
            "zipped": self.zipped,
            "max_rounds": self.max_rounds,
            "max_rounds_factor": self.max_rounds_factor,
            "min_rounds": self.min_rounds,
            "stability_rounds": self.stability_rounds,
            "engine": self.engine,
            "measure": self.measure,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Build a spec from its dict form — versioned.

        Files without a ``version`` key are version 1 and are held to the
        version-1 contract (core axes only, same validation and expansion
        as before the extended axes existed — their cells, seeds, and
        aggregate output are byte-identical). ``version: 2`` enables the
        extended and dotted axis families.
        """
        data = dict(data)
        version = data.pop("version", 1)
        if version not in (1, SPEC_VERSION):
            raise ValueError(
                f"unknown sweep spec version {version!r}; supported: 1, {SPEC_VERSION}"
            )
        known = {
            "name",
            "seed",
            "trials",
            "axes",
            "zipped",
            "max_rounds",
            "max_rounds_factor",
            "min_rounds",
            "stability_rounds",
            "engine",
            "measure",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown sweep spec keys {sorted(unknown)}; known keys: {sorted(known)}")
        for required in ("axes", "trials"):
            if required not in data:
                raise ValueError(f"sweep spec needs a {required!r} key")
        if version == 1:
            beyond_v1 = set(data["axes"]) - set(AXES)
            if beyond_v1:
                raise ValueError(
                    f"unknown axes {sorted(beyond_v1)} for a version-1 sweep spec; "
                    f"known axes: {AXES} (declare \"version\": {SPEC_VERSION} to use "
                    "extended or dotted axes)"
                )
        return cls(**data)


def load_spec(path: str | Path) -> SweepSpec:
    """Load a :class:`SweepSpec` from a JSON file (versioned — see
    :meth:`SweepSpec.from_dict`)."""
    with Path(path).open() as handle:
        return SweepSpec.from_dict(json.load(handle))


def fet_demo_spec(seed: int = 0) -> SweepSpec:
    """The built-in FET demo grid behind ``repro sweep`` with no ``--spec``.

    Six cells — FET with the paper's ℓ = ⌈8·ln n⌉ over three population
    sizes from the two canonical starts — small enough to finish in seconds
    while exercising grid expansion, parallel dispatch, and the store.
    """
    return SweepSpec(
        name="fet-demo",
        seed=seed,
        trials=20,
        axes={
            "protocol": ["fet"],
            "n": [100, 200, 400],
            "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
        },
    )
