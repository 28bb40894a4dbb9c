"""Deterministic fault injection: a chaos layer for the sweep stack.

The paper's protocols are tested under adversarial starts and noise; this
module applies the same discipline to the *execution substrate*. A
:class:`FaultPlan` names, per cell index and attempt number, one of three
faults, and :class:`FaultInjector` wraps a work function (normally
:func:`~repro.sweep.runner.execute_cell`) so those faults actually happen
inside pool workers:

``"raise"``
    The attempt raises :class:`InjectedFault` — a plain cell exception.
``"hang"``
    The attempt sleeps ``hang_seconds`` before proceeding — long enough
    (default one hour) that only the dispatcher's timeout watchdog can
    recover it; with a small ``hang_seconds`` it instead models a
    transiently slow cell that finishes late.
``"kill"``
    The attempt calls ``os._exit(1)`` — the worker process dies without
    cleanup, exactly like a segfault or an OOM kill, poisoning the whole
    process pool.

Everything is reproducible: a plan is either written out explicitly or
derived from a seed (:meth:`FaultPlan.sample`), and attempt numbers are
counted through small files in a scratch directory, which is what lets an
injector running in *different worker processes across pool rebuilds*
agree on which attempt a cell is on (attempts of one cell are serialized
by the dispatcher, so no locking is needed). The injected faults therefore
land on exactly the chosen (cell, attempt) pairs at any job count — the
property the chaos acceptance tests in ``tests/test_faults.py`` build on:
a faulted sweep, once recovered, is bitwise identical to a fault-free run.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["FAULT_KINDS", "InjectedFault", "FaultPlan", "FaultInjector"]

#: The injectable fault kinds.
FAULT_KINDS = ("raise", "hang", "kill")


class InjectedFault(RuntimeError):
    """The exception raised by a planned ``"raise"`` fault."""


@dataclass(frozen=True)
class FaultPlan:
    """Which fault (if any) hits each (cell index, attempt number) pair.

    ``faults`` maps a cell's index in the dispatched item list to a mapping
    from 0-based attempt number to a fault kind. Pairs not named run clean,
    so ``{3: {0: "kill"}}`` kills the worker on cell 3's first attempt and
    lets every retry through.
    """

    faults: Mapping[int, Mapping[int, str]] = field(default_factory=dict)
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.hang_seconds < 0:
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")
        for index, per_attempt in self.faults.items():
            for attempt, kind in per_attempt.items():
                if kind not in FAULT_KINDS:
                    raise ValueError(
                        f"unknown fault kind {kind!r} for cell {index} attempt "
                        f"{attempt}; known kinds: {FAULT_KINDS}"
                    )

    def fault_for(self, index: int, attempt: int) -> str | None:
        """The planned fault for this (cell, attempt), or ``None``."""
        return self.faults.get(index, {}).get(attempt)

    @property
    def faulted_cells(self) -> tuple[int, ...]:
        """Cell indices carrying at least one planned fault, sorted."""
        return tuple(sorted(self.faults))

    @classmethod
    def sample(
        cls,
        num_cells: int,
        *,
        seed: int,
        rate: float = 0.3,
        kinds: Sequence[str] = ("raise",),
        attempts: Sequence[int] = (0,),
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Derive a reproducible random plan from a seed.

        Each (cell, attempt) pair in ``range(num_cells) x attempts``
        independently draws a fault with probability ``rate``, its kind
        uniform over ``kinds``. The same seed always yields the same plan,
        so a chaos test can be re-run bit-for-bit.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; known kinds: {FAULT_KINDS}")
        rng = np.random.default_rng(seed)
        faults: dict[int, dict[int, str]] = {}
        for index in range(num_cells):
            for attempt in attempts:
                if rng.random() < rate:
                    faults.setdefault(index, {})[int(attempt)] = str(
                        kinds[int(rng.integers(len(kinds)))]
                    )
        return cls(faults=faults, hang_seconds=hang_seconds)


def _item_key(item) -> str:
    """A stable string identity for a work item (cells expose ``key()``)."""
    key = getattr(item, "key", None)
    if callable(key):
        return str(key())
    return repr(item)


class FaultInjector:
    """Picklable work-function wrapper that applies a :class:`FaultPlan`.

    Built from the exact item list that will be dispatched (plan indices
    refer to positions in that list) and a scratch directory for the
    cross-process attempt counters. Instances ship to pool workers by
    pickle — they hold only plain dicts, the plan, a path, and the wrapped
    function (which must itself be picklable, as pool work functions
    already are).
    """

    def __init__(
        self,
        fn: Callable,
        plan: FaultPlan,
        items: Sequence,
        counter_dir: str | Path,
    ) -> None:
        self.fn = fn
        self.plan = plan
        self.counter_dir = Path(counter_dir)
        self._index_of = {_item_key(item): index for index, item in enumerate(items)}
        if len(self._index_of) != len(items):
            raise ValueError("items must have distinct keys to address faults by index")
        missing = [index for index in plan.faults if index >= len(items)]
        if missing:
            raise ValueError(f"plan names cell indices beyond the item list: {missing}")

    # ------------------------------------------------------ attempt counting

    def _counter_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:24]
        return self.counter_dir / f"{digest}.attempt"

    def _bump_attempt(self, key: str) -> int:
        """Return this call's 0-based attempt number and persist the bump.

        File-based so attempts survive worker death and pool rebuilds; safe
        without locking because the dispatcher never runs two attempts of
        the same cell concurrently. The bump lands by atomic rename: a
        broken pool kills its innocent in-flight workers too, and one
        killed mid-write must not leave an empty counter behind.
        """
        path = self._counter_path(key)
        attempt = int(path.read_text()) if path.exists() else 0
        self.counter_dir.mkdir(parents=True, exist_ok=True)
        pending = path.with_suffix(".pending")
        pending.write_text(str(attempt + 1))
        os.replace(pending, path)
        return attempt

    def attempts_seen(self, item) -> int:
        """How many attempts of ``item`` have started (for assertions)."""
        path = self._counter_path(_item_key(item))
        return int(path.read_text()) if path.exists() else 0

    # -------------------------------------------------------------- the hook

    def __call__(self, item):
        key = _item_key(item)
        index = self._index_of[key]
        attempt = self._bump_attempt(key)
        kind = self.plan.fault_for(index, attempt)
        if kind == "raise":
            raise InjectedFault(f"injected exception: cell {index}, attempt {attempt}")
        if kind == "hang":
            time.sleep(self.plan.hang_seconds)
        elif kind == "kill":
            os._exit(1)
        return self.fn(item)
