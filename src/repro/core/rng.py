"""Seeded random-number-generator service.

All stochastic components in the library draw from :class:`numpy.random.Generator`
instances created here. Experiments that run many independent trials use
:func:`spawn_rngs` so that every trial gets a statistically independent stream
derived from a single user-supplied seed, which makes every experiment in the
repository exactly reproducible from one integer.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "as_rng"]


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a new generator from ``seed``.

    ``None`` draws entropy from the OS; experiments should always pass an
    explicit integer so that results are reproducible.
    """
    return np.random.default_rng(seed)


def as_rng(seed_or_rng: int | None | np.random.Generator) -> np.random.Generator:
    """Coerce an integer seed, ``None``, or an existing generator into a generator.

    Passing an existing generator returns it unchanged (no reseeding), which
    lets every public API accept either form.
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return make_rng(seed_or_rng)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from a single integer seed.

    Uses :class:`numpy.random.SeedSequence` spawning, so the streams are
    independent by construction (distinct spawn keys), not merely seeded with
    ``seed + i``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


def interleave_seeds(seed: int, labels: Sequence[str] | Iterable[str]) -> dict[str, np.random.Generator]:
    """Map string labels to independent generators derived from ``seed``.

    The mapping is stable in the order of ``labels``: the i-th label receives
    the i-th spawned stream.
    """
    labels = list(labels)
    rngs = spawn_rngs(seed, len(labels))
    return dict(zip(labels, rngs))
