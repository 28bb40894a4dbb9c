"""PULL-model sampling substrate.

In the paper's ``PULL`` model each agent observes the opinions of ``ℓ`` agents
chosen uniformly at random *with replacement* each round. Under passive
communication the only extractable information is the opinion bit, so an
observation is fully summarized by *the number of 1-opinions among the ℓ
samples* (paper, Section 1.2).

Every sampler is a :class:`BatchedSampler`: one call observes every agent of
every replica of an ``(R, n)`` batch, and a single population is the
``R = 1`` case — there is no separate single-population sampler. Two
observation models are provided:

* :class:`BatchedBinomialSampler` — the fast path. When sampling uniformly
  with replacement from a population whose one-fraction is ``x``, the count
  of ones among ``ℓ`` draws is exactly ``Binomial(ℓ, x)``; we draw those
  counts directly, keyed on each replica's ``x``, through the tiered
  :func:`batched_binomial_counts`. This is an *exact* simulation of the
  model, not an approximation.
* :class:`IndexSampler` — the literal path. Draws explicit ``(R, n, ℓ)``
  agent identities and counts ones among them. Slower, but supports
  ``exclude_self`` (sampling "ℓ *other* agents"). Tests verify it agrees in
  distribution with the fast path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..telemetry import catalog
from ..telemetry.registry import MetricsRegistry, current_registry
from ..telemetry.spans import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .batch import BatchedPopulation

__all__ = [
    "BatchedSampler",
    "BatchedBinomialSampler",
    "IndexSampler",
    "batched_binomial_counts",
]


class BatchedSampler(ABC):
    """Per-agent PULL observations for *all replicas* of a batch at once.

    One call produces the counts of every agent in every replica of a
    :class:`~repro.core.batch.BatchedPopulation`, drawn within each replica.
    A single population is the one-row case.
    """

    @abstractmethod
    def counts(
        self,
        batch: "BatchedPopulation",
        ell: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return an ``(R, n)`` int array: per-agent 1-counts among ``ell``
        uniform-with-replacement samples, drawn within each replica."""

    def count_blocks(
        self,
        batch: "BatchedPopulation",
        ell: int,
        blocks: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return a ``(blocks, R, n)`` int array of independent count tensors.

        FET draws ``2ℓ`` samples and partitions them into two blocks of ℓ;
        with uniform-with-replacement sampling the two block counts are
        independent ``Binomial(ℓ, x)`` variables, which is what this returns
        for ``blocks=2``.

        The returned tensor must be freshly allocated per call: ownership
        passes to the caller, and vectorized protocol steps may consume the
        blocks as scratch buffers on their hot path.
        """
        return np.stack([self.counts(batch, ell, rng) for _ in range(blocks)])


class IndexSampler(BatchedSampler):
    """Literal index-level sampler.

    Draws explicit ``(R, n, ℓ)`` agent identities and counts ones among
    them. Slower than :class:`BatchedBinomialSampler`, and not keyed on
    one-fractions (no ``effective_fractions``), so the counts engine rejects
    it; it exists so the fast path's exactness and the ``exclude_self``
    claim can be checked rather than assumed.

    Parameters
    ----------
    exclude_self:
        When ``True``, agent ``i`` never samples itself (the paper's "ℓ
        *other* agents"). For ``ℓ ≪ n`` the difference from unrestricted
        sampling is ``O(ℓ/n)`` per observation and does not affect any result.
    """

    def __init__(self, exclude_self: bool = False) -> None:
        self.exclude_self = exclude_self

    def indices(
        self,
        batch: "BatchedPopulation",
        ell: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return an ``(R, n, ell)`` int array of sampled agent indices,
        drawn within each replica."""
        replicas, n = batch.replicas, batch.n
        if ell < 0:
            raise ValueError(f"ell must be non-negative, got {ell}")
        if not self.exclude_self:
            return rng.integers(0, n, size=(replicas, n, ell))
        # Sample from n-1 "other" agents: draw in [0, n-2] and shift values
        # >= own index up by one, a standard bijection onto {0..n-1} \ {i}.
        draws = rng.integers(0, n - 1, size=(replicas, n, ell))
        own = np.arange(n)[None, :, None]
        return draws + (draws >= own)

    def counts(
        self,
        batch: "BatchedPopulation",
        ell: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        idx = self.indices(batch, ell, rng)
        rows = np.arange(batch.replicas)[:, None, None]
        return batch.opinions[rows, idx].sum(axis=2, dtype=np.int64)


#: Use numpy's scalar-p binomial generator (geometric-search inversion, cheap
#: when the distribution hugs one end) for rows with ``ℓ·min(x, 1-x)`` at or
#: below this; rows in the middle of the range go through the
#: sufficient-statistic histogram draw, whose per-draw cost is O(1)
#: regardless of x.
_INVERSION_CUTOFF = 3.0

#: Far below the inversion cutoff the draws are almost all 0 (or almost all
#: ℓ): at this tail the non-modal probability is ``1 - e^{-tail} ≈ 0.33`` or
#: less, and generating only the rare non-modal draws by geometric-gap
#: placement beats any per-element generator (the crossover vs numpy's
#: scalar-p inversion is shallow between ~0.25 and ~0.5, and the advantage
#: grows to ~10× as the tail shrinks). The cutoff sits at 0.4 rather than at
#: the nominal ~0.25 crossover because the noisy-FET hover band parks whole
#: sweeps at ``ℓ·(1-x̃) ≈ 0.3`` — with the trend rule pinning ``x̃`` just off
#: consensus, every round of every replica lands there — and routing that
#: band to the sparse path is a measured win while costing nothing in the
#: shallow-crossover region. Near-consensus rows — all-wrong openings,
#: noise-hover rounds, and linger/settle windows — sit inside this band.
_SPARSE_CUTOFF = 0.4

#: Guards against log(0) when building pmfs; distorts probabilities by less
#: than one float64 ulp, i.e. below the resolution of the draws themselves.
_TINY = 1e-300
_ALMOST_ONE = 1.0 - 1e-16


def _binomial_pmf_rows(ell: int, x_rows: np.ndarray) -> np.ndarray:
    """Row-wise ``Binomial(ℓ, x_r)`` pmfs, shape ``(rows, ℓ+1)``.

    Built in log space so extreme ``x`` cannot underflow the ``(1-x)^ℓ``
    anchor term, then normalized.
    """
    xs = np.clip(x_rows, _TINY, _ALMOST_ONE)
    k = np.arange(ell + 1, dtype=float)
    log_choose = np.concatenate(([0.0], np.cumsum(np.log((ell - k[:-1]) / (k[:-1] + 1.0)))))
    logpmf = (
        log_choose[None, :]
        + k[None, :] * np.log(xs)[:, None]
        + (ell - k)[None, :] * np.log1p(-xs)[:, None]
    )
    logpmf -= logpmf.max(axis=1, keepdims=True)
    pmf = np.exp(logpmf)
    pmf /= pmf.sum(axis=1, keepdims=True)
    return pmf


def _histogram_binomial_rows(
    rng: np.random.Generator,
    ell: int,
    x_rows: np.ndarray,
    blocks: int,
    n: int,
) -> np.ndarray:
    """``(blocks, rows, n)`` iid ``Binomial(ℓ, x_r)`` draws per row, via the
    sufficient statistic.

    Within a row all ``n`` draws share one distribution, so the *histogram*
    of the row is ``Multinomial(n, pmf)``; drawing the histogram and
    uniformly shuffling the implied multiset across the row reproduces the
    iid vector exactly (an iid sample conditioned on its histogram is a
    uniformly random arrangement). This costs O(ℓ) distribution setup per
    row plus O(1) per draw — unlike numpy's generator with a non-scalar
    ``p``, which pays its full per-draw setup for every element, and unlike
    its scalar-p inversion loop, whose per-draw cost grows with
    ``ℓ·min(x, 1-x)``.
    """
    rows = x_rows.shape[0]
    pmf = _binomial_pmf_rows(ell, x_rows)
    hist = rng.multinomial(n, np.broadcast_to(pmf, (blocks, rows, ell + 1)))
    # int32 counts: half the memory traffic of numpy's int64 draws, and every
    # downstream consumer only compares or sums them.
    values = np.repeat(
        np.tile(np.arange(ell + 1, dtype=np.int32), blocks * rows), hist.ravel()
    ).reshape(blocks * rows, n)
    rng.permuted(values, axis=1, out=values)
    return values.reshape(blocks, rows, n)


def _sparse_binomial_rows(
    rng: np.random.Generator,
    ell: int,
    x_rows: np.ndarray,
    blocks: int,
    n: int,
) -> np.ndarray:
    """``(blocks, rows, n)`` iid ``Binomial(ℓ, x_r)`` draws for extreme-x rows
    by geometric-gap placement of the rare non-modal draws.

    Within a row at small ``y = min(x, 1-x)`` almost every draw equals the
    modal count (0, or ℓ for ``x`` near 1 by the mirror ``ℓ - Binomial(ℓ,
    1-x)``). The iid vector is reproduced exactly in three steps, paying
    O(1) per *non-modal* draw instead of per element:

    1. fill the row with the modal value;
    2. walk each (block, row) lane left to right placing non-modal draws:
       a position is non-modal independently with ``q = 1 - (1-y)^ℓ``, so
       the gaps between successive non-modal positions are iid
       ``Geometric(q)`` — drawn vectorized across lanes by inverse CDF
       (``1 + ⌊ln U / ln(1-q)⌋``);
    3. give every placed position a count from the conditional distribution
       ``Binomial(ℓ, y) | ≥ 1`` (row-wise inverse CDF), mirrored back for
       flipped rows.

    Exact in distribution up to float64 rounding of ``q`` and the
    conditional pmf — the same resolution every float-p sampler has.
    """
    rows = x_rows.shape[0]
    out = np.zeros((blocks, rows, n), dtype=np.int32)
    if rows == 0 or blocks == 0 or n == 0 or ell == 0:
        return out
    flipped = x_rows > 0.5
    y = np.where(flipped, 1.0 - x_rows, x_rows)
    if flipped.any():
        out[:, flipped, :] = ell
    # P(draw is non-modal); log-space so tiny y cannot underflow. q reaches
    # exactly 1.0 when (1-y)^ell underflows — then every gap below is 1 and
    # the lane degenerates to a dense fill, which stays exact (just slow;
    # such rows only get here under a forced method="sparse").
    q = -np.expm1(ell * np.log1p(-np.minimum(y, _ALMOST_ONE)))
    lanes2d = out.reshape(blocks * rows, n)  # C-order: lane = block·rows + row
    q_lane = np.tile(q, blocks)
    with np.errstate(divide="ignore"):  # q == 1 -> log1p(-q) == -inf, handled
        log1m_q = np.log1p(-q_lane)
    # Bound |ln(1-q)| below so the gap ratio ln U / ln(1-q) stays finite for
    # denormal-tiny q: |ln U| <= 691, so the ratio is at most ~7e302 instead
    # of overflowing. Such gaps exceed every lane end either way and are
    # clamped to it below, so the draws are unchanged.
    np.minimum(log1m_q, -_TINY, out=log1m_q)

    positive = np.nonzero(q_lane > 0.0)[0]
    hit_lanes: list[np.ndarray] = []
    hit_pos: list[np.ndarray] = []
    first = q_lane[positive[0]] if positive.size else 0.0
    if positive.size and (q_lane[positive] == first).all():
        # Lock-step fast path — all lanes share one q (every replica at the
        # same one-fraction, e.g. identical starts or the opening rounds of
        # an all-wrong batch). The lanes concatenate into a single Bernoulli
        # line of length lanes·n (per-slot independence is q-homogeneous
        # across the seam), so one 1-d gap stream places every draw with
        # O(√K) slack instead of per-lane mean + 4σ.
        line_len = positive.size * n
        lq = float(log1m_q[positive[0]])
        line_pos = -1
        while line_pos < line_len - 1:
            expect = (line_len - 1 - line_pos) * first
            cap = int(min(np.ceil(expect + 4.0 * np.sqrt(expect) + 16.0), 8e6))
            u = rng.random(cap)
            np.maximum(u, _TINY, out=u)  # log(0) guard, < 1 ulp of distortion
            np.log(u, out=u)
            if lq != 0.0:
                u /= lq
            u += 1.0
            # Any gap beyond the line is equivalent to "no further draws";
            # clamping keeps the int64 cast finite when q is denormal-tiny
            # (ln U / ln(1-q) overflows float64) and guarantees progress.
            np.minimum(u, float(line_len) + 1.0, out=u)
            steps = u.astype(np.int64)
            np.cumsum(steps, out=steps)
            steps += line_pos
            hits = steps[steps < line_len]
            hit_lanes.append(positive[hits // n])
            hit_pos.append(hits % n)
            line_pos = int(steps[-1]) if steps.size else line_len
    else:
        active = positive
        pos = np.full(active.size, -1, dtype=np.int64)
        while active.size:
            # Enough gap draws to finish most lanes this pass (mean + 4σ),
            # bounded so a heterogeneous batch cannot allocate a huge matrix.
            expect = float(((n - pos) * q_lane[active]).max())
            cap = int(np.clip(np.ceil(expect + 4.0 * np.sqrt(expect) + 4.0), 4, 4096))
            # In-place inverse-CDF gaps, 1 + floor(ln U / ln(1-q)); the +1 is
            # folded in before truncation (the ratio is non-negative, so
            # astype truncation is the floor).
            u = rng.random((active.size, cap))
            np.maximum(u, _TINY, out=u)  # log(0) guard, < 1 ulp of distortion
            np.log(u, out=u)
            u /= log1m_q[active, None]
            u += 1.0
            # Same finite-cast/progress clamp as the lock-step path: a gap
            # past the lane end means "no further draws in this lane".
            np.minimum(u, float(n) + 1.0, out=u)
            steps = u.astype(np.int64)
            np.cumsum(steps, axis=1, out=steps)
            steps += pos[:, None]
            flat_hits = np.nonzero((steps < n).ravel())[0]
            hit_lanes.append(active[flat_hits // cap])
            hit_pos.append(steps.ravel()[flat_hits])
            pos = steps[:, -1]
            alive = pos < n - 1
            active = active[alive]
            pos = pos[alive]
    if not hit_lanes:
        return out
    # Both placement loops almost always finish in one pass; skip the copy.
    lane_idx = hit_lanes[0] if len(hit_lanes) == 1 else np.concatenate(hit_lanes)
    pos_idx = hit_pos[0] if len(hit_pos) == 1 else np.concatenate(hit_pos)
    if lane_idx.size == 0:
        return out

    # Conditional count for each placed position: inverse CDF of
    # Binomial(ℓ, y) given >= 1. The overwhelming majority of conditional
    # draws equal 1, so those short-circuit on a single gathered-threshold
    # test and only the remainder pays the row-offset searchsorted.
    ccdf = np.cumsum(_binomial_pmf_rows(ell, y)[:, 1:], axis=1)
    ccdf /= ccdf[:, -1:]
    ccdf[:, -1] = 1.0
    row_of_lane = lane_idx % rows
    u2 = rng.random(lane_idx.size)
    values = np.ones(lane_idx.size, dtype=np.int32)
    deeper = u2 > ccdf[row_of_lane, 0]
    if deeper.any():
        rows_d = row_of_lane[deeper]
        flat_cdf = (ccdf + np.arange(rows, dtype=float)[:, None]).ravel()
        found = np.searchsorted(flat_cdf, u2[deeper] + rows_d, side="left")
        values[deeper] = (found - rows_d * ell + 1).astype(np.int32)
    if flipped.any():
        values = np.where(flipped[row_of_lane], ell - values, values)
    lanes2d[lane_idx, pos_idx] = values
    return out


def _record_tier_rows(metrics: MetricsRegistry, **tiers: np.ndarray) -> None:
    """Count per-call tier routing of the ``"auto"`` strategy (rows per tier)."""
    for tier, mask in tiers.items():
        rows = int(np.count_nonzero(mask))
        if rows:
            catalog.SAMPLER_TIER_ROWS.on(metrics, tier=tier).inc(rows)


def batched_binomial_counts(
    rng: np.random.Generator,
    ell: int,
    x: np.ndarray,
    blocks: int,
    n: int,
    method: str = "auto",
) -> np.ndarray:
    """Draw a ``(blocks, A, n)`` tensor of ``Binomial(ℓ, x_r)`` counts.

    Row ``r`` of every block holds ``n`` iid ``Binomial(ell, x[r])`` draws,
    the per-agent counts of a replica at one-fraction ``x[r]``. All methods
    are exact in distribution (up to float64 rounding of
    the pmf, the same resolution every float-p sampler has):

    * ``"binomial"`` — one broadcast ``rng.binomial`` call. Reference
      implementation; numpy pays its per-draw distribution setup for every
      element when ``p`` is an array, so this is the slowest.
    * ``"histogram"`` — sufficient-statistic draw for every row (see
      :func:`_histogram_binomial_rows`).
    * ``"sparse"`` — geometric-gap placement of the non-modal draws for
      every row (see :func:`_sparse_binomial_rows`); intended for rows near
      one end, where it costs O(non-modal draws) instead of O(elements).
    * ``"auto"`` (default) — tiered: rows at exactly ``x ∈ {0, 1}`` (consensus
      configurations, the bulk of stability-window rounds) are deterministic
      fills; near-consensus rows (``ℓ·min(x, 1-x) ≤ 0.4``, a band wide
      enough to cover the noisy-FET hover fractions) use the sparse
      geometric-gap generator; rows hugging one end less tightly
      (``ℓ·min(x, 1-x) ≤ 3``) use numpy's scalar-p generator grouped by
      distinct ``x`` value, where its inversion loop is short; remaining
      rows use the histogram draw. This is what makes many-replica
      simulation decisively faster than per-trial loops — the draw itself
      gets cheaper, not just the Python overhead.
    """
    with span("draw_tier", method=method):
        return _batched_binomial_counts(rng, ell, x, blocks, n, method)


def _batched_binomial_counts(
    rng: np.random.Generator,
    ell: int,
    x: np.ndarray,
    blocks: int,
    n: int,
    method: str,
) -> np.ndarray:
    if ell < 0:
        raise ValueError(f"ell must be non-negative, got {ell}")
    if blocks < 0:
        raise ValueError(f"blocks must be non-negative, got {blocks}")
    if method not in ("auto", "histogram", "binomial", "sparse"):
        raise ValueError(f"unknown method {method!r}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"x must be a 1-d per-replica vector, got shape {x.shape}")
    lo, hi = (x.min(), x.max()) if x.size else (0.0, 0.0)
    if lo < 0.0 or hi > 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    replicas = x.shape[0]
    if ell == 0 or replicas == 0 or blocks == 0 or n == 0:
        return np.zeros((blocks, replicas, n), dtype=np.int64)
    if method == "binomial":
        return rng.binomial(ell, x[None, :, None], size=(blocks, replicas, n))
    if method == "histogram":
        return _histogram_binomial_rows(rng, ell, x, blocks, n)
    if method == "sparse":
        return _sparse_binomial_rows(rng, ell, x, blocks, n)
    # Single-strategy fast paths — the overwhelmingly common rounds (all
    # replicas at consensus, or all in lock-step near one end) skip the
    # allocate-and-scatter entirely. All rows at x = 0 (or all at x = 1) is
    # read off the range check's extremes, before any tier mask is built.
    metrics = current_registry()
    if hi == 0.0 or lo == 1.0:
        if metrics is not None:
            _record_tier_rows(metrics, consensus=x == lo)
        return np.full((blocks, replicas, n), ell if lo == 1.0 else 0, dtype=np.int32)
    zeros = x == 0.0
    ones = x == 1.0
    tail = ell * np.minimum(x, 1.0 - x)
    extreme = ~zeros & ~ones
    sparse_rows = extreme & (tail <= _SPARSE_CUTOFF)
    scalar_rows = extreme & ~sparse_rows & (tail <= _INVERSION_CUTOFF)
    histogram_rows = extreme & (tail > _INVERSION_CUTOFF)
    if metrics is not None:
        _record_tier_rows(
            metrics, consensus=~extreme, sparse=sparse_rows, grouped=scalar_rows,
            histogram=histogram_rows,
        )
    if sparse_rows.all():
        return _sparse_binomial_rows(rng, ell, x, blocks, n)
    if scalar_rows.all() and (x == x[0]).all():
        return rng.binomial(ell, x[0], size=(blocks, replicas, n))
    if histogram_rows.all():
        return _histogram_binomial_rows(rng, ell, x, blocks, n)
    out = np.empty((blocks, replicas, n), dtype=np.int32)
    out[:, zeros, :] = 0
    out[:, ones, :] = ell
    if sparse_rows.any():
        indices = np.nonzero(sparse_rows)[0]
        out[:, indices, :] = _sparse_binomial_rows(rng, ell, x[indices], blocks, n)
    if scalar_rows.any():
        indices = np.nonzero(scalar_rows)[0]
        values, inverse = np.unique(x[indices], return_inverse=True)
        for j, value in enumerate(values):
            group = indices[inverse == j]
            out[:, group, :] = rng.binomial(ell, value, size=(blocks, group.size, n))
    if histogram_rows.any():
        indices = np.nonzero(histogram_rows)[0]
        out[:, indices, :] = _histogram_binomial_rows(rng, ell, x[indices], blocks, n)
    return out


class BatchedBinomialSampler(BatchedSampler):
    """Exact-in-distribution fast sampler over an ``(R, n)`` batch.

    Within replica ``r`` with one-fraction ``x_r``, every count is an
    independent ``Binomial(ℓ, x_r)`` draw; the whole batch is served by one
    :func:`batched_binomial_counts` call keyed on the ``(R,)`` fraction
    vector, on the helper's default ``"auto"`` tiering.
    """

    def _fractions(self, batch: "BatchedPopulation") -> np.ndarray:
        """Per-replica effective one-fractions; hook for noisy variants."""
        return batch.fraction_ones()

    def effective_fractions(self, batch: "BatchedPopulation") -> np.ndarray:
        """Public seam: the ``(R,)`` one-fraction vector draws are keyed on.

        The counts engine consumes the observation model through this method
        alone — it needs the effective fraction each agent samples against
        (noise included, for noisy variants) and draws its own multinomial
        transitions from it, so any sampler in the ``BatchedBinomialSampler``
        family works on the counts path without materializing per-agent
        draws. ``batch`` may be any object exposing ``fraction_ones()``.
        """
        return self._fractions(batch)

    def counts(
        self,
        batch: "BatchedPopulation",
        ell: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return self.count_blocks(batch, ell, 1, rng)[0]

    def count_blocks(
        self,
        batch: "BatchedPopulation",
        ell: int,
        blocks: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        return batched_binomial_counts(rng, ell, self._fractions(batch), blocks, batch.n)
