"""Count kernels: one step against the per-agent rule, and the edges.

**One-step law.** For every count-capable protocol in the registry, at
noise ε ∈ {0, 0.05}: start ``REPLICAS`` one-source replicas of ``N`` agents
from one fixed mixed count vector, advance them one round per agent
(``step_batch`` through the batched binomial sampler, the literal rule) and
one round on counts (``step_counts`` from the same vector and the same
effective fraction), and compare the resulting non-source count states:

* per state, the law of its per-replica count (χ² homogeneity over the
  observed values, sparse values pooled);
* the pooled state histogram (χ² homogeneity over occupied states).

FET and hysteresis-FET carry their counter as one law per replica beside
the opinion counts. They start from an opinion-independent law that is not
``Binomial(ℓ, x̃)`` — half a point mass at ℓ, half uniform — drawn iid per
agent on the batched side, so a kernel that reads the fresh ``pmf(x̃)`` in
place of the carried law fails. The stepped law must match the batched
side's pooled fresh counters (χ² goodness of fit, sparse bins pooled).

The start vector is fixed, so the effective fraction is one number and every
agent moves independently given it: both sides sample the same one-step law,
and a kernel that sends any outcome to the wrong state fails here.

**Holding-time jumps.** For every two-class model in the registry, at
ε ∈ {0, 0.05}, at a still state that holds (``p_stay ≥ ½``, the public
``jump_counts`` route) and one that moves (``p_stay < ½``, the holding-time
draw itself): a jump capped at one round is one plain step in law (χ²
homogeneity of the new one-count, sparse values pooled).

**Edges.** The kernels that read tail sums — simple-trend's split and hazard
sweep, the majority rules' closed-form tails, the pair chain's averaged
adoption probabilities, the holding-time jump's stay probabilities and
zero-truncated draws — must stay well defined where those sums vanish: x̃
at or next to 0 and 1, ℓ from 1 to 129, all of up to 10⁹ agents in one
state. Every row keeps its sum, no count goes negative, no
RuntimeWarning is raised (the suite turns one into an error), and the
closed-form tails equal the pmf-slice sums they replace. At x̃ ∈ {0, 1}
undecided-state's three binomial splits send every agent to its one
certain next state.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.batch import BatchedPopulation
from repro.core.noise import BatchedNoisyCountSampler
from repro.core.population import make_population
from repro.core.sampling import _binomial_pmf_rows
from repro.protocols.counting import _hold, _log_stay, binomial_upper_tail
from repro.protocols.fet import FETProtocol
from repro.protocols.hysteresis import HysteresisFETProtocol
from repro.protocols.majority import MajorityProtocol
from repro.protocols.majority_sampling import MajoritySamplingProtocol
from repro.protocols.simple_trend import SimpleTrendProtocol
from repro.protocols.undecided import UndecidedStateProtocol
from repro.protocols.voter import VoterProtocol
from repro.sweep.registry import build_protocol, protocol_names
from reference.count_states import (
    agent_states,
    counter_in_state,
    install_states,
    pooled_chisquare,
)

N = 40
REPLICAS = 2000
#: values of a per-state count are pooled until a bin holds this many replicas
MIN_BIN = 20
P_MIN = 1e-3
COUNT_MODELS = [
    name for name in protocol_names() if build_protocol({"name": name}, N).counts_supported
]


def start_vector(protocol) -> np.ndarray:
    """A fixed mixed start: the non-sources split evenly between the
    opinions; at opinion 0 a prev-count held in the count states sits where
    a balanced population's counts fall, at opinion 1 it is uniform — so
    the two opinions' states differ wherever an outcome's opinion matters."""
    ell = getattr(protocol, "ell", 1)
    near = protocol.count_state_pmf(scipy_stats.binom.pmf(np.arange(ell + 1), ell, 0.5))
    law = (near[0] + protocol.count_state_pmf()[1]) / 2
    return np.random.default_rng(31).multinomial(N - 1, law / law.sum())


def start_counter(ell: int) -> np.ndarray:
    """A carried counter law that no ``Binomial(ℓ, x̃)`` matches: half a
    point mass at ℓ, half uniform on ``{0..ℓ}``."""
    law = np.full(ell + 1, 0.5 / (ell + 1))
    law[ell] += 0.5
    return law


def histograms(per_agent: np.ndarray, num_states: int) -> np.ndarray:
    """``(R, S)`` per-replica state counts of an ``(R, m)`` state-index array."""
    replicas = per_agent.shape[0]
    flat = (np.arange(replicas)[:, None] * num_states + per_agent).ravel()
    return np.bincount(flat, minlength=replicas * num_states).reshape(replicas, num_states)


def value_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``2 × bins`` table of two samples' values, adjacent values pooled."""
    top = int(max(a.max(), b.max())) + 1
    table = np.stack([np.bincount(a, minlength=top), np.bincount(b, minlength=top)])
    bins, pending = [], np.zeros(2, dtype=np.int64)
    for column in table.T:
        pending = pending + column
        if pending.sum() >= MIN_BIN:
            bins.append(pending)
            pending = np.zeros(2, dtype=np.int64)
    if bins:
        bins[-1] = bins[-1] + pending
    return np.array(bins).T


@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("protocol_name", COUNT_MODELS)
def test_count_step_matches_the_per_agent_rule(protocol_name, epsilon):
    protocol = build_protocol({"name": protocol_name}, N)
    sampler = BatchedNoisyCountSampler(epsilon)
    vector = start_vector(protocol)
    num_states = vector.size

    batch = BatchedPopulation.from_population(make_population(N, 1), REPLICAS)
    states = protocol.init_state_batch(REPLICAS, N, np.random.default_rng(0))
    free = batch.nonsource_mask
    index = np.repeat(np.arange(num_states), vector)
    opinions = batch.opinions[:, free]
    sub_states = {key: value[:, free] for key, value in states.items()}
    install_states(protocol, opinions, sub_states, np.broadcast_to(index, opinions.shape))
    batch.opinions[:, free] = opinions
    for key, value in sub_states.items():
        states[key][:, free] = value
    counter = start_counter(protocol.ell) if hasattr(protocol, "ell") else None
    count_states = protocol.randomize_count_state(REPLICAS, counter)
    carried = "prev_count" in states and not counter_in_state(protocol)
    if carried:
        states["prev_count"][:, free] = np.random.default_rng(5).choice(
            protocol.ell + 1, size=(REPLICAS, N - 1), p=counter
        )
    installed = histograms(agent_states(protocol, batch.opinions, states)[:, free], num_states)
    np.testing.assert_array_equal(installed, np.broadcast_to(vector, installed.shape))
    x_eff = sampler.effective_fractions(batch)

    new_opinions = protocol.step_batch(batch, states, sampler, np.random.default_rng(101))
    batched = histograms(agent_states(protocol, new_opinions, states)[:, free], num_states)

    counts = protocol.step_counts(
        np.tile(vector, (REPLICAS, 1)), count_states, x_eff, np.random.default_rng(202)
    )
    assert counts.shape == batched.shape
    np.testing.assert_array_equal(counts.sum(axis=1), N - 1)

    for state in range(num_states):
        table = value_table(batched[:, state], counts[:, state])
        if table.shape[1] > 1:
            pvalue = scipy_stats.chi2_contingency(table).pvalue
            assert pvalue > P_MIN, (state, pvalue)
    pooled = np.stack([batched.sum(axis=0), counts.sum(axis=0)])
    occupied = pooled.sum(axis=0) > 0
    assert scipy_stats.chi2_contingency(pooled[:, occupied]).pvalue > P_MIN

    if carried:
        # the stepped law against the batched side's fresh counters
        fresh = np.bincount(states["prev_count"][:, free].ravel(), minlength=protocol.ell + 1)
        expected = count_states["counter_law"].sum(axis=0) * (N - 1)
        assert pooled_chisquare(fresh, expected) > P_MIN


# ----------------------------------------------------------- jumps

JUMP_MODELS = [
    name for name in COUNT_MODELS if build_protocol({"name": name}, N).count_jumps
]
#: population sizes scanned for still states (one source at opinion 1)
JUMP_SIZES = [40, 12, 4, 2]


def still_law(protocol, n: int, m1: np.ndarray, epsilon: float, replicas: int = 1):
    """The effective fraction, carried state and ``(q₀, q₁)`` of still
    replicas with ``m1`` non-sources at 1: the pair chain's counter law sits
    at its fixed point ``Binomial(ℓ, x̃)`` after one unchanged round."""
    fractions = np.broadcast_to((m1 + 1) / n, (replicas,))
    x_eff = BatchedNoisyCountSampler(epsilon).effective_fractions(
        SimpleNamespace(fraction_ones=lambda: fractions)
    )
    states = protocol.init_count_state(replicas)
    protocol.adoption_law(states, x_eff)
    fixed = {key: value.copy() for key, value in states.items()}
    q0, q1 = protocol.adoption_law(states, x_eff)
    return x_eff, fixed, q0, q1


def still_state(protocol, epsilon: float, holds: bool) -> tuple[int, int]:
    """``(n, m₁)`` of a still state whose ``p_stay`` is in ``[½, 0.99)``
    (``holds``) or ``[0.05, ½)``, nearest 0.7 (resp. 0.25)."""
    best = None
    for n in JUMP_SIZES:
        m1 = np.arange(n)
        _, _, q0, q1 = still_law(protocol, n, m1, epsilon, n)
        p_stay = np.exp(_log_stay(n - 1 - m1, m1, q0, q1))
        lo, hi, target = (0.5, 0.99, 0.7) if holds else (0.05, 0.5, 0.25)
        for ones, p in zip(m1, p_stay):
            if lo <= p < hi and (best is None or abs(p - target) < best[0]):
                best = (abs(p - target), n, int(ones))
    assert best is not None, protocol.name
    return best[1], best[2]


@pytest.mark.parametrize("holds", [True, False], ids=["holds", "moves"])
@pytest.mark.parametrize("epsilon", [0.0, 0.05])
@pytest.mark.parametrize("protocol_name", JUMP_MODELS)
def test_one_round_jump_is_the_plain_step(protocol_name, epsilon, holds):
    protocol = build_protocol({"name": protocol_name}, N)
    n, m1 = still_state(protocol, epsilon, holds)
    counts = np.tile([n - 1 - m1, m1], (REPLICAS, 1))
    x_eff, fixed, q0, q1 = still_law(protocol, n, m1, epsilon, REPLICAS)
    plain = protocol.step_counts(
        counts, {key: value.copy() for key, value in fixed.items()}, x_eff,
        np.random.default_rng(303),
    )[:, 1]
    one_round = np.ones(REPLICAS, dtype=np.int64)
    rng = np.random.default_rng(404)
    if holds:
        new, delta = protocol.jump_counts(
            counts, fixed, x_eff, np.ones(REPLICAS, dtype=bool), lambda: one_round, rng
        )
        np.testing.assert_array_equal(new.sum(axis=1), n - 1)
        jumped = new[:, 1]
    else:
        m0 = counts[:, 0]
        log_stay = _log_stay(m0, counts[:, 1], q0, q1)
        jumped, delta = _hold(m0, counts[:, 1], q0, q1, log_stay, one_round, rng)
    np.testing.assert_array_equal(delta, 1)
    table = value_table(plain, jumped)
    assert table.shape[1] > 1
    assert scipy_stats.chi2_contingency(table).pvalue > P_MIN


# ------------------------------------------------------------------ edges

EDGE_X = [0.0, 1e-300, 1.0 - 1e-16, 1.0]
EDGE_ELLS = [1, 2, 129]
EDGE_FREE = [1, 10**9]


def one_state_rows(num_states: int, n_free: int) -> np.ndarray:
    """One row per state, all ``n_free`` agents in it."""
    return n_free * np.eye(num_states, dtype=np.int64)


@pytest.mark.parametrize("n_free", EDGE_FREE)
@pytest.mark.parametrize("x", EDGE_X)
@pytest.mark.parametrize("ell", EDGE_ELLS)
def test_simple_trend_kernel_at_the_edges(ell, x, n_free):
    protocol = SimpleTrendProtocol(ell)
    width = ell + 1
    counts = one_state_rows(2 * width, n_free)
    new = protocol.step_counts(counts, {}, np.full(len(counts), x), np.random.default_rng(7))
    np.testing.assert_array_equal(new.sum(axis=1), n_free)
    assert (new >= 0).all()
    if x <= 1e-300:
        # every fresh count is 0: rows at prev 0 keep their state, the rest
        # fall to (0, 0)
        expected = np.zeros_like(counts)
        expected[:, 0] = n_free
        expected[width, :] = counts[width]
        np.testing.assert_array_equal(new, expected)
    else:
        # every fresh count is ℓ but for ~ℓ·1e-16 per agent: rows at prev ℓ
        # keep their state, the rest rise to (1, ℓ)
        top = np.full(len(counts), 2 * width - 1)
        top[width - 1] = width - 1
        assert (new[np.arange(len(counts)), top] >= n_free - 1000).all()


@pytest.mark.parametrize("n_free", EDGE_FREE)
@pytest.mark.parametrize("x", EDGE_X)
@pytest.mark.parametrize("ell", EDGE_ELLS)
@pytest.mark.parametrize("band", [0, 1])
def test_pair_chain_kernel_at_the_edges(band, ell, x, n_free):
    protocol = HysteresisFETProtocol(ell, band) if band else FETProtocol(ell)
    counts = one_state_rows(2, n_free)
    states = protocol.randomize_count_state(2, start_counter(ell))
    new = protocol.step_counts(counts, states, np.full(2, x), np.random.default_rng(7))
    np.testing.assert_array_equal(new.sum(axis=1), n_free)
    assert (new >= 0).all()
    law = states["counter_law"]
    assert law.shape == (2, ell + 1)
    np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    if x == 0.0:
        # every fresh count is 0: nobody adopts 1, and the law is δ₀
        np.testing.assert_array_equal(new[0], [n_free, 0])
        np.testing.assert_allclose(law[:, 0], 1.0, rtol=0, atol=1e-12)
    elif x == 1.0:
        # every fresh count is ℓ: nobody adopts 0, and the law is δ_ℓ
        np.testing.assert_array_equal(new[1], [0, n_free])
        np.testing.assert_allclose(law[:, ell], 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_free", EDGE_FREE)
@pytest.mark.parametrize("x", EDGE_X)
@pytest.mark.parametrize(
    "protocol",
    [VoterProtocol(), MajorityProtocol(3), MajoritySamplingProtocol(2)]
    + [FETProtocol(ell) for ell in EDGE_ELLS]
    + [HysteresisFETProtocol(ell, 1) for ell in EDGE_ELLS],
    ids=lambda protocol: protocol.name,
)
def test_jump_at_the_edges(protocol, x, n_free):
    counts = one_state_rows(2, n_free)
    x_eff = np.full(2, x)
    states = protocol.randomize_count_state(2, start_counter(getattr(protocol, "ell", 1)))
    protocol.adoption_law(states, x_eff)
    cap = np.array([1, 7])
    new, delta = protocol.jump_counts(
        counts, states, x_eff, np.ones(2, dtype=bool), lambda: cap, np.random.default_rng(7)
    )
    np.testing.assert_array_equal(new.sum(axis=1), n_free)
    assert (new >= 0).all()
    assert ((delta >= 1) & (delta <= cap)).all()
    q0, q1 = protocol.adoption_law(states, x_eff)
    log_stay = _log_stay(counts[:, 0], counts[:, 1], q0, q1)
    ones, delta = _hold(counts[:, 0], counts[:, 1], q0, q1, log_stay, cap, np.random.default_rng(8))
    assert ((ones >= 0) & (ones <= n_free)).all()
    assert ((delta >= 1) & (delta <= cap)).all()


@pytest.mark.parametrize("x", EDGE_X)
@pytest.mark.parametrize("ell", EDGE_ELLS)
def test_closed_form_tails_match_the_pmf_slices(ell, x):
    xs = np.concatenate([[x], np.linspace(0.0, 1.0, 41)])
    pmf = _binomial_pmf_rows(ell, xs)
    for k in range(1, ell + 1):
        np.testing.assert_allclose(
            binomial_upper_tail(ell, k, xs), pmf[:, k:].sum(axis=1), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("n_free", EDGE_FREE)
@pytest.mark.parametrize("x", EDGE_X)
@pytest.mark.parametrize(
    "protocol",
    [MajoritySamplingProtocol(ell) for ell in EDGE_ELLS] + [MajorityProtocol(k) for k in (1, 3, 129)],
    ids=lambda protocol: protocol.name,
)
def test_majority_kernels_at_the_edges(protocol, x, n_free):
    counts = one_state_rows(2, n_free)
    new = protocol.step_counts(counts, {}, np.full(2, x), np.random.default_rng(7))
    np.testing.assert_array_equal(new.sum(axis=1), n_free)
    assert (new >= 0).all()
    if x == 0.0:
        np.testing.assert_array_equal(new[:, 1], 0)
    elif x == 1.0:
        np.testing.assert_array_equal(new[:, 0], 0)


@pytest.mark.parametrize("n_free", EDGE_FREE)
@pytest.mark.parametrize("x", EDGE_X)
def test_undecided_state_kernel_at_the_edges(x, n_free):
    # states: decided 0, undecided showing 0, decided 1, undecided showing 1
    counts = one_state_rows(4, n_free)
    new = UndecidedStateProtocol().step_counts(counts, {}, np.full(4, x), np.random.default_rng(7))
    np.testing.assert_array_equal(new.sum(axis=1), n_free)
    assert (new >= 0).all()
    if x == 0.0:
        # everyone sees a 0: decided 1 doubts, every other state decides 0
        np.testing.assert_array_equal(new, n_free * np.eye(4, dtype=np.int64)[[0, 0, 3, 0]])
    elif x == 1.0:
        # everyone sees a 1: decided 0 doubts, every other state decides 1
        np.testing.assert_array_equal(new, n_free * np.eye(4, dtype=np.int64)[[1, 2, 2, 2]])
