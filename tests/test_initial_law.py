"""One initial law per initializer: ``apply_batch`` and ``apply_counts`` agree.

Every exchangeable initializer declares its start once — a non-source
opinion count and a counter law — and the base class installs it in both
engines. This conformance matrix is generated from the component registry:
for every count-capable protocol and every initializer except frozen
unanimity (which needs the majority population the counts engine does not
model), it installs the start per agent on a batch of one-source replicas,
aggregates each replica's non-sources into the protocol's count states with
a map written independently of the library (``reference.count_states``),
and compares with the count-level install on the same shape:

* the per-replica non-source one-counts must be *identical* — both engines
  read the same opinion-count draw from the same seed;
* the pooled state histograms must pass a χ² homogeneity test. Given the
  equal opinion margins, each engine's pooled histogram is a multinomial
  split of every opinion class over the same state law, so the test is
  exact in its assumptions;
* where the count model carries the counter as a per-replica law (FET,
  hysteresis-FET), every replica's installed law must equal the declared
  ``counter_pmf`` (uniform for ``None``) to 1e-15, and the per-agent
  counters, pooled, must fit it (χ² goodness of fit, sparse bins pooled).

This is the guard that the per-agent rule (a ``prev_count`` state is drawn
from ``counter_pmf``, every other internal state stays adversarial) and the
protocol's count model describe the same law.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.core.batch import BatchedPopulation
from repro.core.counts import make_count_population
from repro.core.population import make_population
from repro.sweep.registry import (
    build_initializer,
    build_protocol,
    initializer_names,
    protocol_names,
)
from reference.count_states import agent_states, counter_in_state, pooled_chisquare

N = 40
REPLICAS = 2000
SEED = 2718

#: required parameters of registry initializers that have no defaults
INIT_PARAMS = {
    "fraction": {"x": 0.3},
    "two-round": {"x_prev": 0.8, "x_now": 0.35},
}
COUNT_MODELS = [
    name for name in protocol_names() if build_protocol({"name": name}, N).counts_supported
]
#: frozen-unanimity only exists on the majority population
INITIALIZERS = [name for name in initializer_names() if name != "frozen-unanimity"]


@pytest.mark.parametrize("init_name", INITIALIZERS)
@pytest.mark.parametrize("protocol_name", COUNT_MODELS)
def test_both_engines_install_one_law(protocol_name, init_name):
    protocol = build_protocol({"name": protocol_name}, N)
    initializer = build_initializer({"name": init_name, **INIT_PARAMS.get(init_name, {})})
    num_states = protocol.count_display().size

    batch = BatchedPopulation.from_population(make_population(N, 1), REPLICAS)
    states = protocol.init_state_batch(REPLICAS, N, np.random.default_rng(0))
    initializer.apply_batch(batch, protocol, states, np.random.default_rng(SEED))
    free = batch.nonsource_mask
    per_agent = agent_states(protocol, batch.opinions, states)[:, free]
    batch_ones = batch.opinions[:, free].sum(axis=1)
    batch_hist = np.bincount(per_agent.ravel(), minlength=num_states)

    population = make_count_population(protocol, REPLICAS, N)
    count_states = protocol.init_count_state(REPLICAS)
    initializer.apply_counts(population, protocol, count_states, np.random.default_rng(SEED))
    count_ones = population.count_ones() - population.sources_ones
    count_hist = population.counts.sum(axis=0)

    np.testing.assert_array_equal(batch_ones, count_ones)
    assert batch_hist.sum() == count_hist.sum() == REPLICAS * (N - 1)
    occupied = (batch_hist + count_hist) > 0
    if occupied.sum() == 1:
        np.testing.assert_array_equal(batch_hist, count_hist)
    else:
        table = np.stack([batch_hist[occupied], count_hist[occupied]])
        assert scipy_stats.chi2_contingency(table).pvalue > 1e-3

    if "prev_count" not in states or counter_in_state(protocol):
        assert count_states == {}
        return
    width = protocol.ell + 1
    declared = initializer.counter_pmf(protocol.ell)
    if declared is None:
        declared = np.full(width, 1.0 / width)
    law = count_states["counter_law"]
    assert law.shape == (REPLICAS, width)
    np.testing.assert_allclose(law, np.broadcast_to(declared, law.shape), rtol=0, atol=1e-15)
    counters = np.bincount(states["prev_count"][:, free].ravel(), minlength=width)
    pvalue = pooled_chisquare(counters, declared * REPLICAS * (N - 1))
    assert pvalue is None or pvalue > 1e-3
