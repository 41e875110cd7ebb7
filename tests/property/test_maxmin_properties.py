"""Property tests for the max-min allocator and the advertised-rate rule.

Randomized instances check the paper's Section 5.2 contract directly:

* feasibility — every connection's allocation stays inside its adaptive
  span (``[b_min, b_max]`` in absolute terms, ``[0, demand]`` in the
  excess terms the allocator works in), and no link is oversubscribed;
* optimality — the allocation satisfies the max-min certificate (every
  unsatisfied connection has a saturated bottleneck link on which nobody
  receives more), i.e. no allocation can be raised without lowering an
  equal-or-smaller one;
* replay — on one link, ``fill_single_link`` (what every cell rebalance
  runs) gives the reference's shares and ``maxmin.round`` records exactly.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MaxMinProblem, maxmin_allocation
from repro.core.adaptation import compute_advertised_rate
from repro.core.maxmin import _EPS, fill_single_link, is_maxmin_fair
from repro.obs import RingBufferSink, Tracer, use_tracer

_TOL = 1e-6


@st.composite
def maxmin_problems(draw):
    """A random feasible instance: 1-5 links, 1-10 connections with
    non-empty paths and bounded or unbounded demands."""
    n_links = draw(st.integers(1, 5))
    link_ids = [f"link-{i}" for i in range(n_links)]
    problem = MaxMinProblem()
    for link_id in link_ids:
        problem.add_link(link_id, draw(st.floats(0.0, 100.0)))
    for j in range(draw(st.integers(1, 10))):
        path = draw(
            st.lists(
                st.sampled_from(link_ids),
                min_size=1,
                max_size=n_links,
                unique=True,
            )
        )
        demand = draw(
            st.one_of(st.floats(0.0, 50.0), st.just(float("inf")))
        )
        problem.add_connection(f"conn-{j}", path, demand)
    return problem


@settings(max_examples=100, deadline=None)
@given(maxmin_problems())
def test_allocation_stays_within_demand_span(problem):
    allocation = maxmin_allocation(problem)
    assert set(allocation) == set(problem.demands)
    for conn, rate in allocation.items():
        assert rate >= -_TOL
        assert rate <= problem.demands[conn] + _TOL


@settings(max_examples=100, deadline=None)
@given(maxmin_problems())
def test_per_link_sums_respect_capacity(problem):
    allocation = maxmin_allocation(problem)
    for link_id, capacity in problem.capacities.items():
        used = sum(
            allocation[conn] for conn in problem.connections_on(link_id)
        )
        assert used <= capacity + _TOL


@settings(max_examples=100, deadline=None)
@given(maxmin_problems())
def test_allocation_satisfies_maxmin_certificate(problem):
    allocation = maxmin_allocation(problem)
    assert is_maxmin_fair(problem, allocation, tol=_TOL)


@st.composite
def bounded_connection_sets(draw):
    """Connections described by absolute ``[b_min, b_max]`` QoS bounds
    sharing one cell link, as in the paper's excess-sharing setting."""
    bounds = draw(
        st.lists(
            st.tuples(st.floats(0.0, 32.0), st.floats(0.0, 32.0)),
            min_size=1,
            max_size=8,
        )
    )
    bounds = [(min(a, b), max(a, b)) for a, b in bounds]
    capacity = draw(st.floats(0.0, 200.0))
    return bounds, capacity


@settings(max_examples=100, deadline=None)
@given(bounded_connection_sets())
def test_absolute_rates_stay_within_qos_bounds(case):
    """b_min + excess allocation never leaves [b_min, b_max]."""
    bounds, capacity = case
    floors = sum(b_min for b_min, _ in bounds)
    problem = MaxMinProblem()
    problem.add_link("cell", max(0.0, capacity - floors))
    for i, (b_min, b_max) in enumerate(bounds):
        problem.add_connection(f"conn-{i}", ["cell"], b_max - b_min)
    allocation = maxmin_allocation(problem)
    for i, (b_min, b_max) in enumerate(bounds):
        absolute = b_min + allocation[f"conn-{i}"]
        assert absolute >= b_min - _TOL
        assert absolute <= b_max + _TOL


@st.composite
def single_link_problems(draw):
    """0-12 connections on one link.  Ids mix strings and ints, so ``repr``
    order differs from input order; demands and capacities mix the freezing
    thresholds around ``_EPS`` with ordinary values."""
    ids = draw(
        st.lists(
            st.one_of(st.text(max_size=3), st.integers(-20, 20)),
            max_size=12,
            unique=True,
        )
    )
    demand = st.one_of(
        st.sampled_from([0.0, 1e-12, _EPS, 2 * _EPS, float("inf")]),
        st.floats(0.0, 1e4),
    )
    demands = [draw(demand) for _ in ids]
    capacity = draw(st.one_of(st.sampled_from([0.0, 1e-10]), st.floats(0.0, 1e5)))
    return capacity, ids, demands


def _traced(solve, *args):
    tracer = Tracer(RingBufferSink(), kinds={"maxmin.round"})
    with use_tracer(tracer):
        result = solve(*args)
    return result, tracer.sink.records()


@settings(max_examples=300, deadline=None)
@given(single_link_problems())
def test_single_link_fill_replays_the_reference(case):
    capacity, ids, demands = case
    problem = MaxMinProblem()
    problem.add_link("cell", capacity)
    for conn_id, demand in zip(ids, demands):
        problem.add_connection(conn_id, ["cell"], demand)
    expected, expected_records = _traced(maxmin_allocation, problem)
    shares, records = _traced(fill_single_link, capacity, ids, demands)
    assert shares == [expected[conn_id] for conn_id in ids]
    assert records == expected_records


# -- advertised-rate rule (Section 5.3.1) -----------------------------------

_recorded_rates = st.dictionaries(
    st.sampled_from([f"conn-{i}" for i in range(8)]),
    st.floats(0.0, 100.0),
    max_size=8,
)


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.floats(0.0, 200.0),
    recorded=_recorded_rates,
    mu_prev=st.floats(0.0, 200.0),
)
def test_advertised_rate_bounded_by_capacity(capacity, recorded, mu_prev):
    mu = compute_advertised_rate(capacity, recorded, mu_prev)
    assert 0.0 <= mu <= capacity + _TOL


@settings(max_examples=100, deadline=None)
@given(capacity=st.floats(0.0, 200.0), mu_prev=st.floats(0.0, 200.0))
def test_advertised_rate_of_empty_link_is_full_capacity(capacity, mu_prev):
    assert compute_advertised_rate(capacity, {}, mu_prev) == capacity


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.floats(0.0, 200.0),
    recorded=_recorded_rates,
    mu_prev=st.floats(0.0, 200.0),
)
def test_advertised_rate_is_a_fixed_point(capacity, recorded, mu_prev):
    """Feeding the converged rate back as mu_prev reproduces it: the
    restricted-set marking has genuinely reached its fixed point rather
    than depending on the caller's cached previous value."""
    mu = compute_advertised_rate(capacity, recorded, mu_prev)
    again = compute_advertised_rate(capacity, recorded, mu)
    assert again == pytest.approx(mu, rel=1e-9, abs=1e-9)
