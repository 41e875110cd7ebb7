"""Tests for the centralized max-min reference allocator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    MaxMinProblem,
    connection_bottlenecks,
    is_maxmin_fair,
    maxmin_allocation,
    network_bottleneck_links,
)


def single_link_problem(capacity, demands):
    problem = MaxMinProblem()
    problem.add_link("l", capacity)
    for i, demand in enumerate(demands):
        problem.add_connection(f"c{i}", ["l"], demand)
    return problem


def test_equal_split_without_demands():
    problem = single_link_problem(90.0, [float("inf")] * 3)
    allocation = maxmin_allocation(problem)
    assert all(v == pytest.approx(30.0) for v in allocation.values())


def test_small_demand_frees_capacity_for_others():
    problem = single_link_problem(90.0, [10.0, float("inf"), float("inf")])
    allocation = maxmin_allocation(problem)
    assert allocation["c0"] == pytest.approx(10.0)
    assert allocation["c1"] == pytest.approx(40.0)
    assert allocation["c2"] == pytest.approx(40.0)


def test_all_satisfied_leaves_slack():
    problem = single_link_problem(100.0, [10.0, 20.0])
    allocation = maxmin_allocation(problem)
    assert allocation == {"c0": pytest.approx(10.0), "c1": pytest.approx(20.0)}


def test_zero_capacity_gives_zero():
    problem = single_link_problem(0.0, [float("inf")] * 2)
    allocation = maxmin_allocation(problem)
    assert all(v == 0.0 for v in allocation.values())


def test_classic_line_network():
    """Three-link line: a long flow + three one-hop flows (textbook case)."""
    problem = MaxMinProblem()
    for link_id in ("l0", "l1", "l2"):
        problem.add_link(link_id, 30.0)
    problem.add_connection("long", ["l0", "l1", "l2"])
    problem.add_connection("h0", ["l0"])
    problem.add_connection("h1", ["l1"])
    problem.add_connection("h2", ["l2"])
    allocation = maxmin_allocation(problem)
    assert allocation["long"] == pytest.approx(15.0)
    for h in ("h0", "h1", "h2"):
        assert allocation[h] == pytest.approx(15.0)


def test_heterogeneous_bottlenecks():
    problem = MaxMinProblem()
    problem.add_link("thin", 10.0)
    problem.add_link("fat", 100.0)
    problem.add_connection("both", ["thin", "fat"])
    problem.add_connection("fat_only", ["fat"])
    allocation = maxmin_allocation(problem)
    assert allocation["both"] == pytest.approx(10.0)
    assert allocation["fat_only"] == pytest.approx(90.0)


def test_problem_validation():
    problem = MaxMinProblem()
    with pytest.raises(ValueError):
        problem.add_link("l", -1.0)
    problem.add_link("l", 10.0)
    with pytest.raises(ValueError):
        problem.add_connection("c", ["l"], demand=-1.0)
    with pytest.raises(KeyError):
        problem.add_connection("c", ["ghost"])


@pytest.mark.parametrize(
    "add",
    [
        lambda problem: problem.add_link("m", float("nan")),
        lambda problem: problem.add_connection("c", ["l"], demand=float("nan")),
    ],
    ids=["add_link", "add_connection"],
)
def test_problem_rejects_nan(add):
    problem = MaxMinProblem()
    problem.add_link("l", 10.0)
    with pytest.raises(ValueError):
        add(problem)
    assert problem.capacities == {"l": 10.0}
    assert problem.demands == {}


def test_certificate_accepts_optimal_rejects_suboptimal():
    problem = single_link_problem(90.0, [float("inf")] * 3)
    optimal = maxmin_allocation(problem)
    assert is_maxmin_fair(problem, optimal)
    assert not is_maxmin_fair(problem, {"c0": 10.0, "c1": 10.0, "c2": 10.0})
    assert not is_maxmin_fair(problem, {"c0": 50.0, "c1": 30.0, "c2": 30.0})


def test_connection_bottlenecks_identified():
    problem = MaxMinProblem()
    problem.add_link("thin", 10.0)
    problem.add_link("fat", 100.0)
    problem.add_connection("both", ["thin", "fat"])
    problem.add_connection("fat_only", ["fat"])
    allocation = maxmin_allocation(problem)
    bottlenecks = connection_bottlenecks(problem, allocation)
    assert bottlenecks["both"] == "thin"
    assert bottlenecks["fat_only"] == "fat"


def test_network_bottlenecks_are_saturated_equalizers():
    """Section 5.2: a network bottleneck is a bottleneck for ALL of its
    connections.  'fat' is saturated but not a bottleneck for 'both' (which
    is pinned at 'thin'), so only 'thin' qualifies."""
    problem = MaxMinProblem()
    problem.add_link("thin", 10.0)
    problem.add_link("fat", 100.0)
    problem.add_connection("both", ["thin", "fat"])
    problem.add_connection("fat_only", ["fat"])
    allocation = maxmin_allocation(problem)
    assert set(network_bottleneck_links(problem, allocation)) == {"thin"}

    # With symmetric single-hop flows, the shared link is a network
    # bottleneck outright.
    single = MaxMinProblem()
    single.add_link("l", 30.0)
    single.add_connection("a", ["l"])
    single.add_connection("b", ["l"])
    allocation = maxmin_allocation(single)
    assert network_bottleneck_links(single, allocation) == ["l"]


conn_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from(["l0", "l1", "l2", "l3"]), min_size=1,
                 max_size=4, unique=True),
        st.one_of(st.just(float("inf")),
                  st.floats(min_value=0.0, max_value=50.0)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=4, max_size=4),
    conn_strategy,
)
def test_property_allocation_is_maxmin_fair(capacities, conns):
    """Progressive filling always satisfies the max-min certificate."""
    problem = MaxMinProblem()
    for i, capacity in enumerate(capacities):
        problem.add_link(f"l{i}", capacity)
    for i, (path, demand) in enumerate(conns):
        problem.add_connection(f"c{i}", path, demand)
    allocation = maxmin_allocation(problem)
    assert is_maxmin_fair(problem, allocation, tol=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=1000.0),
    st.integers(min_value=1, max_value=10),
)
def test_property_single_link_full_utilization(capacity, n):
    """With unbounded demands a link is used exactly to capacity."""
    problem = single_link_problem(capacity, [float("inf")] * n)
    allocation = maxmin_allocation(problem)
    assert sum(allocation.values()) == pytest.approx(capacity)
