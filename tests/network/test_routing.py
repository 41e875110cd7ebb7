"""Tests for routing: Dijkstra and QoS pruning."""

import pytest

from repro.network import (
    NoRouteError,
    Topology,
    delay_metric,
    line_topology,
    qos_route,
    shortest_path,
)


def grid_topology():
    """Two parallel routes a->d: short-fat and long-thin."""
    topo = Topology()
    topo.add_link("a", "b", capacity=100.0, prop_delay=0.010)
    topo.add_link("b", "d", capacity=100.0, prop_delay=0.010)
    topo.add_link("a", "x", capacity=10.0, prop_delay=0.001)
    topo.add_link("x", "y", capacity=10.0, prop_delay=0.001)
    topo.add_link("y", "d", capacity=10.0, prop_delay=0.001)
    return topo


def test_shortest_path_by_hops():
    topo = grid_topology()
    assert shortest_path(topo, "a", "d") == ["a", "b", "d"]


def test_shortest_path_by_delay_prefers_long_thin():
    topo = grid_topology()
    assert shortest_path(topo, "a", "d", metric=delay_metric) == [
        "a", "x", "y", "d",
    ]


def test_trivial_path():
    topo = line_topology(3)
    assert shortest_path(topo, "s1", "s1") == ["s1"]


def test_no_route_raises():
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(NoRouteError):
        shortest_path(topo, "a", "b")


def test_unknown_endpoints_raise():
    topo = line_topology(3)
    with pytest.raises(NoRouteError):
        shortest_path(topo, "ghost", "s1")
    with pytest.raises(NoRouteError):
        shortest_path(topo, "s0", "ghost")


def test_usable_filter_prunes_links():
    topo = grid_topology()
    path = shortest_path(topo, "a", "d", usable=lambda link: link.capacity >= 50.0)
    assert path == ["a", "b", "d"]
    with pytest.raises(NoRouteError):
        shortest_path(topo, "a", "d", usable=lambda link: False)


def test_qos_route_respects_reservations():
    topo = grid_topology()
    # Choke the fat route at the floor level.
    topo.link("a", "b").reserve(95.0)
    assert qos_route(topo, "a", "d", b_min=8.0) == ["a", "x", "y", "d"]
    with pytest.raises(NoRouteError):
        qos_route(topo, "a", "d", b_min=50.0)


def test_negative_metric_rejected():
    topo = line_topology(3)
    with pytest.raises(ValueError):
        shortest_path(topo, "s0", "s2", metric=lambda link: -1.0)


def test_shortest_path_agrees_with_networkx():
    """Cross-check the Dijkstra implementation on a richer graph."""
    import networkx as nx

    topo = Topology()
    edges = [
        ("a", "b", 0.003), ("b", "c", 0.001), ("a", "c", 0.009),
        ("c", "d", 0.002), ("b", "d", 0.008), ("a", "d", 0.02),
    ]
    for u, v, d in edges:
        topo.add_duplex_link(u, v, capacity=10.0, prop_delay=d)
    ours = shortest_path(topo, "a", "d", metric=delay_metric)
    graph = topo.to_networkx()
    reference = nx.shortest_path(graph, "a", "d", weight="prop_delay")
    ours_cost = sum(
        topo.link(u, v).prop_delay for u, v in zip(ours, ours[1:])
    )
    ref_cost = sum(
        topo.link(u, v).prop_delay for u, v in zip(reference, reference[1:])
    )
    assert ours_cost == pytest.approx(ref_cost)
