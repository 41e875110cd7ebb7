"""Routing over the backbone topology.

The paper assumes "an appropriate route found by a routing algorithm"
(Section 4).  We provide Dijkstra shortest paths under pluggable metrics and
a QoS-constrained variant that prunes links lacking the requested bandwidth
floor — the precondition for the admission test's forward pass.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, List, Optional

from .link import Link
from .topology import Topology

__all__ = [
    "NoRouteError",
    "hop_metric",
    "delay_metric",
    "shortest_path",
    "qos_route",
]


class NoRouteError(Exception):
    """No path satisfying the constraints exists."""


def hop_metric(link: Link) -> float:
    """Metric: every link costs 1 (minimum-hop routing)."""
    return 1.0


def delay_metric(link: Link) -> float:
    """Metric: propagation delay (minimum-latency routing)."""
    return link.prop_delay


def shortest_path(
    topo: Topology,
    src: Hashable,
    dst: Hashable,
    metric: Callable[[Link], float] = hop_metric,
    usable: Optional[Callable[[Link], bool]] = None,
) -> List[Hashable]:
    """Dijkstra shortest path from ``src`` to ``dst`` as a node-id list.

    ``usable`` optionally prunes links (e.g. insufficient free bandwidth).
    Raises :class:`NoRouteError` when ``dst`` is unreachable.
    """
    if not topo.has_node(src):
        raise NoRouteError(f"unknown source {src!r}")
    if not topo.has_node(dst):
        raise NoRouteError(f"unknown destination {dst!r}")

    dist: Dict[Hashable, float] = {src: 0.0}
    prev: Dict[Hashable, Hashable] = {}
    visited = set()
    heap = [(0.0, 0, src)]
    counter = 1  # tie-breaker keeps heap comparisons away from node ids

    while heap:
        d, _, node = heapq.heappop(heap)
        if node in visited:
            continue
        if node == dst:
            break
        visited.add(node)
        for nxt in topo.successors(node):
            if nxt in visited:
                continue
            link = topo.link(node, nxt)
            if usable is not None and not usable(link):
                continue
            cost = metric(link)
            if cost < 0:
                raise ValueError(f"negative metric {cost} on {link!r}")
            alt = d + cost
            if alt < dist.get(nxt, float("inf")):
                dist[nxt] = alt
                prev[nxt] = node
                heapq.heappush(heap, (alt, counter, nxt))
                counter += 1

    if dst not in dist:
        raise NoRouteError(f"no route from {src!r} to {dst!r}")

    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def qos_route(
    topo: Topology, src: Hashable, dst: Hashable, b_min: float
) -> List[Hashable]:
    """Minimum-hop route whose every link can still fit a ``b_min`` floor.

    A link is usable if ``b_min <= C_l - b_resv,l - sum(b_min,i)`` — exactly
    the bandwidth row of the paper's Table 2 forward-pass test.
    """
    return shortest_path(
        topo, src, dst, hop_metric, usable=lambda link: link.excess_available >= b_min
    )
