"""Wired backbone substrate: topology, links, routing, scheduling, signaling.

The paper's system model (Section 3.1): base stations attached to a wired
backbone, each serving a wireless cell.  This subpackage provides that
substrate — graphs of capacity-annotated links, shortest/QoS routing, WFQ
and RCSP per-hop bounds, control-packet signaling, and neighbor multicast.
"""

from .link import Link, LinkAllocation
from .multicast import MulticastTree, build_neighbor_multicast
from .node import Node, NodeKind
from .routing import (
    NoRouteError,
    delay_metric,
    hop_metric,
    qos_route,
    shortest_path,
)
from .scheduling import (
    Discipline,
    cumulative_jitter,
    e2e_delay_lower_bound,
    path_loss_probability,
    per_hop_delay,
    rcsp_buffer,
    relaxed_per_hop_delay,
    wfq_buffer,
)
from .signaling import ControlPacket, PacketKind, SignalingNetwork
from .topology import Topology, campus_backbone, line_topology, star_topology

__all__ = [
    "Link",
    "LinkAllocation",
    "MulticastTree",
    "build_neighbor_multicast",
    "Node",
    "NodeKind",
    "NoRouteError",
    "delay_metric",
    "hop_metric",
    "qos_route",
    "shortest_path",
    "Discipline",
    "cumulative_jitter",
    "e2e_delay_lower_bound",
    "path_loss_probability",
    "per_hop_delay",
    "rcsp_buffer",
    "relaxed_per_hop_delay",
    "wfq_buffer",
    "ControlPacket",
    "PacketKind",
    "SignalingNetwork",
    "Topology",
    "campus_backbone",
    "line_topology",
    "star_topology",
]
