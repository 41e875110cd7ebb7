"""Workload substrate: flow envelopes, connections, workload types, sources."""

from .arrivals import TypeSpec
from .connection import Connection, ConnectionState
from .flowspec import FlowSpec
from .sources import AdaptiveVideoSource, cbr_packets

__all__ = [
    "TypeSpec",
    "Connection",
    "ConnectionState",
    "FlowSpec",
    "AdaptiveVideoSource",
    "cbr_packets",
]
