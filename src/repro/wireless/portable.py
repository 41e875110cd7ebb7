"""Portables (mobile hosts) and their connection bundles."""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple, Union

from ..traffic.connection import Connection, ConnectionState

__all__ = ["Portable"]


class Portable:
    """A mobile user's device.

    Following the paper's footnote, "portable" stands for the user of the
    portable: mobility and connection ownership live here.

    ``connections`` is the shared empty tuple until the first :meth:`attach`
    allocates the list.  Most portables never connect, and until then the
    tuple answers truth, membership and iteration exactly as an empty list
    would.
    """

    __slots__ = (
        "portable_id",
        "home_office",
        "current_cell",
        "previous_cell",
        "entered_at",
        "connections",
        "handoff_count",
    )

    def __init__(self, portable_id: Hashable, home_office: Optional[Hashable] = None):
        self.portable_id = portable_id
        #: The office cell this user regularly occupies (None for visitors).
        self.home_office = home_office
        self.current_cell: Optional[Hashable] = None
        self.previous_cell: Optional[Hashable] = None
        self.entered_at: float = 0.0
        self.connections: Union[List[Connection], Tuple[()]] = ()
        self.handoff_count = 0

    # -- mobility ---------------------------------------------------------------

    def move_to(self, cell_id: Hashable, now: float) -> None:
        """Record a cell change (the handoff engine does the heavy lifting)."""
        if cell_id == self.current_cell:
            return
        self.previous_cell = self.current_cell
        self.current_cell = cell_id
        self.entered_at = now
        if self.previous_cell is not None:
            self.handoff_count += 1

    def residence_time(self, now: float) -> float:
        return now - self.entered_at

    # -- connections -----------------------------------------------------------

    def attach(self, conn: Connection) -> None:
        conn.portable_id = self.portable_id
        connections = self.connections
        if isinstance(connections, tuple):
            connections = self.connections = []
        connections.append(conn)

    def detach(self, conn: Connection) -> None:
        connections = self.connections
        if isinstance(connections, tuple):
            raise ValueError(f"{conn!r} is not attached to {self!r}")
        connections.remove(conn)

    @property
    def active_connections(self) -> List[Connection]:
        return [
            c for c in self.connections if c.state is ConnectionState.ACTIVE
        ]

    @property
    def demand_floor(self) -> float:
        """Sum of guaranteed minimums across active connections."""
        return sum(
            c.b_min for c in self.active_connections if c.qos.bounds is not None
        )

    @property
    def max_allocated_rate(self) -> float:
        """Largest current rate among active connections (pool sizing)."""
        rates = [c.rate for c in self.active_connections]
        return max(rates) if rates else 0.0

    def __repr__(self):
        return f"Portable({self.portable_id!r} @ {self.current_cell!r})"
