"""Directed network links with capacity, delay, and error characteristics.

A link is the unit at which the paper's admission tests and conflict
resolution operate: each link ``l`` has capacity ``C_l``, an advance-reserved
share ``b_resv,l``, and carries a set of ongoing connections with minimum
bandwidths ``b_min,i`` plus excess shares assigned by the adaptation
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

__all__ = ["Link", "LinkAllocation"]


@dataclass
class LinkAllocation:
    """Bandwidth state of one connection on one link.

    ``minimum`` is the guaranteed floor ``b_min``; ``excess`` is the share
    beyond the floor granted by conflict resolution / adaptation.  The
    connection's actual rate on the link is ``minimum + excess``.
    """

    minimum: float
    excess: float = 0.0

    @property
    def total(self) -> float:
        return self.minimum + self.excess


class Link:
    """A directed link of the backbone (or the wireless hop of a cell).

    Parameters
    ----------
    src, dst:
        Node identifiers for the link endpoints.
    capacity:
        Link speed ``C_l`` in bandwidth units (e.g. kbps).
    prop_delay:
        Propagation delay in simulation time units (used by signaling).
    error_prob:
        Per-packet loss probability ``p_e,l`` used by the admission test's
        loss row; non-zero mainly on wireless hops.
    """

    def __init__(
        self,
        src: Hashable,
        dst: Hashable,
        capacity: float,
        prop_delay: float = 0.0,
        error_prob: float = 0.0,
        buffer_capacity: float = float("inf"),
    ):
        if not (capacity > 0):
            raise ValueError(f"link capacity must be positive, got {capacity}")
        if not 0.0 <= error_prob < 1.0:
            raise ValueError(f"error_prob must be in [0, 1), got {error_prob}")
        if not (prop_delay >= 0):
            raise ValueError(f"prop_delay must be non-negative, got {prop_delay}")
        if not (buffer_capacity > 0):
            raise ValueError(
                f"buffer_capacity must be positive, got {buffer_capacity}"
            )
        self.src = src
        self.dst = dst
        self.capacity = float(capacity)
        self.prop_delay = float(prop_delay)
        self.error_prob = float(error_prob)
        #: Buffer pool at the link's transmitting switch.
        self.buffer_capacity = float(buffer_capacity)
        #: Advance-reserved bandwidth ``b_resv,l`` (handoff reservations +
        #: the dynamically adjustable pool ``B_dyn``).  Plain links carry it
        #: as a float; ledger-backed wireless links read it lazily from
        #: their :class:`~repro.core.reservation.CellReservations` (see
        #: :meth:`bind_reserved_source`).
        self._reserved: float = 0.0
        self._reserved_source: Optional[Callable[[], float]] = None
        #: Per-connection bandwidth allocations keyed by connection id.
        self.allocations: Dict[Hashable, LinkAllocation] = {}
        #: Per-connection buffer-space reservations keyed by connection id.
        self.buffers: Dict[Hashable, float] = {}

    # -- identity -----------------------------------------------------------

    @property
    def key(self) -> Tuple[Hashable, Hashable]:
        """(src, dst) pair identifying the link in a topology."""
        return (self.src, self.dst)

    # -- aggregate bandwidth state -------------------------------------------

    @property
    def reserved(self) -> float:
        """Advance-reserved bandwidth ``b_resv,l``.

        Reads pull from the bound reservation ledger when one is attached
        (the ledger's totals are cached, so this stays O(1) between
        mutations); plain links return the stored float.
        """
        source = self._reserved_source
        if source is None:
            return self._reserved
        return source()

    @reserved.setter
    def reserved(self, value: float) -> None:
        self._reserved_source = None
        self._reserved = value

    def bind_reserved_source(self, source: Callable[[], float]) -> None:
        """Attach a lazy provider for ``b_resv,l``.

        A :class:`~repro.core.reservation.CellReservations` ledger binds
        itself here so reservation mutations never eagerly re-sum the
        ledger; assigning ``link.reserved`` directly detaches the provider
        again (the link reverts to plain-float bookkeeping).
        """
        self._reserved_source = source

    @property
    def min_committed(self) -> float:
        """Sum of guaranteed minimums of ongoing connections."""
        return sum(a.minimum for a in self.allocations.values())

    @property
    def allocated(self) -> float:
        """Total bandwidth handed out (minimums + excess shares)."""
        return sum(a.total for a in self.allocations.values())

    @property
    def excess_available(self) -> float:
        """The paper's ``b'_av,l = C_l - b_resv,l - sum(b_min,i)``.

        Note this is capacity not yet pinned by floors or advance
        reservations; parts of it may currently be handed out as excess.
        """
        return self.capacity - self.reserved - self.min_committed

    @property
    def unassigned(self) -> float:
        """Capacity neither reserved, guaranteed, nor granted as excess."""
        return self.capacity - self.reserved - self.allocated

    @property
    def utilization(self) -> float:
        """Fraction of capacity committed (reservations + allocations)."""
        return (self.reserved + self.allocated) / self.capacity

    # -- connection bookkeeping ------------------------------------------------

    def admit(self, conn_id: Hashable, minimum: float, excess: float = 0.0) -> None:
        """Register a connection with guaranteed floor ``minimum``."""
        if conn_id in self.allocations:
            raise KeyError(f"connection {conn_id!r} already on link {self.key}")
        if not (minimum >= 0 and excess >= 0):
            raise ValueError("bandwidth shares must be non-negative")
        self.allocations[conn_id] = LinkAllocation(minimum=minimum, excess=excess)

    def release(self, conn_id: Hashable) -> LinkAllocation:
        """Remove a connection (and its buffer), returning its allocation."""
        try:
            allocation = self.allocations.pop(conn_id)
        except KeyError:
            raise KeyError(f"connection {conn_id!r} not on link {self.key}") from None
        self.buffers.pop(conn_id, None)
        return allocation

    def set_excess(self, conn_id: Hashable, excess: float) -> None:
        """Update a connection's excess share (adaptation outcome)."""
        if not (excess >= -1e-12):
            raise ValueError(f"excess must be non-negative, got {excess}")
        self.allocations[conn_id].excess = max(0.0, excess)

    def rate_of(self, conn_id: Hashable) -> float:
        """Current total rate of ``conn_id`` on this link."""
        return self.allocations[conn_id].total

    # -- buffer space ----------------------------------------------------------

    @property
    def buffer_committed(self) -> float:
        """Total buffer space reserved for connections."""
        return sum(self.buffers.values())

    @property
    def buffer_available(self) -> float:
        return self.buffer_capacity - self.buffer_committed

    def reserve_buffer(self, conn_id: Hashable, amount: float) -> None:
        """Set (or replace) the buffer reservation for a connection."""
        if not (amount >= 0):
            raise ValueError(f"buffer amount must be non-negative, got {amount}")
        self.buffers[conn_id] = amount

    def release_buffer(self, conn_id: Hashable) -> float:
        """Drop a connection's buffer reservation, returning it."""
        return self.buffers.pop(conn_id, 0.0)

    # -- advance reservation -------------------------------------------------

    def reserve(self, amount: float) -> None:
        """Increase the advance-reserved share ``b_resv,l``."""
        if not (amount >= 0):
            raise ValueError(f"reserve amount must be non-negative, got {amount}")
        self.reserved += amount

    def unreserve(self, amount: float) -> None:
        """Decrease the advance-reserved share (clamped at zero)."""
        if not (amount >= 0):
            raise ValueError(f"unreserve amount must be non-negative, got {amount}")
        self.reserved = max(0.0, self.reserved - amount)

    def __repr__(self):
        return (
            f"Link({self.src!r}->{self.dst!r}, C={self.capacity}, "
            f"resv={self.reserved:.1f}, conns={len(self.allocations)})"
        )
