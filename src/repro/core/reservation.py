"""Cell-level reservation ledger: advance reservations and the B_dyn pool.

Section 3.3's reservation model: a cell manages its wireless resources with
(a) reservations for ongoing / predicted-handoff connections and (b) a
dynamically adjustable pool for unforeseen events (5 %–20 % of capacity,
Section 4.3).  This ledger sits on top of a cell's wireless
:class:`~repro.network.link.Link` and supplies its ``link.reserved`` total.

The ledger is *sparse*: no entry is kept for a zero reservation, component
totals are cached and invalidated only by mutations of that component, and
``link.reserved`` is bound to a lazy provider instead of being re-summed
eagerly on every mutation — per-cell cost tracks the number of *active*
reservations, never the portable population.  Cached totals are recomputed
with the exact same ``sum(dict.values())`` expression the eager ledger
used, so every float the link observes is bit-identical to the dense
implementation.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from ..network.link import Link
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer

__all__ = ["CellReservations"]


class CellReservations:
    """Advance-reservation bookkeeping for one cell.

    Two classes of reservations are tracked:

    * **targeted** — per-portable reservations made by next-cell prediction
      (claimed by that portable's handoff, released on wrong predictions);
    * **aggregate** — anonymous pools booked by the lounge algorithms (a
      meeting's expected attendees, a cafeteria's predicted handoff count),
      keyed by a tag so they can be resized or withdrawn.

    On top sits the ``B_dyn`` pool, clamped to ``[min_fraction,
    max_fraction]`` of the link capacity.

    ``on_change`` (when set) fires after every mutation that actually
    changes the ledger state — the resource manager subscribes it to mark
    the owning cell dirty for the incremental refresh path.  Mutations that
    leave the ledger unchanged (re-reserving the same amount, drawing zero)
    do not fire it, so a steady-state cell generates no dirt.
    """

    def __init__(
        self,
        link: Link,
        min_pool_fraction: float = 0.05,
        max_pool_fraction: float = 0.20,
    ):
        if not 0.0 <= min_pool_fraction <= max_pool_fraction <= 1.0:
            raise ValueError(
                "need 0 <= min_pool_fraction <= max_pool_fraction <= 1"
            )
        self.link = link
        self.min_pool_fraction = min_pool_fraction
        self.max_pool_fraction = max_pool_fraction
        self._targeted: Dict[Hashable, float] = {}
        self._aggregate: Dict[Hashable, float] = {}
        self._pool: float = min_pool_fraction * link.capacity
        #: Cached component totals (None = stale, recompute on next read).
        self._targeted_cache: Optional[float] = 0.0
        self._aggregate_cache: Optional[float] = 0.0
        #: Observer fired after every state-changing mutation.
        self.on_change: Optional[Callable[[], None]] = None
        link.bind_reserved_source(self._reserved_now)

    # -- introspection ----------------------------------------------------------

    @property
    def pool(self) -> float:
        """The current ``B_dyn`` pool size."""
        return self._pool

    @property
    def targeted_total(self) -> float:
        total = self._targeted_cache
        if total is None:
            total = sum(self._targeted.values())
            self._targeted_cache = total
        return total

    @property
    def aggregate_total(self) -> float:
        total = self._aggregate_cache
        if total is None:
            total = sum(self._aggregate.values())
            self._aggregate_cache = total
        return total

    @property
    def total(self) -> float:
        """Everything counted against ``b_resv,l`` on the wireless link."""
        return self._pool + self.targeted_total + self.aggregate_total

    def targeted_for(self, portable_id: Hashable) -> float:
        return self._targeted.get(portable_id, 0.0)

    def aggregate_for(self, tag: Hashable) -> float:
        return self._aggregate.get(tag, 0.0)

    # -- targeted reservations -----------------------------------------------------

    def reserve_for_portable(self, portable_id: Hashable, amount: float) -> None:
        """Book (replace) the advance reservation for a predicted handoff.

        A zero amount removes the entry (sparse ledger: zero reservations
        are never stored).
        """
        if not (amount >= 0):
            raise ValueError(f"amount must be non-negative, got {amount}")
        if amount == 0.0:
            if self._targeted.pop(portable_id, None) is None:
                return
        else:
            if self._targeted.get(portable_id) == amount:
                return
            self._targeted[portable_id] = amount
        self._targeted_cache = None
        self._notify()

    def release_portable(self, portable_id: Hashable) -> float:
        """Withdraw a targeted reservation (wrong prediction / departure)."""
        amount = self._targeted.pop(portable_id, 0.0)
        if amount != 0.0:
            self._targeted_cache = None
            self._notify()
        return amount

    def claim_portable(self, portable_id: Hashable) -> float:
        """The portable arrived: convert its reservation into admission headroom.

        Returns the claimable bandwidth; the reservation is consumed (the
        admission controller re-books the connection as an ongoing one).
        A zero claim means the prediction missed — no reservation awaited
        this portable here (the reservation-miss the trace records).
        """
        amount = self.release_portable(portable_id)
        hit = amount > 0.0
        tracer = get_tracer()
        if tracer is not None:
            tracer.emit(
                "reservation.claim",
                portable=str(portable_id),
                amount=amount,
                hit=hit,
                link=[str(k) for k in self.link.key],
            )
        get_registry().counter(
            "reservation_claims_total", hit=hit
        ).inc()
        return amount

    # -- aggregate reservations -------------------------------------------------------

    def reserve_aggregate(self, tag: Hashable, amount: float) -> None:
        """Set the anonymous pool booked under ``tag`` (0 removes it)."""
        if not (amount >= 0):
            raise ValueError(f"amount must be non-negative, got {amount}")
        if amount == 0:
            if self._aggregate.pop(tag, None) is None:
                return
        else:
            if self._aggregate.get(tag) == amount:
                return
            self._aggregate[tag] = amount
        self._aggregate_cache = None
        self._notify()

    def release_aggregate(self, tag: Hashable) -> float:
        amount = self._aggregate.pop(tag, 0.0)
        if amount != 0.0:
            self._aggregate_cache = None
            self._notify()
        return amount

    def draw_aggregate(self, tag: Hashable, amount: float) -> float:
        """Consume up to ``amount`` from an aggregate pool (handoff arrival).

        Returns how much was actually drawn.
        """
        if not (amount >= 0):
            raise ValueError(f"amount must be non-negative, got {amount}")
        available = self._aggregate.get(tag)
        if available is None:
            return 0.0
        drawn = min(available, amount)
        remaining = available - drawn
        if remaining <= 1e-12:
            self._aggregate.pop(tag, None)
        elif drawn == 0.0:
            return 0.0  # nothing moved; the entry stays as it was
        else:
            self._aggregate[tag] = remaining
        self._aggregate_cache = None
        self._notify()
        return drawn

    # -- the B_dyn pool ----------------------------------------------------------------

    def set_pool(self, amount: float) -> float:
        """Resize ``B_dyn``, clamped to the configured fraction band."""
        low = self.min_pool_fraction * self.link.capacity
        high = self.max_pool_fraction * self.link.capacity
        clamped = min(high, max(low, amount))
        if clamped != self._pool:
            self._pool = clamped
            self._notify()
        return self._pool

    def adapt_pool_for_static_neighbors(self, max_static_rate: float) -> float:
        """Section 5.3's pool policy.

        ``B_dyn`` must accommodate at least one connection at the maximum
        allocated bandwidth among static portables residing in neighboring
        cells (their sudden movement arrives without advance reservation).
        """
        if not (max_static_rate >= 0):
            raise ValueError(
                f"max_static_rate must be non-negative, got {max_static_rate}"
            )
        return self.set_pool(max_static_rate)

    def draw_pool(self, amount: float) -> float:
        """Consume pool headroom for an unforeseen arrival.

        The pool may drop below the minimum fraction transiently; callers
        should restore it via :meth:`set_pool` when capacity frees up.
        Returns the amount actually drawn.
        """
        if not (amount >= 0):
            raise ValueError(f"amount must be non-negative, got {amount}")
        drawn = min(self._pool, amount)
        if drawn != 0.0:
            self._pool -= drawn
            self._notify()
        return drawn

    # -- internals -------------------------------------------------------------------

    def _reserved_now(self) -> float:
        """Lazy ``b_resv,l`` provider bound into the link."""
        return self._pool + self.targeted_total + self.aggregate_total

    def _notify(self) -> None:
        observer = self.on_change
        if observer is not None:
            observer()
