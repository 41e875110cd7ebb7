"""Cafeteria and default-lounge advance reservation (Sections 6.2.2–6.2.3).

Both algorithms operate in discrete time slots.  The base station counts the
handoffs out of the cell during each slot, predicts the next slot's count,
and asks its neighbors to reserve bandwidth for the predicted leavers,
distributed according to the cell's aggregate handoff profile.

* **Cafeteria** — slow time-varying activity; prediction is a least-squares
  linear extrapolation over the last three slots.
* **Default** — random time-varying activity; prediction is one-step memory
  (``N(t+1) = N(t)``).

The cafeteria also reserves for its *incoming* handoffs when at least one
neighbor is a ``default`` cell: a default neighbor's own predictions are
not to be trusted, so the cafeteria predicts its arrivals with its linear
model and reserves for them locally.  The paper's default cell would do
the same with the probabilistic algorithm of Section 6.3 (eqn. 7), but no
floorplan puts a default cell next to another, so eqn. 7 lives only in
:mod:`~repro.core.probabilistic`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Hashable, Optional, Sequence

from ..des import Environment
from .prediction import linear_ls_predict, one_step_memory_predict
from .reservation import CellReservations

__all__ = ["SlotCounter", "CafeteriaReservation", "DefaultLoungeReservation"]


class SlotCounter:
    """Counts events per fixed-length time slot, keeping a short history."""

    def __init__(self, history: int = 8):
        if history < 3:
            raise ValueError(f"history must be >= 3, got {history}")
        self._current = 0
        self._history: Deque[int] = deque(maxlen=history)

    def count(self, n: int = 1) -> None:
        self._current += n

    def roll(self) -> int:
        """Close the current slot; returns its count."""
        closed = self._current
        self._history.append(closed)
        self._current = 0
        return closed

    @property
    def current(self) -> int:
        return self._current

    @property
    def history(self) -> Sequence[int]:
        return list(self._history)

    def last(self, n: int) -> Optional[Sequence[int]]:
        """The last ``n`` closed slots (oldest first), or None if too few."""
        if len(self._history) < n:
            return None
        return list(self._history)[-n:]


class _SlottedLounge:
    """Shared machinery: slot clock, outgoing counter, neighbor distribution.

    Subclasses define ``_predict(counter)``: the next slot's count.  One
    that keeps counters of its own extends ``_close_slot`` to roll them.
    """

    kind = "lounge"

    def __init__(
        self,
        env: Environment,
        cell_id: Hashable,
        reservations: CellReservations,
        neighbor_ledgers: Dict[Hashable, CellReservations],
        handoff_distribution: Callable[[], Dict[Hashable, float]],
        per_user_bandwidth: float = 16.0,
        slot_duration: float = 60.0,
    ):
        if slot_duration <= 0:
            raise ValueError(f"slot_duration must be positive, got {slot_duration}")
        self.env = env
        self.cell_id = cell_id
        self.reservations = reservations
        self.neighbor_ledgers = dict(neighbor_ledgers)
        self.handoff_distribution = handoff_distribution
        self.per_user_bandwidth = per_user_bandwidth
        self.slot_duration = slot_duration

        self.tag = (self.kind, cell_id)
        self.outgoing = SlotCounter()
        #: Predicted outgoing handoffs for the upcoming slot (observability).
        self.predicted_out: float = 0.0

    # -- event feeds (wired to the handoff layer) ------------------------------------

    def handoff_out(self) -> None:
        self.outgoing.count()

    # -- the slot process --------------------------------------------------------------

    def run(self):
        """DES process: close a slot every ``slot_duration`` and re-reserve."""
        while True:
            yield self.env.timeout(self.slot_duration)
            self._close_slot()
            self._reserve_for_next_slot()

    def _close_slot(self) -> None:
        self.outgoing.roll()

    def _reserve_for_next_slot(self) -> None:
        self.predicted_out = self._predict(self.outgoing)
        self._spread_to_neighbors(self.predicted_out)

    def _spread_to_neighbors(self, predicted: float) -> None:
        share = self.handoff_distribution() or {}
        if not share and self.neighbor_ledgers:
            n = len(self.neighbor_ledgers)
            share = {k: 1.0 / n for k in self.neighbor_ledgers}
        for neighbor, ledger in self.neighbor_ledgers.items():
            fraction = share.get(neighbor, 0.0)
            ledger.reserve_aggregate(
                self.tag, predicted * fraction * self.per_user_bandwidth
            )


class CafeteriaReservation(_SlottedLounge):
    """Section 6.2.2: linear least-squares prediction over 3 slots.

    ``default_neighbors`` names the neighbors whose own predictions are not
    to be trusted; with any, each slot also reserves locally for the
    predicted incoming handoffs.
    """

    kind = "cafeteria"

    def __init__(self, *args, default_neighbors: Sequence[Hashable] = (), **kwargs):
        super().__init__(*args, **kwargs)
        self.default_neighbors = set(default_neighbors)
        self.incoming = SlotCounter()
        #: Predicted incoming handoffs for the upcoming slot (observability).
        self.predicted_in: float = 0.0

    def handoff_in(self) -> None:
        self.incoming.count()

    def _close_slot(self) -> None:
        super()._close_slot()
        self.incoming.roll()

    def _predict(self, counter: SlotCounter) -> float:
        window = counter.last(3)
        if window is None:
            # Too little history: behave like one-step memory until warm.
            history = counter.history
            return float(history[-1]) if history else 0.0
        return linear_ls_predict(window)

    def _reserve_for_next_slot(self) -> None:
        super()._reserve_for_next_slot()
        if self.default_neighbors:
            self.predicted_in = self._predict(self.incoming)
            self.reservations.reserve_aggregate(
                ("cafeteria-in", self.cell_id),
                self.predicted_in * self.per_user_bandwidth,
            )


class DefaultLoungeReservation(_SlottedLounge):
    """Section 6.2.3: one-step memory prediction."""

    kind = "default"

    def _predict(self, counter: SlotCounter) -> float:
        history = counter.history
        return one_step_memory_predict(history[-1]) if history else 0.0
