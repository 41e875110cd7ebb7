"""Base stations: per-cell control points of the resource-management plane.

A base station owns its cell's reservation ledger, runs the static/mobile
test, and executes the Section 6.4 advance-reservation cascade for the
mobile portables in its cell.  It reads profiles straight from the zone's
profile server; Section 3.4.3's per-base-station profile cache is not
modelled, since no artifact reads a cached copy.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from ..core.prediction import Prediction, PredictionLevel, ProfileAwarePredictor
from ..core.statmob import StaticMobileClassifier
from ..profiles.records import CellClass
from ..profiles.server import ProfileServer
from .cell import Cell
from .portable import Portable

__all__ = ["BaseStation"]


class BaseStation:
    """The control-plane agent of one cell."""

    def __init__(
        self,
        cell: Cell,
        server: ProfileServer,
        statmob: StaticMobileClassifier,
        get_cell: Callable[[Hashable], Cell],
    ):
        self.cell = cell
        self.server = server
        self.statmob = statmob
        self.get_cell = get_cell
        self.predictor = ProfileAwarePredictor(server)
        #: portable -> cell where we placed a targeted advance reservation.
        self._placed: Dict[Hashable, Hashable] = {}
        self.predictions_made = 0
        self.predictions_skipped_static = 0

    # -- static/mobile test -------------------------------------------------------

    def is_static(self, portable: Portable, now: float) -> bool:
        """Section 3.4.2's test via the shared classifier."""
        self.statmob.observe(portable.portable_id, self.cell.cell_id, now)
        return self.statmob.is_static(portable.portable_id, now)

    # -- the Section 6.4 cascade ------------------------------------------------------

    def plan_advance_reservation(
        self, portable: Portable, now: float
    ) -> Optional[Prediction]:
        """Place (or move) the advance reservation for a portable in this cell.

        Returns the prediction used, or None when no targeted reservation is
        placed (static portables; office occupants at home; pure-default
        contexts where the aggregate algorithms govern instead).
        """
        pid = portable.portable_id
        if self.is_static(portable, now):
            # Static: no advance reservation; withdraw any stale one.
            self.withdraw_reservation(pid)
            self.predictions_skipped_static += 1
            return None

        amount = portable.demand_floor
        if amount <= 0:
            self.withdraw_reservation(pid)
            return None

        prediction = self._predict(portable)
        self.predictions_made += 1

        if prediction.cell is None:
            # Default level: the cell-class aggregate algorithms (meeting /
            # cafeteria / probabilistic) own the reservations.
            self.withdraw_reservation(pid)
            return prediction

        self._place(pid, prediction.cell, amount)
        return prediction

    def _predict(self, portable: Portable) -> Prediction:
        pid = portable.portable_id
        cell_class = self.cell.cell_class

        # Office special case 2 (Section 6.4): a regular occupant inside its
        # own office is expected to stay — no reservation anywhere.
        if cell_class is CellClass.OFFICE and pid in self.cell.occupants:
            return Prediction(None, PredictionLevel.CELL_PROFILE)

        prediction = self.predictor.predict_for(
            pid, self.cell.cell_id, portable.previous_cell
        )
        if prediction.level is PredictionLevel.PORTABLE_PROFILE:
            # Level 1 always wins (Section 6: the cascade tries the
            # portable's own triplets before any cell-level rule).
            return prediction

        # Office / corridor occupant rule: prefer a neighboring office the
        # portable regularly occupies over aggregate-history predictions.
        if cell_class in (CellClass.OFFICE, CellClass.CORRIDOR):
            for neighbor_id in sorted(self.cell.neighbors, key=repr):
                neighbor = self.get_cell(neighbor_id)
                if (
                    neighbor.cell_class is CellClass.OFFICE
                    and pid in neighbor.occupants
                ):
                    return Prediction(neighbor_id, PredictionLevel.CELL_PROFILE)

        # An office reserves for non-occupants only via aggregate history —
        # already what the profile-aware cascade returned.
        return prediction

    # -- reservation placement ------------------------------------------------------------

    def _place(self, portable_id: Hashable, target_cell: Hashable, amount: float) -> None:
        placed_at = self._placed.get(portable_id)
        if placed_at is not None and placed_at != target_cell:
            self.get_cell(placed_at).reservations.release_portable(portable_id)
        self.get_cell(target_cell).reservations.reserve_for_portable(
            portable_id, amount
        )
        self._placed[portable_id] = target_cell

    def withdraw_reservation(self, portable_id: Hashable) -> None:
        """Remove any targeted reservation this base station placed."""
        placed_at = self._placed.pop(portable_id, None)
        if placed_at is not None:
            self.get_cell(placed_at).reservations.release_portable(portable_id)

    def reservation_target(self, portable_id: Hashable) -> Optional[Hashable]:
        return self._placed.get(portable_id)
