"""Zone profile servers (Section 3.4.3).

Each zone has one profile server holding the cell profiles of its cells and
the portable profiles of the portables that hand off inside it.  Base
stations report every handoff; the server updates both histories and answers
next-cell prediction queries.  A portable's profile is created by its first
reported handoff: before that its window would be empty, and no prediction
could use it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Tuple

from .history import CountedHandoffHistory, HandoffHistory
from .records import CellClass, CellProfile, PortableProfile

__all__ = ["ProfileServer"]


class ProfileServer:
    """Profile store and predictor for one zone.

    It is the single store: base stations read profiles here, and no copy
    is cached per base station (Section 3.4.3's cache is not modelled).
    """

    def __init__(self, zone_id: Hashable = "zone-0",
                 portable_window: int = 50, cell_window: int = 500):
        self.zone_id = zone_id
        self.portable_window = portable_window
        self.cell_window = cell_window
        self.cells: Dict[Hashable, CellProfile] = {}
        self.portables: Dict[Hashable, PortableProfile] = {}
        #: Last known (previous_cell, current_cell) context per portable.
        self._context: Dict[Hashable, Tuple[Optional[Hashable], Optional[Hashable]]] = {}
        self.handoffs_recorded = 0

    # -- registration -----------------------------------------------------------

    def register_cell(
        self,
        cell_id: Hashable,
        cell_class: CellClass = CellClass.UNKNOWN,
        neighbors: Iterable[Hashable] = (),
    ) -> CellProfile:
        """Add (or fetch) a cell profile; neighbor links are symmetric."""
        profile = self.cells.get(cell_id)
        if profile is None:
            profile = CellProfile(
                cell_id=cell_id,
                cell_class=cell_class,
                history=CountedHandoffHistory(window=self.cell_window),
            )
            self.cells[cell_id] = profile
        elif cell_class is not CellClass.UNKNOWN:
            profile.cell_class = cell_class
        for neighbor in neighbors:
            other = self.register_cell(neighbor)
            profile.add_neighbor(neighbor, other.cell_class)
            other.add_neighbor(cell_id, profile.cell_class)
        return profile

    def register_portable(self, portable_id: Hashable) -> PortableProfile:
        profile = self.portables.get(portable_id)
        if profile is None:
            profile = PortableProfile(
                portable_id=portable_id,
                history=HandoffHistory(window=self.portable_window),
            )
            self.portables[portable_id] = profile
            self._context[portable_id] = (None, None)
        return profile

    # -- handoff reporting ---------------------------------------------------------

    def report_handoff(
        self, portable_id: Hashable, from_cell: Hashable, to_cell: Hashable
    ) -> None:
        """Record that ``portable_id`` moved ``from_cell -> to_cell``.

        Updates the portable's triplet history (using its remembered previous
        cell) and the departed cell's aggregate history.  A portable's first
        report creates its profile.
        """
        portable = self.register_portable(portable_id)
        previous, current = self._context.get(portable_id, (None, None))
        if current is not None and current != from_cell:
            # We lost track (e.g. the portable re-entered the zone); restart
            # the context rather than record a bogus triplet.
            previous = None
        portable.history.record(previous, from_cell, to_cell)

        cell = self.register_cell(from_cell)
        cell.history.record(previous, from_cell, to_cell)

        self._context[portable_id] = (from_cell, to_cell)
        self.handoffs_recorded += 1

    def seed_presence(self, portable_id: Hashable, cell_id: Hashable) -> None:
        """Declare where a portable currently is without a handoff record."""
        self.register_portable(portable_id)
        self._context[portable_id] = (None, cell_id)

    # -- queries ------------------------------------------------------------------

    def cell_profile(self, cell_id: Hashable) -> CellProfile:
        return self.cells[cell_id]

    def portable_profile(self, portable_id: Hashable) -> PortableProfile:
        return self.portables[portable_id]

    def context_of(
        self, portable_id: Hashable
    ) -> Tuple[Optional[Hashable], Optional[Hashable]]:
        """(previous_cell, current_cell) as tracked by the server."""
        return self._context.get(portable_id, (None, None))
