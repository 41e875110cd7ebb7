"""Profile records: Table 1's cell and portable profiles.

Every profile carries identification and authentication information plus an
aggregated handoff history.  Cell profiles additionally carry the cell class,
the neighbor set (with classes), office occupants, and — for meeting rooms —
a booking calendar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Hashable, List, Optional, Set, Tuple

from .history import CountedHandoffHistory, HandoffHistory

__all__ = ["CellClass", "Meeting", "BookingCalendar", "CellProfile", "PortableProfile"]


class CellClass(Enum):
    """The paper's location-based cell classification (Section 3.4.1)."""

    OFFICE = "office"
    CORRIDOR = "corridor"
    MEETING_ROOM = "meeting_room"   # lounge subclass: handoff spikes
    CAFETERIA = "cafeteria"         # lounge subclass: slow time-varying
    DEFAULT = "default"             # lounge subclass: random time-varying
    UNKNOWN = "unknown"             # pre-classification (learning phase)

    @property
    def is_lounge(self) -> bool:
        return self in (
            CellClass.MEETING_ROOM,
            CellClass.CAFETERIA,
            CellClass.DEFAULT,
        )


@dataclass(frozen=True)
class Meeting:
    """One booking-calendar entry: [start, end) with ``attendees`` expected.

    ``attendees`` is the paper's ``N_m`` — resources are specified "in terms
    of the number of users".
    """

    start: float
    end: float
    attendees: int

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError(f"meeting must end after it starts ({self.start}, {self.end})")
        if self.attendees < 1:
            raise ValueError(f"attendees must be >= 1, got {self.attendees}")

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end


class BookingCalendar:
    """The meeting room's schedule, ordered by start time."""

    def __init__(self, meetings: Optional[List[Meeting]] = None):
        self._meetings: List[Meeting] = sorted(
            meetings or [], key=lambda m: m.start
        )

    def book(self, meeting: Meeting) -> None:
        self._meetings.append(meeting)
        self._meetings.sort(key=lambda m: m.start)

    @property
    def meetings(self) -> List[Meeting]:
        return list(self._meetings)

    def current(self, t: float) -> Optional[Meeting]:
        """The meeting in progress at ``t`` (None if idle)."""
        for meeting in self._meetings:
            if meeting.contains(t):
                return meeting
        return None

    def next_after(self, t: float) -> Optional[Meeting]:
        """The earliest meeting starting at or after ``t``."""
        for meeting in self._meetings:
            if meeting.start >= t:
                return meeting
        return None

    def __len__(self) -> int:
        return len(self._meetings)


@dataclass
class PortableProfile:
    """Table 1's portable profile.

    The aggregate history is the set of ``<previous cell, current cell,
    next-predicted-cell>`` triplets computed over the last ``N_pP`` handoffs.
    """

    portable_id: Hashable
    auth_token: str = ""
    history: HandoffHistory = field(default_factory=lambda: HandoffHistory(window=50))

    def next_predicted(
        self, previous: Optional[Hashable], current: Hashable
    ) -> Optional[Hashable]:
        """First-level prediction: look up the (prev, cur) triplet."""
        return self.history.most_likely_next(current, previous)

    def triplets(self) -> Dict[Tuple[Hashable, Hashable], Hashable]:
        return self.history.conditioned_triplets()


@dataclass
class CellProfile:
    """Table 1's cell profile.

    The aggregate history maps, for each previous cell, the empirical
    probability of handing off to each neighboring cell.
    """

    cell_id: Hashable
    cell_class: CellClass = CellClass.UNKNOWN
    auth_token: str = ""
    neighbors: Set[Hashable] = field(default_factory=set)
    neighbor_classes: Dict[Hashable, CellClass] = field(default_factory=dict)
    #: ``omega(c)``: regular occupants — only meaningful for offices.
    occupants: Set[Hashable] = field(default_factory=set)
    #: Booking calendar — only meaningful for meeting rooms.
    calendar: BookingCalendar = field(default_factory=BookingCalendar)
    history: HandoffHistory = field(
        default_factory=lambda: CountedHandoffHistory(window=500)
    )

    def add_neighbor(self, cell_id: Hashable, cell_class: CellClass = CellClass.UNKNOWN) -> None:
        self.neighbors.add(cell_id)
        self.neighbor_classes[cell_id] = cell_class

    def handoff_distribution(
        self, previous: Optional[Hashable] = None
    ) -> Dict[Hashable, float]:
        """``{neighbor: probability}`` over the history window."""
        return self.history.transition_probabilities(self.cell_id, previous)

    def predict_next(self, previous: Optional[Hashable] = None) -> Optional[Hashable]:
        """Second-level (aggregate-history) prediction."""
        prediction = self.history.most_likely_next(self.cell_id, previous)
        if prediction is None and previous is not None:
            # Fall back to unconditioned aggregation.
            prediction = self.history.most_likely_next(self.cell_id, None)
        return prediction

    def is_occupant(self, portable_id: Hashable) -> bool:
        return portable_id in self.occupants
