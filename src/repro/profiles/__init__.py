"""Profiles substrate: Table 1 records, histories and the profile server."""

from .history import CountedHandoffHistory, HandoffHistory, HandoffRecord
from .records import (
    BookingCalendar,
    CellClass,
    CellProfile,
    Meeting,
    PortableProfile,
)
from .server import ProfileServer

__all__ = [
    "CountedHandoffHistory",
    "HandoffHistory",
    "HandoffRecord",
    "BookingCalendar",
    "CellClass",
    "CellProfile",
    "Meeting",
    "PortableProfile",
    "ProfileServer",
]
