"""Profiles substrate: Table 1 records, histories, the profile server, caches."""

from .cache import ProfileCache
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
    "ProfileCache",
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
