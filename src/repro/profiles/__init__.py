"""Profiles substrate: Table 1 records, histories, zone servers, caches."""

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
from .zones import ZoneDirectory

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
    "ZoneDirectory",
]
