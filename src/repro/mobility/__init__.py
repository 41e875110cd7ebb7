"""Mobility substrate: floorplans, per-class models, calibrated traces."""

from .base import MobilityModel, walk_path
from .cafeteria import CafeteriaPatron, lunch_intensity, patron_spawner
from .campus import campus_plan
from .floorplan import FloorPlan, campus_floorplan, figure4_floorplan
from .meeting import MeetingAttendee
from .office import OfficeWorker
from .randomwalk import RandomWalker
from .traces import (
    OFFICE_WEEK_TARGETS,
    HandoffEvent,
    MoveTrace,
    class_session_trace,
    office_week_trace,
)

__all__ = [
    "MobilityModel",
    "walk_path",
    "CafeteriaPatron",
    "lunch_intensity",
    "patron_spawner",
    "FloorPlan",
    "campus_floorplan",
    "campus_plan",
    "figure4_floorplan",
    "MeetingAttendee",
    "OfficeWorker",
    "RandomWalker",
    "OFFICE_WEEK_TARGETS",
    "HandoffEvent",
    "MoveTrace",
    "class_session_trace",
    "office_week_trace",
]
