"""Indoor floorplans: cells, classes, adjacency.

Includes the Figure 4 environment (offices **A** and **B** off the corridor
cells **C**–**G**) and a richer campus floor used by the end-to-end examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Set

from ..profiles.records import CellClass

__all__ = ["FloorPlan", "figure4_floorplan", "campus_floorplan"]


@dataclass
class FloorPlan:
    """A named set of cells with classes and symmetric adjacency."""

    name: str = "floor"
    classes: Dict[Hashable, CellClass] = field(default_factory=dict)
    adjacency: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    #: office id -> regular occupant ids
    occupants: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)

    def add_cell(self, cell_id: Hashable, cell_class: CellClass) -> None:
        if cell_id in self.classes:
            raise ValueError(f"cell {cell_id!r} already exists")
        self.classes[cell_id] = cell_class
        self.adjacency[cell_id] = set()

    def connect(self, a: Hashable, b: Hashable) -> None:
        if a == b:
            raise ValueError("a cell cannot neighbor itself")
        for c in (a, b):
            if c not in self.classes:
                raise KeyError(f"unknown cell {c!r}")
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)

    def set_occupants(self, office: Hashable, occupants: Iterable[Hashable]) -> None:
        if self.classes.get(office) is not CellClass.OFFICE:
            raise ValueError(f"{office!r} is not an office")
        self.occupants[office] = set(occupants)

    @property
    def cells(self) -> List[Hashable]:
        return list(self.classes)

    def neighbors(self, cell_id: Hashable) -> Set[Hashable]:
        return set(self.adjacency[cell_id])

    def cell_class(self, cell_id: Hashable) -> CellClass:
        return self.classes[cell_id]

    def validate(self) -> None:
        """Sanity checks: symmetric adjacency, occupants in offices only."""
        for cell, neighbors in self.adjacency.items():
            for n in neighbors:
                if cell not in self.adjacency[n]:
                    raise ValueError(f"asymmetric adjacency {cell!r}/{n!r}")
        for office in self.occupants:
            if self.classes[office] is not CellClass.OFFICE:
                raise ValueError(f"occupants on non-office {office!r}")


def figure4_floorplan() -> FloorPlan:
    """The measured environment of Section 7.1 (Figure 4).

    Offices **A** (faculty, one occupant) and **B** (students, four
    occupants: three students plus the faculty member), corridors **C**
    through **G**.  Movement observed in the paper: entering traffic flows
    C -> D, then into A, onward to E and B, or away to F / G.
    """
    plan = FloorPlan(name="figure4")
    plan.add_cell("A", CellClass.OFFICE)
    plan.add_cell("B", CellClass.OFFICE)
    for corridor in "CDEFG":
        plan.add_cell(corridor, CellClass.CORRIDOR)
    plan.connect("C", "D")
    plan.connect("D", "A")
    plan.connect("D", "E")
    plan.connect("D", "F")
    plan.connect("E", "B")
    plan.connect("E", "G")
    plan.set_occupants("A", {"faculty"})
    plan.set_occupants("B", {"faculty", "student-1", "student-2", "student-3"})
    plan.validate()
    return plan


def campus_floorplan() -> FloorPlan:
    """A richer floor exercising every cell class.

    A corridor spine (cor-1 .. cor-4) connecting two offices, one meeting
    room, one cafeteria, and one default lounge — the standard scenario of
    the end-to-end examples and the day-in-the-life benchmark.
    """
    plan = FloorPlan(name="campus")
    for i in range(1, 5):
        plan.add_cell(f"cor-{i}", CellClass.CORRIDOR)
    for i in range(1, 4):
        plan.connect(f"cor-{i}", f"cor-{i + 1}")
    plan.add_cell("office-1", CellClass.OFFICE)
    plan.add_cell("office-2", CellClass.OFFICE)
    plan.add_cell("meeting", CellClass.MEETING_ROOM)
    plan.add_cell("cafeteria", CellClass.CAFETERIA)
    plan.add_cell("lounge", CellClass.DEFAULT)
    plan.connect("office-1", "cor-1")
    plan.connect("office-2", "cor-2")
    plan.connect("meeting", "cor-3")
    plan.connect("cafeteria", "cor-4")
    plan.connect("lounge", "cor-4")
    plan.set_occupants("office-1", {"alice"})
    plan.set_occupants("office-2", {"bob", "carol"})
    plan.validate()
    return plan
