"""Tests for floorplans."""

import pytest

from repro.mobility import FloorPlan, campus_floorplan, figure4_floorplan
from repro.profiles import CellClass


def test_add_cell_and_connect():
    plan = FloorPlan()
    plan.add_cell("a", CellClass.OFFICE)
    plan.add_cell("b", CellClass.CORRIDOR)
    plan.connect("a", "b")
    assert plan.neighbors("a") == {"b"}
    assert plan.neighbors("b") == {"a"}
    plan.validate()


def test_duplicate_cell_rejected():
    plan = FloorPlan()
    plan.add_cell("a", CellClass.OFFICE)
    with pytest.raises(ValueError):
        plan.add_cell("a", CellClass.CORRIDOR)


def test_self_loop_and_unknown_rejected():
    plan = FloorPlan()
    plan.add_cell("a", CellClass.OFFICE)
    with pytest.raises(ValueError):
        plan.connect("a", "a")
    with pytest.raises(KeyError):
        plan.connect("a", "ghost")


def test_occupants_only_on_offices():
    plan = FloorPlan()
    plan.add_cell("a", CellClass.CORRIDOR)
    with pytest.raises(ValueError):
        plan.set_occupants("a", {"p"})


def test_figure4_environment_matches_paper():
    plan = figure4_floorplan()
    assert plan.cell_class("A") is CellClass.OFFICE
    assert plan.cell_class("B") is CellClass.OFFICE
    for corridor in "CDEFG":
        assert plan.cell_class(corridor) is CellClass.CORRIDOR
    # The faculty path C -> D -> A and student path C -> D -> E -> B exist.
    assert "D" in plan.neighbors("C")
    assert "A" in plan.neighbors("D")
    assert "E" in plan.neighbors("D")
    assert "B" in plan.neighbors("E")
    # Occupants per Section 7.1: one faculty office, one 4-person office.
    assert plan.occupants["A"] == {"faculty"}
    assert len(plan.occupants["B"]) == 4
    assert "faculty" in plan.occupants["B"]


def test_campus_floorplan_covers_every_class():
    plan = campus_floorplan()
    classes = set(plan.classes.values())
    assert {
        CellClass.OFFICE,
        CellClass.CORRIDOR,
        CellClass.MEETING_ROOM,
        CellClass.CAFETERIA,
        CellClass.DEFAULT,
    } <= classes
    plan.validate()
