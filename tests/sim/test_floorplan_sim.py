"""Tests for the full floorplan simulator wiring."""

import pytest

from repro.core import audio_request
from repro.mobility import campus_floorplan
from repro.profiles import BookingCalendar, CellClass, Meeting
from repro.sim import FloorplanSimulator


def build(**kw):
    return FloorplanSimulator(campus_floorplan(), capacity=1600.0, **kw)


def test_cells_mirror_floorplan():
    sim = build()
    plan = campus_floorplan()
    assert set(sim.cells) == set(plan.cells)
    for cell_id, cell in sim.cells.items():
        assert cell.cell_class is plan.cell_class(cell_id)
        assert cell.neighbors == plan.neighbors(cell_id)
    assert "alice" in sim.cells["office-1"].occupants


def test_lounge_processes_started_per_class():
    sim = build(calendars={"meeting": BookingCalendar([Meeting(100.0, 200.0, 3)])})
    assert set(sim.lounge_processes) == {"meeting", "cafeteria", "lounge"}


def test_add_portable_and_connection():
    sim = build()
    sim.add_portable("u", "cor-1")
    conn = sim.request_connection("u", audio_request())
    assert conn is not None
    assert sim.stats.new_requests == 1
    assert sim.stats.admitted == 1


def test_move_records_handoff_stats_and_slot_counters():
    sim = build()
    sim.add_portable("u", "cor-4")
    sim.request_connection("u", audio_request())
    outcome = sim.move("u", "lounge")
    assert outcome.clean
    assert sim.stats.handoff_attempts == 1
    # A default lounge counts only its outgoing handoffs: the cafeteria
    # alone reserves for its arrivals, so only it counts them.
    assert not hasattr(sim.lounge_processes["lounge"], "incoming")
    sim.move("u", "cor-4")
    assert sim.lounge_processes["lounge"].outgoing.current == 1
    sim.move("u", "cafeteria")
    assert sim.lounge_processes["cafeteria"].incoming.current == 1


def test_meeting_calendar_drives_reservations():
    meeting = Meeting(start=2000.0, end=5000.0, attendees=4)
    sim = build(
        calendars={"meeting": BookingCalendar([meeting])},
        per_user_bandwidth=16.0,
    )
    sim.run(until=meeting.start - 300.0)
    tag = ("meeting", "meeting")
    assert sim.cells["meeting"].reservations.aggregate_for(tag) == pytest.approx(
        4 * 16.0
    )
    # An attendee handing in shrinks the pool.
    sim.add_portable("a", "cor-3")
    sim.request_connection("a", audio_request())
    sim.move("a", "meeting")
    assert sim.cells["meeting"].reservations.aggregate_for(tag) == pytest.approx(
        3 * 16.0
    )


def test_run_advances_clock_and_returns_stats():
    sim = build()
    stats = sim.run(until=100.0)
    assert sim.env.now == 100.0
    assert stats is sim.stats


def test_unknown_cells_get_learners_and_adopt_labels():
    from repro.mobility import FloorPlan

    plan = FloorPlan(name="learn")
    plan.add_cell("mystery", CellClass.UNKNOWN)
    plan.add_cell("west", CellClass.CORRIDOR)
    plan.add_cell("east", CellClass.CORRIDOR)
    plan.connect("west", "mystery")
    plan.connect("mystery", "east")
    plan.connect("west", "east")
    sim = FloorplanSimulator(plan, capacity=1600.0, slot_duration=30.0)
    assert set(sim.learners) == {"mystery"}

    # Directional pass-through traffic: the learner should call it a
    # corridor.
    for i in range(60):
        pid = f"w{i}"
        sim.add_portable(pid, "west")
        sim.request_connection(pid, audio_request())
        sim.move(pid, "mystery")
        sim.env.run(until=sim.env.now + 5.0)
        sim.move(pid, "east")
        sim.env.run(until=sim.env.now + 10.0)
    sim.env.run(until=sim.env.now + 31.0)
    assert sim.cells["mystery"].cell_class is CellClass.CORRIDOR
    assert sim.manager.server.cell_profile("mystery").cell_class is (
        CellClass.CORRIDOR
    )


def test_known_cells_have_no_learners():
    sim = build()
    assert sim.learners == {}
