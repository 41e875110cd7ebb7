"""Tests for the DES mobility models."""

import random

import pytest

from repro.des import Environment
from repro.mobility import (
    CafeteriaPatron,
    FloorPlan,
    MeetingAttendee,
    OfficeWorker,
    RandomWalker,
    campus_floorplan,
    lunch_intensity,
    patron_spawner,
    walk_path,
)
from repro.profiles import CellClass, Meeting
from repro.wireless import Portable


def recording_mover(log):
    def mover(portable, to_cell):
        log.append((portable.portable_id, portable.current_cell, to_cell))
        portable.move_to(to_cell, 0.0)

    return mover


def place(plan, pid, cell):
    p = Portable(pid)
    p.move_to(cell, 0.0)
    return p


def test_move_validates_adjacency():
    plan = campus_floorplan()
    env = Environment()
    log = []
    p = place(plan, "u", "cor-1")
    model = RandomWalker(env, plan, p, recording_mover(log), random.Random(1))
    with pytest.raises(ValueError):
        model.move("cafeteria")  # not adjacent to cor-1


def test_route_to_bfs_shortest():
    plan = campus_floorplan()
    env = Environment()
    p = place(plan, "u", "office-1")
    model = RandomWalker(env, plan, p, recording_mover([]), random.Random(1))
    route = model.route_to("cafeteria")
    assert route == ["cor-1", "cor-2", "cor-3", "cor-4", "cafeteria"]
    assert model.route_to("office-1") == []


def test_route_to_unreachable_raises():
    plan = FloorPlan()
    plan.add_cell("a", CellClass.CORRIDOR)
    plan.add_cell("b", CellClass.CORRIDOR)
    env = Environment()
    p = place(plan, "u", "a")
    model = RandomWalker(env, plan, p, recording_mover([]), random.Random(1))
    with pytest.raises(ValueError):
        model.route_to("b")


def test_walk_path_visits_each_cell():
    plan = campus_floorplan()
    env = Environment()
    log = []
    p = place(plan, "u", "office-1")
    model = RandomWalker(env, plan, p, recording_mover(log), random.Random(1))
    env.process(walk_path(model, model.route_to("meeting")))
    env.run()
    assert [to for _, _, to in log] == ["cor-1", "cor-2", "cor-3", "meeting"]


def test_random_walker_respects_max_moves():
    plan = campus_floorplan()
    env = Environment()
    log = []
    p = place(plan, "u", "cor-2")
    model = RandomWalker(
        env, plan, p, recording_mover(log), random.Random(2),
        dwell_mean=10.0, max_moves=5,
    )
    env.process(model.run())
    env.run()
    assert len(log) == 5
    # Every move is between adjacent cells.
    for _, frm, to in log:
        assert to in plan.neighbors(frm)


def test_office_worker_returns_home():
    plan = campus_floorplan()
    env = Environment()
    log = []
    p = place(plan, "alice", "office-1")
    model = OfficeWorker(
        env, plan, p, recording_mover(log), random.Random(4),
        home="office-1", destinations=["cafeteria"],
        office_dwell_mean=100.0, away_dwell_mean=50.0, step_mean=5.0,
    )
    env.process(model.run())
    env.run(until=2000.0)
    arrivals = [to for _, _, to in log]
    assert "cafeteria" in arrivals
    # After visiting, the worker comes home again.
    last_home = max(i for i, c in enumerate(arrivals) if c == "office-1")
    first_cafe = arrivals.index("cafeteria")
    assert last_home > first_cafe


def test_office_worker_needs_destinations():
    plan = campus_floorplan()
    env = Environment()
    p = place(plan, "alice", "office-1")
    with pytest.raises(ValueError):
        OfficeWorker(env, plan, p, recording_mover([]), random.Random(1),
                     home="office-1", destinations=[])


def test_meeting_attendee_arrives_near_start_leaves_after_end():
    plan = campus_floorplan()
    env = Environment()
    log = []
    arrival_times = {}

    def mover(portable, to_cell):
        log.append((portable.portable_id, to_cell, env.now))
        if to_cell == "meeting":
            arrival_times[portable.portable_id] = env.now
        portable.move_to(to_cell, env.now)

    meeting = Meeting(start=2000.0, end=4000.0, attendees=1)
    p = place(plan, "a0", "cor-1")
    model = MeetingAttendee(
        env, plan, p, mover, random.Random(5),
        meeting=meeting, room="meeting", home="cor-1",
        arrival_spread=600.0, departure_spread=300.0, step_mean=10.0,
    )
    env.process(model.run())
    env.run()
    assert "a0" in arrival_times
    assert meeting.start - 600.0 - 120.0 <= arrival_times["a0"] <= meeting.start + 400.0
    exits = [t for pid, cell, t in log if cell == "cor-3" and t > meeting.end]
    assert exits  # left the room after the end


def test_cafeteria_patron_roundtrip():
    plan = campus_floorplan()
    env = Environment()
    log = []
    p = place(plan, "u", "office-1")
    model = CafeteriaPatron(
        env, plan, p, recording_mover(log), random.Random(6),
        cafeteria="cafeteria", home="office-1", meal_mean=100.0, step_mean=5.0,
    )
    env.process(model.run())
    env.run()
    arrivals = [to for _, _, to in log]
    assert "cafeteria" in arrivals
    assert arrivals[-1] == "office-1"


def test_lunch_intensity_peaks_at_peak_time():
    peak = lunch_intensity(100.0, peak_time=100.0, peak_rate=2.0, width=50.0)
    off = lunch_intensity(300.0, peak_time=100.0, peak_rate=2.0, width=50.0)
    assert peak == pytest.approx(2.0)
    assert off < 0.1


def test_patron_spawner_thinning():
    env = Environment()
    spawned = []
    env.process(
        patron_spawner(
            env,
            random.Random(7),
            intensity=lambda t: 1.0 if 100 <= t < 200 else 0.0,
            spawn=lambda now: spawned.append(now),
            max_rate=1.0,
            horizon=400.0,
        )
    )
    env.run()
    assert spawned
    assert all(100 <= t < 200 for t in spawned)
    assert 60 <= len(spawned) <= 140  # ~100 expected


def test_patron_spawner_rejects_excess_intensity():
    env = Environment()
    env.process(
        patron_spawner(
            env,
            random.Random(8),
            intensity=lambda t: 5.0,
            spawn=lambda now: None,
            max_rate=1.0,
            horizon=100.0,
        )
    )
    with pytest.raises(ValueError):
        env.run()
