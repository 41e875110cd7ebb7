"""Tests for Portable state and connection bundles."""

import pytest

from repro.core import audio_request, video_request
from repro.traffic import Connection
from repro.wireless import Portable


def test_move_to_tracks_previous_and_counts():
    p = Portable("u")
    p.move_to("A", 0.0)
    assert p.current_cell == "A"
    assert p.previous_cell is None
    assert p.handoff_count == 0  # first placement is not a handoff
    p.move_to("B", 10.0)
    assert p.previous_cell == "A"
    assert p.handoff_count == 1
    p.move_to("B", 20.0)  # no-op
    assert p.handoff_count == 1


def test_residence_time():
    p = Portable("u")
    p.move_to("A", 5.0)
    assert p.residence_time(12.0) == 7.0


def test_attach_sets_ownership():
    p = Portable("u")
    idle = Portable("v")
    conn = Connection(src="a", dst="b", qos=audio_request())
    p.attach(conn)
    assert conn.portable_id == "u"
    assert conn in p.connections
    # Idle portables share one empty tuple; attaching must never write to it.
    assert not idle.connections
    p.detach(conn)
    assert conn not in p.connections
    assert not idle.connections

    stranger = Connection(src="a", dst="b", qos=audio_request())
    with pytest.raises(ValueError):
        idle.detach(stranger)
    p.attach(conn)
    with pytest.raises(ValueError):
        p.detach(stranger)
    assert p.connections == [conn]


def test_active_connections_filter():
    p = Portable("u")
    active = Connection(src="a", dst="b", qos=audio_request())
    active.activate(["a", "b"], 16.0, 0.0)
    blocked = Connection(src="a", dst="b", qos=audio_request())
    blocked.block(0.0)
    p.attach(active)
    p.attach(blocked)
    assert p.active_connections == [active]


def test_demand_floor_and_max_rate():
    p = Portable("u")
    a = Connection(src="a", dst="b", qos=audio_request())
    a.activate(["a", "b"], 16.0, 0.0)
    v = Connection(src="a", dst="b", qos=video_request())
    v.activate(["a", "b"], 60.0, 0.0)
    v.rate = 240.0
    p.attach(a)
    p.attach(v)
    assert p.demand_floor == pytest.approx(76.0)
    assert p.max_allocated_rate == pytest.approx(240.0)


def test_empty_portable_zero_demand():
    p = Portable("u")
    assert p.demand_floor == 0.0
    assert p.max_allocated_rate == 0.0
