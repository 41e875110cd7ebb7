"""Tests for the CellularResourceManager orchestration (Figure 1)."""

import pytest

from repro.core import CellularResourceManager, audio_request, video_request
from repro.core.maxmin import MaxMinProblem, maxmin_allocation
from repro.core.qos import QoSRequest
from repro.des import Environment
from repro.profiles import CellClass
from repro.traffic import ConnectionState, FlowSpec
from repro.wireless import Cell, Portable


def build(capacity=160.0, threshold=100.0):
    env = Environment()
    cells = {
        "A": Cell("A", capacity=capacity, cell_class=CellClass.OFFICE),
        "B": Cell("B", capacity=capacity, cell_class=CellClass.CORRIDOR),
        "C": Cell("C", capacity=capacity, cell_class=CellClass.DEFAULT),
    }
    cells["A"].add_neighbor("B")
    cells["B"].add_neighbor("A")
    cells["B"].add_neighbor("C")
    cells["C"].add_neighbor("B")
    cells["A"].occupants.add("p")
    manager = CellularResourceManager(env, cells, static_threshold=threshold)
    return env, cells, manager


def test_admission_and_blocking():
    env, cells, manager = build(capacity=40.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    # Pool takes 5% = 2.0, floors: 16 fits, next 16 fits, third does not.
    c1 = manager.request_connection(p, audio_request())
    c2 = manager.request_connection(p, audio_request())
    c3 = manager.request_connection(p, audio_request())
    assert c1 is not None and c2 is not None
    assert c3 is None
    assert manager.admitted == 2
    assert manager.blocked == 1


def test_best_effort_always_admitted():
    env, cells, manager = build(capacity=40.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    be = manager.request_connection(
        p, QoSRequest(flowspec=FlowSpec(sigma=1.0, rho=5.0), bounds=None)
    )
    assert be is not None
    assert cells["A"].link.allocations == {}


def test_static_upgrade_after_threshold():
    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request())
    assert conn.rate == 16.0
    env.run(until=150.0)
    manager.refresh_static_states()
    assert conn.rate == 64.0  # b_max, capacity permitting


def test_handoff_resets_to_floor_and_plans_reservation():
    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request())
    env.run(until=150.0)
    manager.refresh_static_states()
    assert conn.rate == 64.0

    outcome = manager.move_portable(p, "B")
    assert outcome.clean
    assert conn.rate == 16.0  # back to b_min as a mobile
    # The corridor's base station predicts the home office (occupant rule).
    assert manager.base_station("B").reservation_target("p") == "A"
    assert cells["A"].reservations.targeted_for("p") == pytest.approx(16.0)


def test_handoff_to_non_neighbor_rejected():
    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    with pytest.raises(ValueError):
        manager.move_portable(p, "C")


def test_handoff_claims_its_reservation_under_pressure():
    env, cells, manager = build(capacity=40.0)
    p = Portable("p")
    manager.attach_portable(p, "B")
    conn = manager.request_connection(p, audio_request())
    # Occupant rule reserves 16 in office A for p.
    manager.base_station("B").plan_advance_reservation(p, env.now)
    assert cells["A"].reservations.targeted_for("p") == 16.0
    # Fill office A's remaining floor headroom (40 - 2 pool - 16 resv = 22).
    cells["A"].link.admit("bg", 22.0)
    outcome = manager.move_portable(p, "A")
    assert outcome.clean  # the claim made room
    assert conn.state is ConnectionState.ACTIVE


def test_handoff_drop_when_target_full():
    env, cells, manager = build(capacity=40.0)
    p = Portable("p")
    manager.attach_portable(p, "C")
    conn = manager.request_connection(p, audio_request())
    # Saturate B completely (no reservation for p there: C's base station
    # has no prediction to act on and B isn't p's office).
    cells["B"].link.admit("bg", 38.0)
    cells["B"].reservations.set_pool(0.0)  # pool floor is 5%: clamp to 2
    outcome = manager.move_portable(p, "B")
    assert not outcome.clean
    assert conn.state is ConnectionState.DROPPED
    assert manager.dropped == 1


def test_terminate_frees_and_rebalances():
    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    c1 = manager.request_connection(p, video_request())
    c2 = manager.request_connection(p, video_request())
    env.run(until=150.0)
    manager.refresh_static_states()
    rate_before = c1.rate
    manager.terminate_connection(c2)
    assert c2.state is ConnectionState.TERMINATED
    assert c1.rate >= rate_before


def test_pool_adapts_to_static_neighbor_rates():
    env, cells, manager = build(capacity=1600.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    manager.request_connection(p, video_request())
    env.run(until=150.0)
    manager.refresh_static_states()
    # p is static in A at 600 kbps; neighbor B's pool must cover one such
    # connection (clamped to the 20% maximum = 320).
    assert cells["B"].reservations.pool == pytest.approx(
        min(600.0, 0.20 * 1600.0)
    )


def test_profile_server_learns_from_handoffs():
    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    manager.move_portable(p, "B")
    manager.move_portable(p, "C")
    server = manager.server
    assert server.handoffs_recorded == 2
    assert server.cell_profile("B").predict_next("A") == "C"


def test_renegotiate_upgrades_bounds_in_place():
    env, cells, manager = build(capacity=160.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request())   # [16, 64]
    accepted = manager.renegotiate(conn, audio_request(b_min=32.0, b_max=128.0))
    assert accepted
    assert conn.b_min == 32.0
    assert conn.rate == 32.0
    assert cells["A"].link.allocations[conn.conn_id].minimum == 32.0


def test_renegotiate_refused_keeps_old_contract():
    env, cells, manager = build(capacity=40.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request())
    # 40 - 2 pool - 16 floor = 22 headroom; a 100-unit floor cannot fit.
    refused = manager.renegotiate(conn, audio_request(b_min=100.0, b_max=100.0))
    assert not refused
    assert conn.b_min == 16.0
    assert cells["A"].link.allocations[conn.conn_id].minimum == 16.0


def test_renegotiate_downgrade_frees_capacity():
    env, cells, manager = build(capacity=40.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request(b_min=32.0, b_max=32.0))
    assert manager.renegotiate(conn, audio_request(b_min=16.0, b_max=16.0))
    assert cells["A"].link.min_committed == 16.0


def test_renegotiate_requires_active_attached_connection():
    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request())
    manager.terminate_connection(conn)
    with pytest.raises(RuntimeError):
        manager.renegotiate(conn, audio_request())


def test_renegotiate_rejects_best_effort_target():
    from repro.core.qos import QoSRequest
    from repro.traffic import FlowSpec

    env, cells, manager = build()
    p = Portable("p")
    manager.attach_portable(p, "A")
    conn = manager.request_connection(p, audio_request())
    with pytest.raises(ValueError):
        manager.renegotiate(
            conn, QoSRequest(flowspec=FlowSpec(sigma=1.0, rho=5.0), bounds=None)
        )


def test_zero_demand_rebalance_matches_the_maxmin_reference():
    """Where no connection wants excess, ``rebalance`` skips the max-min
    solver; its shares (order included), ledger writes and rates must still
    equal the solver's, and each owner must still get the static test,
    whose ``on_static`` callback fires on that path too."""
    env = Environment()
    names = ("empty", "mobile", "fixed", "adaptive")
    cells = {
        name: Cell(name, capacity=400.0, cell_class=CellClass.OFFICE)
        for name in names
    }
    manager = CellularResourceManager(env, cells, static_threshold=100.0)

    def connect(pid, cell_id, *requests):
        portable = Portable(pid)
        manager.attach_portable(portable, cell_id)
        for request in requests:
            assert manager.request_connection(portable, request) is not None

    fixed = (audio_request(b_min=16.0, b_max=16.0), audio_request(b_min=32.0, b_max=32.0))
    connect("static-fixed", "fixed", *fixed)
    connect("static-adaptive", "adaptive", audio_request(), video_request())
    env.run(until=150.0)
    connect("mobile", "mobile", audio_request(), video_request())
    fired = []
    manager.statmob.on_static = lambda pid, now: fired.append(pid)

    fired_after = {}
    wanted_excess = {}
    for cell_id in names:
        link = cells[cell_id].link
        conns = [manager.connections[conn_id] for conn_id in link.allocations]
        for conn in conns:  # stale values the rebalance must overwrite
            link.set_excess(conn.conn_id, 5.0)
            conn.rate = -1.0
        shares = manager.rebalance(cell_id)
        fired_after[cell_id] = list(fired)

        problem = MaxMinProblem()
        problem.add_link(cell_id, max(0.0, link.excess_available))
        for conn in conns:
            static = manager.statmob.is_static(conn.portable_id, env.now)
            demand = conn.qos.bounds.span if static else 0.0
            problem.add_connection(conn.conn_id, [cell_id], demand)
        expected = maxmin_allocation(problem)
        assert list(shares.items()) == list(expected.items())
        for conn in conns:
            share = expected[conn.conn_id]
            assert link.allocations[conn.conn_id].excess == share
            assert conn.rate == conn.qos.bounds.clamp(conn.b_min + share)
        wanted_excess[cell_id] = sum(problem.demands.values()) > 0.0

    assert wanted_excess == {
        "empty": False, "mobile": False, "fixed": False, "adaptive": True,
    }
    assert fired_after == {
        "empty": [],
        "mobile": [],
        "fixed": ["static-fixed"],
        "adaptive": ["static-fixed", "static-adaptive"],
    }
