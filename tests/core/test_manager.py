"""Tests for the CellularResourceManager orchestration (Figure 1)."""

import pytest

from repro.core import CellularResourceManager, audio_request, video_request
from repro.core.maxmin import MaxMinProblem, maxmin_allocation
from repro.core.qos import QoSRequest
from repro.des import Environment
from repro.obs import RingBufferSink, Tracer, use_tracer
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


@pytest.mark.parametrize("bound", ["b_min", "b_max"])
def test_nan_bandwidth_is_refused_before_it_reaches_admission(bound):
    """A NaN floor admitted on a link makes its excess NaN, after which the
    admission test ``b_min > excess + 1e-9`` passes every request; a NaN
    ``b_max`` makes a static owner's rate NaN.  Both now fail when the
    bounds are built, and admission keeps blocking at capacity."""
    env, cells, manager = build(capacity=1600.0)
    p = Portable("p")
    manager.attach_portable(p, "A")
    with pytest.raises(ValueError):
        manager.request_connection(p, audio_request(**{bound: float("nan")}))
    floors = [
        manager.request_connection(p, audio_request(b_min=600.0, b_max=600.0))
        for _ in range(10)
    ]
    assert sum(conn is not None for conn in floors) == 2
    assert cells["A"].link.allocated == 1200.0


def test_zero_demand_rebalance_matches_the_maxmin_reference():
    """``rebalance`` fills its one link without building a ``MaxMinProblem``;
    its shares (order included), ``maxmin.round`` records, ledger writes and
    rates must equal the reference solver's.  The cells cover no wanted
    excess, static owners whose summed span exceeds the excess (one
    saturating round), unequal spans that fit (two rounds) and unequal spans
    that saturate.  Each owner must still get the static test, whose
    ``on_static`` callback fires where no excess is wanted too."""
    env = Environment()
    names = ("empty", "mobile", "fixed", "saturating", "multi-round", "adaptive")
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
    connect("static-saturating", "saturating", video_request(), video_request())
    connect("static-multi-round", "multi-round", audio_request(), audio_request(b_max=100.0))
    connect("static-adaptive", "adaptive", audio_request(), video_request())
    env.run(until=150.0)
    connect("mobile", "mobile", audio_request(), video_request())
    fired = []
    manager.statmob.on_static = lambda pid, now: fired.append(pid)

    def traced(solve, *args):
        tracer = Tracer(RingBufferSink(), kinds={"maxmin.round"})
        with use_tracer(tracer):
            result = solve(*args)
        return result, tracer.sink.records()

    fired_after = {}
    rounds = {}
    saturated = {}
    for cell_id in names:
        link = cells[cell_id].link
        conns = [manager.connections[conn_id] for conn_id in link.allocations]
        for conn in conns:  # stale values the rebalance must overwrite
            link.set_excess(conn.conn_id, 5.0)
            conn.rate = -1.0
        shares, records = traced(manager.rebalance, cell_id)
        fired_after[cell_id] = list(fired)

        capacity = max(0.0, link.excess_available)
        problem = MaxMinProblem()
        problem.add_link(cell_id, capacity)
        for conn in conns:
            static = manager.statmob.is_static(conn.portable_id, env.now)
            demand = conn.qos.bounds.span if static else 0.0
            problem.add_connection(conn.conn_id, [cell_id], demand)
        expected, expected_records = traced(maxmin_allocation, problem)
        assert list(shares.items()) == list(expected.items())
        assert records == expected_records
        for conn in conns:
            share = expected[conn.conn_id]
            assert link.allocations[conn.conn_id].excess == share
            assert conn.rate == conn.qos.bounds.clamp(conn.b_min + share)
        rounds[cell_id] = len(records)
        saturated[cell_id] = sum(expected.values()) == pytest.approx(capacity)

    assert rounds == {
        "empty": 0, "mobile": 0, "fixed": 0,
        "saturating": 1, "multi-round": 2, "adaptive": 2,
    }
    assert [cell_id for cell_id in names if saturated[cell_id]] == [
        "saturating", "adaptive",
    ]
    assert fired_after == {
        "empty": [],
        "mobile": [],
        "fixed": ["static-fixed"],
        "saturating": ["static-fixed", "static-saturating"],
        "multi-round": ["static-fixed", "static-saturating", "static-multi-round"],
        "adaptive": [
            "static-fixed", "static-saturating", "static-multi-round", "static-adaptive",
        ],
    }
