"""Cross-module integration tests: the full pipeline in one place."""

import random

import pytest

from repro.core import (
    AdaptationProtocol,
    AdmissionController,
    audio_request,
    video_request,
)
from repro.des import Environment
from repro.mobility import campus_floorplan, figure4_floorplan, office_week_trace
from repro.network import Discipline, campus_backbone
from repro.network.routing import qos_route
from repro.sim import FloorplanSimulator
from repro.traffic import Connection
from repro.wireless import GilbertElliottChannel


def test_wired_admission_plus_distributed_adaptation():
    """Admit over the backbone with Table 2, then let the distributed
    protocol divide the excess — final rates must be max-min fair."""
    topo = campus_backbone(["A", "B"], wireless_capacity=1600.0)
    env = Environment()
    controller = AdmissionController(topo, Discipline.WFQ)
    protocol = AdaptationProtocol(env, topo)

    conns = []
    for i in range(3):
        conn = Connection(src=f"air:A", dst="bs:B" if i else "router",
                          qos=video_request(), conn_id=f"v{i}")
        route = qos_route(topo, conn.src, conn.dst, conn.b_min)
        result = controller.admit(conn, route, static_portable=False)
        assert result.accepted
        conn.activate(route, result.granted_rate, env.now)
        protocol.register_connection(conn)
        conns.append(conn)
    env.run()

    reference = protocol.reference_allocation()
    for conn in conns:
        assert protocol.rate_of(conn.conn_id) == pytest.approx(
            conn.b_min + reference[conn.conn_id], abs=1e-3
        )
        assert conn.qos.bounds.contains(conn.rate)


def test_channel_fade_triggers_adaptation_round():
    topo = campus_backbone(["A"], wireless_capacity=1600.0)
    env = Environment()
    protocol = AdaptationProtocol(env, topo, delta=1.0)
    conn = Connection(src="bs:A", dst="air:A", qos=video_request(), conn_id="v")
    conn.activate(["bs:A", "air:A"], 60.0, 0.0)
    protocol.register_connection(conn)
    env.run()
    assert protocol.rate_of("v") == pytest.approx(600.0)  # b_max on idle cell

    wireless = topo.link("bs:A", "air:A")
    channel = GilbertElliottChannel(random.Random(1), capacity_factor_bad=0.25)
    nominal = wireless.capacity

    def on_flip(state, now):
        wireless.capacity = nominal * channel.capacity_factor()
        protocol.notify_capacity_change(wireless.key)

    env.process(channel.run(env, on_flip))
    # Run until at least one fade has been processed.
    env.run(until=100.0)
    assert channel.transitions  # the channel did flip
    assert conn.qos.bounds.contains(protocol.rate_of("v"))


def test_profile_learning_improves_reservation_placement():
    """Replay a measured week through the live manager: after learning,
    the corridor base station reserves in the right office."""
    plan = figure4_floorplan()
    sim = FloorplanSimulator(plan, capacity=1600.0, static_threshold=1e6)
    trace = office_week_trace(seed=11)

    faculty = sim.add_portable("faculty", "C", home_office="A")
    sim.request_connection("faculty", audio_request())
    # Train the profile server with a slice of the week (cells only).
    for event in trace.events[:400]:
        sim.manager.server.report_handoff(
            event.portable, event.from_cell, event.to_cell
        )
    # Faculty walks C -> D; the base station must book office A.
    sim.move("faculty", "D")
    assert sim.manager.base_station("D").reservation_target("faculty") == "A"
    assert sim.cells["A"].reservations.targeted_for("faculty") > 0


def test_full_campus_tick_with_background_load():
    """A dense mini-day: admissions, upgrades, handoffs, drops all coexist
    without resource-accounting violations."""
    plan = campus_floorplan()
    sim = FloorplanSimulator(plan, capacity=200.0, static_threshold=50.0)
    rng = random.Random(5)

    portables = []
    for i, cell in enumerate(["office-1", "office-2", "cor-1", "cor-2", "lounge"]):
        pid = f"u{i}"
        sim.add_portable(pid, cell)
        sim.request_connection(pid, audio_request())
        portables.append(pid)

    for step in range(120):
        sim.env.run(until=sim.env.now + 30.0)
        pid = rng.choice(portables)
        current = sim.portables[pid].current_cell
        target = rng.choice(sorted(plan.neighbors(current), key=repr))
        sim.move(pid, target)
        if step % 10 == 0:
            sim.manager.refresh_static_states()
        # Invariant: no link oversubscribed at the floor level.
        for cell in sim.cells.values():
            assert cell.link.min_committed <= cell.link.capacity + 1e-6
            assert cell.link.reserved >= 0

    assert sim.stats.handoff_attempts > 0
    # Rates always within negotiated bounds.
    for conn in sim.manager.connections.values():
        if conn.qos.bounds is not None and conn.state.value == "active":
            assert conn.qos.bounds.contains(conn.rate)
