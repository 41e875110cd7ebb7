"""Unit tests for AdaptationProtocol internals."""

import pytest

from repro.core import AdaptationProtocol, QoSBounds, QoSRequest
from repro.des import Environment
from repro.network import ControlPacket, PacketKind, line_topology
from repro.network.routing import shortest_path
from repro.traffic import Connection, FlowSpec


def setup(switches=4, capacity=100.0):
    topo = line_topology(switches, capacity=capacity, prop_delay=0.001)
    env = Environment()
    protocol = AdaptationProtocol(env, topo)
    return topo, env, protocol


def register(topo, protocol, src, dst, cid, b_min=10.0, b_max=100.0):
    qos = QoSRequest(
        flowspec=FlowSpec(sigma=1.0, rho=b_min),
        bounds=QoSBounds(b_min, b_max),
    )
    conn = Connection(src=src, dst=dst, qos=qos, conn_id=cid)
    conn.activate(shortest_path(topo, src, dst), b_min, 0.0)
    protocol.register_connection(conn)
    return conn


def make_packet(conn_id, direction, originator, returning=False):
    meta = {"returning": True} if returning else {}
    return ControlPacket(
        kind=PacketKind.ADVERTISE,
        conn_id=conn_id,
        stamped_rate=1.0,
        direction=direction,
        originator=originator,
        global_id=(originator, 999),
        meta=meta,
    )


def test_route_next_hop_orientations():
    topo, env, protocol = setup()
    register(topo, protocol, "s0", "s3", "c")
    env.run()
    # Outbound downstream from s1 -> s2.
    assert protocol._route_next_hop("s1", make_packet("c", 1, "s1")) == "s2"
    # Outbound upstream from s1 -> s0.
    assert protocol._route_next_hop("s1", make_packet("c", -1, "s1")) == "s0"
    # Returning downstream packet heads back upstream.
    assert protocol._route_next_hop(
        "s2", make_packet("c", 1, "s1", returning=True)
    ) == "s1"
    # Ends of the route.
    assert protocol._route_next_hop("s3", make_packet("c", 1, "s1")) is None
    assert protocol._route_next_hop("s0", make_packet("c", -1, "s1")) is None
    # Node not on the route.
    assert protocol._route_next_hop("ghost", make_packet("c", 1, "s1")) is None


def test_owned_link_key():
    topo, env, protocol = setup()
    register(topo, protocol, "s0", "s2", "c")
    env.run()
    assert protocol._owned_link_key("s0", "c") == ("s0", "s1")
    assert protocol._owned_link_key("s1", "c") == ("s1", "s2")
    assert protocol._owned_link_key("s2", "c") is None  # destination


def test_rate_of_unknown_connection_raises():
    topo, env, protocol = setup()
    with pytest.raises(KeyError):
        protocol.rate_of("ghost")


def test_reference_allocation_contents():
    topo, env, protocol = setup(capacity=100.0)
    register(topo, protocol, "s0", "s1", "a", b_min=10.0, b_max=40.0)
    register(topo, protocol, "s0", "s1", "b", b_min=10.0, b_max=1000.0)
    env.run()
    reference = protocol.reference_allocation()
    assert set(reference) == {"a", "b"}
    assert reference["a"] == pytest.approx(30.0)   # capped at demand
    assert reference["b"] == pytest.approx(50.0)   # the rest


def test_stale_packets_for_gone_connection_ignored():
    topo, env, protocol = setup()
    conn = register(topo, protocol, "s0", "s3", "c")
    env.run()
    protocol.unregister_connection(conn)
    # A straggler packet must be dropped without error.
    protocol._handle("s1", make_packet("c", 1, "s0"), "s0")
    env.run()


def test_unregister_unroutes_cleanly_twice():
    topo, env, protocol = setup()
    conn = register(topo, protocol, "s0", "s2", "c")
    env.run()
    protocol.unregister_connection(conn)
    protocol.unregister_connection(conn)  # idempotent
    assert "c" not in protocol.connections
    for link in topo.path_links(["s0", "s1", "s2"]):
        assert "c" not in link.allocations


def test_sweep_terminates_quiescent():
    """After convergence, no sweeps remain scheduled and no rounds pend."""
    topo, env, protocol = setup()
    register(topo, protocol, "s0", "s3", "c1")
    register(topo, protocol, "s1", "s2", "c2")
    env.run()
    assert not protocol._rounds
    assert not protocol._probe_queue
    assert not protocol._sweep_scheduled


def test_sweep_forces_probe_when_only_a_downstream_link_disagrees():
    """Racing rounds leave c2 committed at excess 50 over (s2, s3), whose
    advertised rate is 40, while its source link (s1, s2) agrees with 50: the
    source's local check suppresses every sweep probe.  The next sweep forces
    the probe, so the run ends at the max-min point instead of re-arming
    sweeps forever."""
    topo, env, protocol = setup(switches=6, capacity=200.0)
    register(topo, protocol, "s3", "s5", "c0", b_max=60.0)
    register(topo, protocol, "s0", "s3", "c1", b_max=60.0)
    register(topo, protocol, "s1", "s3", "c2", b_max=60.0)
    register(topo, protocol, "s1", "s5", "c3", b_max=1000.0)
    register(topo, protocol, "s2", "s4", "c4", b_max=1000.0)
    env.run(until=60.0)
    assert env.peek() == float("inf")  # no sweep left pending
    for conn_id, excess in protocol.reference_allocation().items():
        assert protocol.rate_of(conn_id) == pytest.approx(
            protocol.connections[conn_id].b_min + excess, abs=1e-3
        )
    assert protocol.rate_of("c2") == pytest.approx(10.0 + 40.0)
