"""Property-based checks of the mobility traces and routing."""

from collections import defaultdict
from hypothesis import given, settings, strategies as st

from repro.mobility import class_session_trace, figure4_floorplan, office_week_trace
from repro.network import Topology, qos_route
from repro.network.routing import NoRouteError


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_office_trace_respects_floorplan_adjacency(seed):
    """Every handoff in the generated workweek is between adjacent cells."""
    plan = figure4_floorplan()
    trace = office_week_trace(seed=seed)
    for event in trace:
        assert event.to_cell in plan.neighbors(event.from_cell), (
            f"{event.from_cell} -> {event.to_cell} not adjacent"
        )


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_office_trace_journeys_mostly_chain(seed):
    """Per portable, consecutive events mostly chain (from == previous to).

    Journeys for the same portable can overlap in time (the generator is a
    *statistical* calibration of the measured handoff streams, not a
    physically continuous movement record — see DESIGN.md), so some resets
    are expected; contiguity must still dominate.
    """
    trace = office_week_trace(seed=seed)
    last_cell = {}
    resets = chains = 0
    for event in trace:
        prev = last_cell.get(event.portable)
        if prev is not None:
            if prev == event.from_cell:
                chains += 1
            else:
                resets += 1
        last_cell[event.portable] = event.to_cell
    assert chains > 2 * resets  # journeys are mostly contiguous


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=40),
)
def test_class_trace_conserves_attendees(seed, students):
    """Every attendee enters the classroom exactly once and leaves once."""
    trace = class_session_trace(
        seed=seed, students=students, start_time=1800.0, end_time=3600.0,
        walkby_rate=0.05,
    )
    entries = defaultdict(int)
    exits = defaultdict(int)
    for event in trace:
        if event.to_cell == "class":
            entries[event.portable] += 1
        if event.from_cell == "class":
            exits[event.portable] += 1
    attendees = {p for p in entries if str(p).startswith("attendee")}
    assert len(attendees) == students
    for p in attendees:
        assert entries[p] == 1
        assert exits[p] == 1


grid_edges = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=10.0, max_value=1000.0),
    ),
    min_size=1,
    max_size=15,
)


@settings(max_examples=60, deadline=None)
@given(grid_edges, st.floats(min_value=1.0, max_value=100.0))
def test_qos_route_links_always_satisfy_floor(edges, b_min):
    """Any route qos_route returns has headroom >= b_min on every link."""
    topo = Topology()
    for a, b, capacity in edges:
        if a != b and not topo.has_link(f"n{a}", f"n{b}"):
            topo.add_duplex_link(f"n{a}", f"n{b}", capacity=capacity)
    nodes = [n.node_id for n in topo.nodes]
    if len(nodes) < 2:
        return
    src, dst = nodes[0], nodes[-1]
    try:
        route = qos_route(topo, src, dst, b_min)
    except NoRouteError:
        return
    for link in topo.path_links(route):
        assert link.excess_available >= b_min
