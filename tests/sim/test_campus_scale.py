"""Campus-scale scenario: generator shape, determinism, and the hot-path
equivalence contracts behind the per-cell indexing rework.

The incremental maintenance path (dirty-cell refresh + connected-occupant
index + pending-static timers) and batched handoffs are *optimisations*,
not policies: every externally visible number — stats counters, connection
rates, per-cell pools, reservation ledgers, link state — must be
bit-identical to the full-scan / one-at-a-time code they replace.  These
tests pin that contract on a small campus where both paths are cheap to
run, alongside PYTHONHASHSEED invariance of the generator itself.
"""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.core import audio_request
from repro.mobility import campus_floorplan, campus_plan
from repro.profiles import ProfileServer
from repro.sim import (
    CampusScaleConfig,
    FloorplanSimulator,
    run_campus_scale,
)
from repro.traffic.connection import reset_conn_ids

from tests.sim.test_hashseed_determinism import _assert_hashseed_invariant


# -- generator shape ---------------------------------------------------------------


def test_campus_plan_cell_count_formula():
    for buildings, floors, corridor, offices in [
        (1, 1, 2, 3),
        (2, 2, 4, 8),
        (3, 4, 5, 10),
    ]:
        plan = campus_plan(
            buildings=buildings,
            floors=floors,
            corridor_cells=corridor,
            offices_per_floor=offices,
        )
        expected = (
            buildings * (floors * (corridor + offices) + 3) + (buildings - 1)
        )
        assert len(plan.cells) == expected
        plan.validate()


def test_campus_plan_is_connected():
    """Stairwells join floors and walkways join buildings: every cell must
    be reachable from every other (a partitioned campus would strand
    portables and silently skew handoff statistics)."""
    plan = campus_plan(buildings=3, floors=2, corridor_cells=3, offices_per_floor=4)
    seen = {plan.cells[0]}
    frontier = [plan.cells[0]]
    while frontier:
        cell = frontier.pop()
        for neighbor in plan.neighbors(cell):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    assert seen == set(plan.cells)


def test_campus_plan_rejects_degenerate_shapes():
    for kwargs in [
        {"buildings": 0},
        {"floors": 0},
        {"corridor_cells": 0},
        {"offices_per_floor": -1},
    ]:
        with pytest.raises(ValueError):
            campus_plan(**kwargs)


# -- determinism -------------------------------------------------------------------


def test_campus_scale_bit_identical_across_hash_seeds():
    """The generator threads string cell-ids through dicts and neighbor
    sets; a small run's full result tuple must not move with the hash
    seed (workers in a pool each have their own)."""
    _assert_hashseed_invariant(
        """
import dataclasses
from repro.sim import CampusScaleConfig, run_campus_scale

result = run_campus_scale(CampusScaleConfig(
    seed=13, buildings=2, floors=2, corridor_cells=3, offices_per_floor=4,
    portables=400, active_fraction=0.1, horizon=900.0,
))
print(repr(dataclasses.astuple(result)))
"""
    )


def test_campus_scale_reruns_identically_in_process():
    config = CampusScaleConfig(portables=300, active_fraction=0.1, horizon=600.0)
    first = run_campus_scale(config)
    second = run_campus_scale(config)
    assert dataclasses.astuple(first) == dataclasses.astuple(second)


# -- incremental == full scan ------------------------------------------------------


def test_campus_scale_incremental_matches_full_scan():
    """The headline equivalence: the scenario's compact result (stats,
    counters, float aggregates summed in fixed order) is bit-identical
    with the incremental maintenance path on and off."""
    base = dict(
        seed=29,
        buildings=2,
        floors=2,
        corridor_cells=3,
        offices_per_floor=5,
        portables=500,
        active_fraction=0.1,
        horizon=1200.0,
        static_threshold=300.0,
        maintenance_period=150.0,
    )
    fast = run_campus_scale(CampusScaleConfig(incremental=True, **base))
    slow = run_campus_scale(CampusScaleConfig(incremental=False, **base))
    assert dataclasses.astuple(fast) == dataclasses.astuple(slow)


def _state_fingerprint(sim: FloorplanSimulator):
    """Every externally visible float and counter, repr'd so the comparison
    is bit-exact, in deterministic (sorted) order."""
    cells = {}
    for cell_id, cell in sorted(sim.cells.items(), key=lambda kv: repr(kv[0])):
        cells[str(cell_id)] = (
            repr(cell.reservations.pool),
            repr(cell.reservations.targeted_total),
            repr(cell.reservations.aggregate_total),
            repr(cell.reservations.total),
            repr(cell.link.reserved),
            repr(cell.link.excess_available),
        )
    conns = {}
    for pid, portable in sorted(sim.portables.items(), key=lambda kv: repr(kv[0])):
        conns[str(pid)] = [
            (conn.conn_id, repr(conn.rate), conn.state.name)
            for conn in portable.connections
        ]
    stats = dataclasses.asdict(sim.stats)
    stats["extra"] = sorted(stats["extra"].items())
    counters = (sim.manager.blocked, sim.manager.admitted, sim.manager.dropped)
    return (cells, conns, sorted(stats.items()), counters)


def _drive(incremental: bool, batched: bool):
    """A dense little workload: attaches, admissions, batched + sequential
    waves, a termination mid-run, and maintenance ticks that cross the
    static threshold."""
    reset_conn_ids()
    plan = campus_plan(buildings=2, floors=2, corridor_cells=3, offices_per_floor=4)
    sim = FloorplanSimulator(
        plan, capacity=1600.0, static_threshold=400.0, seed=5,
        incremental=incremental,
    )
    cells = plan.cells
    for i in range(60):
        sim.add_portable(f"u{i}", cells[i % len(cells)])
    for i in range(0, 60, 4):
        sim.request_connection(f"u{i}", audio_request())

    def wave(moves):
        if batched:
            sim.move_many(moves)
        else:
            for pid, to_cell in moves:
                sim.move(pid, to_cell)

    def neighbors_of(pid):
        cell = sim.portables[pid].current_cell
        return sorted(plan.neighbors(cell), key=repr)

    sim.run(until=200.0)
    wave([(f"u{i}", neighbors_of(f"u{i}")[0]) for i in range(0, 24, 4)])
    sim.run(until=500.0)
    sim.manager.refresh_static_states()
    wave([(f"u{i}", neighbors_of(f"u{i}")[-1]) for i in range(24, 48, 4)])
    conn = sim.portables["u8"].connections[0]
    sim.manager.terminate_connection(conn)
    sim.run(until=900.0)
    sim.manager.refresh_static_states()
    wave([(f"u{i}", neighbors_of(f"u{i}")[0]) for i in range(0, 60, 12)])
    sim.run(until=1300.0)
    sim.manager.refresh_static_states()
    return _state_fingerprint(sim)


def test_incremental_full_state_matches_full_scan():
    """Beyond the compact aggregates: pools, ledgers, link state, and every
    connection's rate must agree cell-by-cell between the two paths."""
    assert _drive(incremental=True, batched=True) == _drive(
        incremental=False, batched=True
    )


def test_batched_handoffs_match_sequential():
    """``move_portables`` coalesces rebalances (one per affected cell per
    wave) but must land on the exact state the one-at-a-time path does."""
    assert _drive(incremental=True, batched=True) == _drive(
        incremental=True, batched=False
    )


def test_batched_and_incremental_compose():
    """Cross-check the remaining pairing so no combination drifts."""
    assert _drive(incremental=True, batched=False) == _drive(
        incremental=False, batched=False
    )


# -- pinned outputs ----------------------------------------------------------------
#
# The equivalence tests above compare modes with one another, so a change that
# moves every mode by the same amount would pass them.  These literals pin the
# shared answer itself.

_PINNED_CELLS = {
    "b0-cafeteria": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f0-cor-0": ("80.0", "0", "0.0", "80.0", "80.0", "1504.0"),
    "b0-f0-cor-1": ("80.0", "0", "0.0", "80.0", "80.0", "1488.0"),
    "b0-f0-cor-2": ("80.0", "0.0", "0", "80.0", "80.0", "1488.0"),
    "b0-f0-off-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f0-off-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f0-off-2": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f0-off-3": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f1-cor-0": ("80.0", "0", "0.0", "80.0", "80.0", "1504.0"),
    "b0-f1-cor-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1504.0"),
    "b0-f1-cor-2": ("80.0", "0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f1-off-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f1-off-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-f1-off-2": ("80.0", "0.0", "0.0", "80.0", "80.0", "1504.0"),
    "b0-f1-off-3": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-lounge": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b0-meeting": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-cafeteria": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f0-cor-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1488.0"),
    "b1-f0-cor-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f0-cor-2": ("80.0", "0.0", "0", "80.0", "80.0", "1504.0"),
    "b1-f0-off-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f0-off-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1504.0"),
    "b1-f0-off-2": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f0-off-3": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f1-cor-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1504.0"),
    "b1-f1-cor-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1504.0"),
    "b1-f1-cor-2": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f1-off-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f1-off-1": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f1-off-2": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-f1-off-3": ("80.0", "0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-lounge": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "b1-meeting": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
    "walk-0": ("80.0", "0.0", "0.0", "80.0", "80.0", "1520.0"),
}

#: Every portable but these carries no connection (u8's was terminated).
_PINNED_CONNECTIONS = {
    **{f"u{i}": [] for i in range(60)},
    "u0": [("conn-1", "64.0", "ACTIVE")],
    "u4": [("conn-2", "64.0", "ACTIVE")],
    "u12": [("conn-4", "64.0", "ACTIVE")],
    "u16": [("conn-5", "64.0", "ACTIVE")],
    "u20": [("conn-6", "64.0", "ACTIVE")],
    "u24": [("conn-7", "64.0", "ACTIVE")],
    "u28": [("conn-8", "64.0", "ACTIVE")],
    "u32": [("conn-9", "64.0", "ACTIVE")],
    "u36": [("conn-10", "64.0", "ACTIVE")],
    "u40": [("conn-11", "64.0", "ACTIVE")],
    "u44": [("conn-12", "64.0", "ACTIVE")],
    "u48": [("conn-13", "64.0", "ACTIVE")],
    "u52": [("conn-14", "64.0", "ACTIVE")],
    "u56": [("conn-15", "64.0", "ACTIVE")],
}

_PINNED_STATS = [
    ("admitted", 15), ("blocked", 0), ("completed", 0), ("extra", []),
    ("handoff_attempts", 17), ("handoff_drops", 0), ("new_requests", 15),
]


def test_drive_state_pinned_exactly():
    assert _drive(incremental=True, batched=True) == (
        _PINNED_CELLS, _PINNED_CONNECTIONS, _PINNED_STATS, (0, 15, 0)
    )


def test_campus_scale_result_pinned_exactly():
    """2,000 portables, 1% active, 4 buildings x 3 floors, default horizon."""
    result = run_campus_scale(CampusScaleConfig(
        portables=2_000, active_fraction=0.01, buildings=4, floors=3,
    ))
    assert dataclasses.astuple(result) == (
        (20, 20, 0, 63, 0, 0, {}), 159, 2000, 20, 63, 0, 0, 20, 320.0, 12720.0, 12976.0,
    )


def test_total_rate_counts_only_live_connections():
    """A dropped connection stays in the manager's table with its last rate;
    counting it would let the total exceed what the cells can carry."""
    config = CampusScaleConfig(portables=2_000, active_fraction=0.5, capacity=400.0)
    result = run_campus_scale(config)
    assert result.drops > 0
    assert result.total_rate <= result.cells * config.capacity


# -- idle footprint ----------------------------------------------------------------


def test_idle_portables_retain_little_memory():
    """An attached portable that never connects or moves keeps only its own
    records alive: no profile, no residence object, no second table entry,
    no connection list.  Measured on CPython 3.11 with this workload:
    1,428 B per portable with an eager ``deque(maxlen=50)`` per profile, a
    ``_Residence`` per portable and a simulator-side copy of the portable
    table; 506 B without them; 450 B once ``connections`` is the shared
    empty tuple rather than an empty list per portable; 208 B once the
    profile server first hears of a portable at its first handoff.  What
    is left is the ``Portable``, its classifier residence, its cell
    presence and the manager's table entry.

    The loop attaches with the cyclic collector off, as
    ``run_campus_scale`` does, and must leave nothing for it to find: that
    attaching makes no reference cycles is what makes the pause safe."""
    count = 20_000
    plan = campus_plan(buildings=2, floors=2, corridor_cells=3, offices_per_floor=4)
    sim = FloorplanSimulator(plan)
    placements = [(f"u{i}", plan.cells[i % len(plan.cells)]) for i in range(count)]
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for pid, cell_id in placements:
            sim.add_portable(pid, cell_id)
        unreachable = gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if was_enabled:
            gc.enable()
    assert len(sim.portables) == count
    assert unreachable == 0
    assert retained / count < 300, f"{retained / count:.0f} B per idle portable"


def test_profiles_appear_at_first_handoff():
    """Attaching tells the profile server nothing.  A portable's profile and
    its ``(previous, current)`` context appear with its first reported
    handoff, holding that one record."""
    sim = FloorplanSimulator(campus_floorplan())
    server = sim.manager.server
    for i, cell_id in enumerate(sim.plan.cells):
        sim.add_portable(f"u{i}", cell_id)
    assert server.portables == {}
    for pid in sim.portables:
        assert server.context_of(pid) == (None, None)

    mover = "u3"
    assert sim.portables[mover].current_cell == "cor-4"
    sim.move(mover, "lounge")
    assert list(server.portables) == [mover]
    assert list(server.portable_profile(mover).history) == [
        (None, "cor-4", "lounge")
    ]
    assert server.context_of(mover) == ("cor-4", "lounge")
    assert server.context_of("u0") == (None, None)


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "full-scan"])
def test_profile_registrations_equal_reported_handoffs(monkeypatch, incremental):
    """Only a reported handoff registers a portable profile: not an attach,
    and not a static flip in the maintenance pass."""
    calls = {"register_portable": 0, "report_handoff": 0}
    for name in calls:
        original = getattr(ProfileServer, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(ProfileServer, name, counted)

    sim = FloorplanSimulator(
        campus_floorplan(), static_threshold=100.0, incremental=incremental
    )
    for pid, cell_id in [("a", "cor-1"), ("b", "cor-4"), ("c", "office-1")]:
        sim.add_portable(pid, cell_id)
        sim.request_connection(pid, audio_request())
    sim.move_many([("a", "cor-2"), ("b", "cafeteria")])
    sim.run(until=150.0)
    sim.move("b", "cor-4")
    sim.run(until=200.0)
    sim.manager.refresh_static_states()

    now = sim.env.now
    assert sim.manager.statmob.is_static("a", now)  # flipped in this pass
    assert not sim.manager.statmob.is_static("b", now)
    assert calls["report_handoff"] == 3
    assert calls["register_portable"] == calls["report_handoff"]


def test_campus_scale_restores_the_collector_state(monkeypatch):
    """``run_campus_scale`` pauses the cyclic collector while its population
    attaches.  The caller's setting must hold after the run, whether the
    collector was on or off, and after an attach that raises."""
    config = CampusScaleConfig(
        portables=2_000, active_fraction=0.01, buildings=4, floors=3,
    )
    was_enabled = gc.isenabled()
    try:
        results = []
        for enabled in (True, False):
            _set_collector(enabled)
            results.append(dataclasses.astuple(run_campus_scale(config)))
            assert gc.isenabled() is enabled
        assert results[0] == results[1]

        gc.enable()
        attach = FloorplanSimulator.add_portable
        seen = []

        def add_portable(self, portable_id, cell_id, home_office=None):
            seen.append(gc.isenabled())
            if len(seen) == 1_000:
                raise RuntimeError("attach failed")
            return attach(self, portable_id, cell_id, home_office)

        monkeypatch.setattr(FloorplanSimulator, "add_portable", add_portable)
        with pytest.raises(RuntimeError, match="attach failed"):
            run_campus_scale(config)
        assert gc.isenabled()
        assert seen == [False] * 1_000
    finally:
        _set_collector(was_enabled)


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()
