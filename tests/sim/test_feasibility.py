"""Run-level feasibility of every cell's bandwidth ledger.

The single-hop case of Ganesan's sufficient conditions for a feasible
allocation (arXiv 0906.3782): on each cell, the guaranteed floors and the
advance reservations must fit the capacity (``min_committed + reserved <=
capacity``), and the excess handed out on top must fit what they leave
(``unassigned >= 0``).  The manager's entry points are wrapped for a whole
office week and a whole campus day, and the cells are checked after every
call.  Each rebalance is also replayed on the multi-link reference solver,
``maxmin_allocation``, from the same cell state.
"""

import functools
from collections import Counter

import pytest

from repro.core.manager import CellularResourceManager
from repro.core.maxmin import _EPS, MaxMinProblem, maxmin_allocation
from repro.sim.scenarios import run_campus_day, run_office_week
from repro.traffic import ConnectionState

_TOL = 1e-9

SCENARIOS = {
    "office-week": lambda: run_office_week(1996),
    "campus-day": lambda: run_campus_day(42),
}


class _Watch:
    """What the wrapped entry points saw over one scenario."""

    def __init__(self):
        self.calls = Counter()
        #: (method, cell, min_committed + reserved - capacity) above _TOL.
        self.overbooked = []
        #: (cell, unassigned) below -_TOL on the cell just rebalanced.
        self.rebalanced_over_committed = []
        #: (method, cell, unassigned) below -_TOL on any cell after an
        #: admission, a handoff wave or a maintenance pass.
        self.over_committed = []
        #: (cell, what differed) where a rebalance left other shares,
        #: excesses or rates than the reference solver gives.
        self.reference_mismatches = []
        #: Rebalances compared in which some connection wanted excess.
        self.positive_demand_rebalances = 0

    def check(self, name, manager, args, result):
        self.calls[name] += 1
        if name == "rebalance":
            self.compare_with_reference(manager, args[0], result)
        for cell_id, cell in manager.cells.items():
            link = cell.link
            over = link.min_committed + link.reserved - link.capacity
            if over > _TOL:
                self.overbooked.append((name, cell_id, over))
            unassigned = link.unassigned
            if unassigned >= -_TOL:
                continue
            if name != "rebalance":
                self.over_committed.append((name, cell_id, unassigned))
            elif cell_id == args[0]:
                self.rebalanced_over_committed.append((cell_id, unassigned))

    def compare_with_reference(self, manager, cell_id, shares):
        """Solve the cell's rebalance as a ``MaxMinProblem`` and compare."""
        link = manager.cells[cell_id].link
        now = manager.env.now
        problem = MaxMinProblem()
        problem.add_link(cell_id, max(0.0, link.excess_available))
        conns = []
        for conn_id in link.allocations:
            conn = manager.connections.get(conn_id)
            if conn is None or conn.state is not ConnectionState.ACTIVE:
                continue
            bounds = conn.qos.bounds
            if bounds is None:
                continue
            static = manager.statmob.is_static(conn.portable_id, now)
            problem.add_connection(conn_id, [cell_id], bounds.span if static else 0.0)
            conns.append(conn)
        if any(demand > _EPS for demand in problem.demands.values()):
            self.positive_demand_rebalances += 1
        expected = maxmin_allocation(problem)
        if list(shares.items()) != list(expected.items()):
            self.reference_mismatches.append((cell_id, "shares"))
        for conn in conns:
            share = expected[conn.conn_id]
            bounds = conn.qos.bounds
            if link.allocations[conn.conn_id].excess != share:
                self.reference_mismatches.append((cell_id, f"{conn.conn_id} excess"))
            if conn.rate != bounds.clamp(bounds.b_min + share):
                self.reference_mismatches.append((cell_id, f"{conn.conn_id} rate"))


def _run_watched(monkeypatch, scenario):
    watch = _Watch()

    def wrap(name):
        original = getattr(CellularResourceManager, name)

        @functools.wraps(original)
        def watched(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            watch.check(name, self, args, result)
            return result

        monkeypatch.setattr(CellularResourceManager, name, watched)

    for name in (
        "request_connection", "move_portables", "refresh_static_states", "rebalance",
    ):
        wrap(name)
    SCENARIOS[scenario]()
    return watch


@pytest.fixture(scope="module")
def watched():
    """Each scenario runs once per module, however many tests read it."""
    runs = {}

    def run(scenario):
        if scenario not in runs:
            with pytest.MonkeyPatch.context() as monkeypatch:
                runs[scenario] = _run_watched(monkeypatch, scenario)
        return runs[scenario]

    return run


@pytest.mark.parametrize(
    "scenario, rebalances",
    [("office-week", 15_292), ("campus-day", 1_509)],
)
def test_floors_fit_and_rebalanced_cells_stay_within_capacity(
    watched, scenario, rebalances
):
    watch = watched(scenario)
    assert watch.calls["rebalance"] == rebalances
    assert watch.overbooked == []
    assert watch.rebalanced_over_committed == []


@pytest.mark.parametrize(
    "scenario, compared",
    [("office-week", 5_065), ("campus-day", 863)],
)
def test_every_rebalance_equals_the_maxmin_reference(watched, scenario, compared):
    """The single-link fill gives the reference's shares, in link order, and
    writes the matching excesses and rates.  The campus day's fills include
    two-round and saturating ones."""
    watch = watched(scenario)
    assert watch.reference_mismatches == []
    assert watch.positive_demand_rebalances == compared


@pytest.mark.parametrize("scenario", ["office-week", "campus-day"])
def test_no_cell_hands_out_bandwidth_it_has_reserved(watched, scenario):
    """A pool or advance reservation raised after a cell's last rebalance
    would eat excess granted before it; the manager re-solves such a cell
    before the call returns.  Without that, the campus day over-commits
    cor-1 after 14 calls (worst -240 kbps)."""
    assert watched(scenario).over_committed == []
