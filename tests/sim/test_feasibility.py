"""Run-level feasibility of every cell's bandwidth ledger.

The single-hop case of Ganesan's sufficient conditions for a feasible
allocation (arXiv 0906.3782): on each cell, the guaranteed floors and the
advance reservations must fit the capacity (``min_committed + reserved <=
capacity``), and the excess handed out on top must fit what they leave
(``unassigned >= 0``).  The manager's entry points are wrapped for a whole
office week and a whole campus day, and the cells are checked after every
call.
"""

import functools
from collections import Counter

import pytest

from repro.core.manager import CellularResourceManager
from repro.sim.scenarios import run_campus_day, run_office_week

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

    def check(self, name, manager, args):
        self.calls[name] += 1
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


def _run_watched(monkeypatch, scenario):
    watch = _Watch()

    def wrap(name):
        original = getattr(CellularResourceManager, name)

        @functools.wraps(original)
        def watched(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            watch.check(name, self, args)
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
    [("office-week", 15_292), ("campus-day", 1_501)],
)
def test_floors_fit_and_rebalanced_cells_stay_within_capacity(
    watched, scenario, rebalances
):
    watch = watched(scenario)
    assert watch.calls["rebalance"] == rebalances
    assert watch.overbooked == []
    assert watch.rebalanced_over_committed == []


@pytest.mark.parametrize(
    "scenario",
    [
        "office-week",
        pytest.param(
            "campus-day",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason=(
                    "transient over-commit: unassigned < 0 on 14 (call, cell) "
                    "checks, 12 after move_portables and 2 after "
                    "refresh_static_states, worst -240 kbps, all on cor-1; a "
                    "pool or reservation raised after the cell's last "
                    "rebalance (update_pools runs after the pass's "
                    "rebalances, and an advance reservation can land in a "
                    "cell the handoff wave does not rebalance) eats excess "
                    "granted earlier, until the cell's next rebalance"
                ),
            ),
        ),
    ],
)
def test_no_cell_hands_out_bandwidth_it_has_reserved(watched, scenario):
    assert watched(scenario).over_committed == []
