"""Figure 5: meeting-room handoff activity and the three-way drop comparison.

Replays a calibrated class-session trace (lecture of 35 / laboratory of 55
students, Section 7.1) through three advance-reservation algorithms:

(a) **brute force** — every mobile in a cell reserves its requirement in
    *all* neighboring cells ([7]'s approach);
(b) **aggregation** — every mobile reserves fractionally in each neighbor,
    weighted by the cell's historical handoff distribution;
(c) **meeting room** — the Section 6.2.1 calendar-driven algorithm; no
    per-portable reservations around the room.

Workload per the paper: cell throughput 1.6 Mbps; every user opens one
connection of 16 kbps (75 %) or 64 kbps (25 %).  The 35-student class offers
~59 % load, the 55-student lab ~94 %.  Expected shape: brute force drops the
most, aggregation fewer, the meeting-room algorithm none.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.meeting import MeetingRoomReservation
from ..core.qos import QoSBounds, QoSRequest
from ..des import Environment
from ..mobility.traces import MoveTrace, class_session_trace
from ..runtime import ExperimentRunner, FailedResult, drop_failures
from ..profiles.records import BookingCalendar, CellClass, Meeting
from ..profiles.server import ProfileServer
from ..stats.timeseries import BinnedSeries
from ..traffic.connection import Connection
from ..traffic.flowspec import FlowSpec
from ..wireless.cell import Cell
from ..wireless.handoff import HandoffEngine
from ..wireless.portable import Portable
from .common import format_series, format_table

__all__ = [
    "Figure5Config",
    "Figure5Result",
    "POLICIES",
    "run_figure5",
    "run_figure5_comparison",
    "render_figure5",
]

POLICIES = ("brute_force", "aggregation", "meeting_room")


@dataclass(frozen=True)
class Figure5Config:
    """One class session's parameters."""

    students: int = 35
    class_capacity: float = 1600.0
    hall_capacity: float = 8000.0
    start: float = 1800.0
    duration: float = 3000.0
    seed: int = 5
    bw_low: float = 16.0
    bw_high: float = 64.0
    high_fraction: float = 0.25
    walkby_rate: float = 0.18
    walkby_dwell: float = 90.0
    walkby_enter_fraction: float = 0.0
    history_window: int = 150
    arrival_spread: float = 600.0
    departure_spread: float = 300.0

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def offered_load(self) -> float:
        """Mean class load when all students are inside."""
        mean_bw = (
            self.high_fraction * self.bw_high
            + (1 - self.high_fraction) * self.bw_low
        )
        return self.students * mean_bw / self.class_capacity


@dataclass
class Figure5Result:
    policy: str
    config: Figure5Config
    drops: int
    handoffs: int
    #: (a) handoffs into the class around the start.
    into_class: BinnedSeries = None
    #: (b) total handoffs just outside (into the hall) around the start.
    hall_at_start: BinnedSeries = None
    #: (c) handoffs out of the class around the end.
    out_of_class: BinnedSeries = None
    #: (d) total hall activity around the end.
    hall_at_end: BinnedSeries = None
    dropped_ids: List[Hashable] = field(default_factory=list)


def _bandwidth_quota(config: Figure5Config, rng: random.Random) -> List[float]:
    """Deterministic 75/25 bandwidth mix (shuffled), as the load figures
    quoted in the paper require the aggregate to be, not just in mean."""
    n_high = round(config.students * config.high_fraction)
    bws = [config.bw_high] * n_high + [config.bw_low] * (config.students - n_high)
    rng.shuffle(bws)
    return bws


def _make_connection(bw: float) -> Connection:
    qos = QoSRequest(
        flowspec=FlowSpec(sigma=4.0, rho=bw, l_max=1.0),
        bounds=QoSBounds(bw, bw),
    )
    return Connection(src="user", dst="net", qos=qos)


class _ReplayHarness:
    """Shared trace-replay machinery for all three policies."""

    def __init__(self, config: Figure5Config, pretrain_seed: Optional[int] = None):
        self.config = config
        self.env = Environment()
        self.rng = random.Random(config.seed * 7919 + 17)
        self.cells: Dict[Hashable, Cell] = {
            "outside": Cell("outside", capacity=1e9, cell_class=CellClass.CORRIDOR),
            "hall": Cell("hall", capacity=config.hall_capacity,
                         cell_class=CellClass.CORRIDOR),
            "class": Cell("class", capacity=config.class_capacity,
                          cell_class=CellClass.MEETING_ROOM),
        }
        self.cells["outside"].add_neighbor("hall")
        self.cells["hall"].add_neighbor("outside")
        self.cells["hall"].add_neighbor("class")
        self.cells["class"].add_neighbor("hall")
        self.engine = HandoffEngine(get_cell=self.cells.__getitem__)
        # A short history window makes the aggregate distribution track
        # the current activity regime (the class burst), as a live profile
        # server would.
        self.server = ProfileServer(cell_window=config.history_window)
        for cell_id, cell in self.cells.items():
            self.server.register_cell(
                cell_id, cell.cell_class, neighbors=sorted(cell.neighbors, key=repr)
            )
        self.portables: Dict[Hashable, Portable] = {}
        self._bw_pool = _bandwidth_quota(config, self.rng)
        self._next_student_bw = 0
        #: cells where each portable currently holds targeted reservations.
        self.placed: Dict[Hashable, List[Hashable]] = {}
        self.drops: List[Hashable] = []
        self.handoffs = 0

        if pretrain_seed is not None:
            self._pretrain(pretrain_seed)

    # -- profile pre-training --------------------------------------------------

    def _pretrain(self, seed: int) -> None:
        """Feed a previous session into the cell histories (no resources)."""
        config = self.config
        prior = class_session_trace(
            seed=seed,
            students=config.students,
            start_time=config.start,
            end_time=config.end,
            classroom="class",
            corridor="hall",
            arrival_spread=config.arrival_spread,
            departure_spread=config.departure_spread,
            walkby_rate=config.walkby_rate,
            walkby_dwell=config.walkby_dwell,
            walkby_enter_fraction=config.walkby_enter_fraction,
        )
        for event in prior:
            self.server.report_handoff(
                f"prior-{event.portable}", event.from_cell, event.to_cell
            )

    # -- portable / connection management -----------------------------------------

    def _bandwidth_for(self, portable_id: Hashable) -> float:
        pid = str(portable_id)
        if pid.startswith("attendee"):
            bw = self._bw_pool[self._next_student_bw % len(self._bw_pool)]
            self._next_student_bw += 1
            return bw
        # Walk-by traffic uses the same population mix, drawn at random.
        if self.rng.random() < self.config.high_fraction:
            return self.config.bw_high
        return self.config.bw_low

    def ensure_portable(self, portable_id: Hashable, now: float) -> Portable:
        portable = self.portables.get(portable_id)
        if portable is not None:
            return portable
        portable = Portable(portable_id)
        self.portables[portable_id] = portable
        portable.move_to("outside", now)
        self.cells["outside"].enter(portable_id, now)
        conn = _make_connection(self._bandwidth_for(portable_id))
        conn.activate(["user", "net"], conn.b_min, now)
        portable.attach(conn)
        self.cells["outside"].link.admit(conn.conn_id, conn.b_min)
        return portable

    # -- reservation plumbing ---------------------------------------------------------

    def clear_reservations(self, portable_id: Hashable) -> None:
        for cell_id in self.placed.pop(portable_id, []):
            self.cells[cell_id].reservations.release_portable(portable_id)

    def place_reservation(
        self, portable_id: Hashable, cell_id: Hashable, amount: float,
        cap: bool = False,
    ) -> float:
        """Place a targeted reservation; returns what was booked.

        The per-portable policies (brute force, aggregation) book blindly —
        the wastefulness the paper demonstrates comes precisely from
        reservations that oversubscribe a popular cell and squeeze out
        later handoffs.  ``cap=True`` limits the booking to the cell's
        current headroom instead.
        """
        cell = self.cells[cell_id]
        bookable = amount
        if cap:
            bookable = min(amount, max(0.0, cell.link.excess_available))
        if bookable <= 0:
            return 0.0
        cell.reservations.reserve_for_portable(portable_id, bookable)
        self.placed.setdefault(portable_id, []).append(cell_id)
        return bookable

    # -- replay --------------------------------------------------------------------------

    def replay(self, trace: MoveTrace, on_move) -> None:
        """Drive the trace through the DES so timers interleave correctly."""

        def driver():
            for event in trace:
                if event.time > self.env.now:
                    yield self.env.timeout(event.time - self.env.now)
                portable = self.ensure_portable(event.portable, self.env.now)
                if portable.current_cell != event.from_cell:
                    continue  # connection was dropped earlier; journey over
                self.clear_reservations(event.portable)
                previous = portable.current_cell
                outcome = self.engine.execute(portable, event.to_cell, self.env.now)
                self.handoffs += len(outcome.moved) + len(outcome.dropped)
                self.drops.extend(outcome.dropped)
                self.server.report_handoff(
                    event.portable, event.from_cell, event.to_cell
                )
                on_move(portable, previous, event.to_cell, self.env.now)
                if event.to_cell == "outside":
                    self._retire(portable)

        self.env.process(driver())
        self.env.run()

    def _retire(self, portable: Portable) -> None:
        """A portable left the observed area: free everything it held."""
        self.clear_reservations(portable.portable_id)
        outside = self.cells["outside"]
        for conn in portable.active_connections:
            if conn.conn_id in outside.link.allocations:
                outside.link.release(conn.conn_id)
            conn.terminate(self.env.now)
        outside.leave(portable.portable_id)
        self.portables.pop(portable.portable_id, None)


def _series_from_trace(config: Figure5Config, trace: MoveTrace):
    """The four Figure 5 panels, binned per minute."""
    windows = {
        "into_class": (config.start - 900, config.start + 900),
        "hall_at_start": (config.start - 900, config.start + 900),
        "out_of_class": (config.end - 300, config.end + 900),
        "hall_at_end": (config.end - 300, config.end + 900),
    }
    series = {k: BinnedSeries(60.0, origin=w[0]) for k, w in windows.items()}
    for event in trace:
        if event.to_cell == "class":
            lo, hi = windows["into_class"]
            if lo <= event.time < hi:
                series["into_class"].add(event.time)
        if event.from_cell == "class":
            lo, hi = windows["out_of_class"]
            if lo <= event.time < hi:
                series["out_of_class"].add(event.time)
        if event.to_cell == "hall":
            for key in ("hall_at_start", "hall_at_end"):
                lo, hi = windows[key]
                if lo <= event.time < hi:
                    series[key].add(event.time)
    dense = {
        k: BinnedSeriesView(series[k], *windows[k]) for k in series
    }
    return series, windows


class BinnedSeriesView:  # pragma: no cover - thin convenience wrapper
    def __init__(self, series: BinnedSeries, start: float, end: float):
        self.series = series
        self.start = start
        self.end = end

    def rows(self):
        return self.series.series(self.start, self.end)


def run_figure5(
    config: Figure5Config, policy: str, pretrain_seed: Optional[int] = 101
) -> Figure5Result:
    """Replay one session under one reservation policy."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r} (choose from {POLICIES})")

    trace = class_session_trace(
        seed=config.seed,
        students=config.students,
        start_time=config.start,
        end_time=config.end,
        classroom="class",
        corridor="hall",
        arrival_spread=config.arrival_spread,
        departure_spread=config.departure_spread,
        walkby_rate=config.walkby_rate,
        walkby_dwell=config.walkby_dwell,
        walkby_enter_fraction=config.walkby_enter_fraction,
    )
    harness = _ReplayHarness(config, pretrain_seed=pretrain_seed)

    if policy == "meeting_room":
        room = harness.cells["class"]
        process = MeetingRoomReservation(
            harness.env,
            "class",
            room.reservations,
            {"hall": harness.cells["hall"].reservations},
            handoff_distribution=lambda: harness.server.cell_profile(
                "class"
            ).handoff_distribution(),
            per_user_bandwidth=config.offered_load
            * config.class_capacity
            / config.students,
            delta_s=600.0,
            delta_a=300.0,
        )
        calendar = BookingCalendar(
            [Meeting(start=config.start, end=config.end, attendees=config.students)]
        )
        harness.env.process(process.run(calendar))

        def meeting_hooks(portable, previous, to_cell, now):
            if to_cell == "class":
                process.attendee_arrived()
            elif previous == "class":
                process.attendee_left()

        on_move = meeting_hooks
    elif policy == "brute_force":

        def brute_hooks(portable, previous, to_cell, now):
            demand = portable.demand_floor
            if demand <= 0:
                return
            for neighbor in sorted(harness.cells[to_cell].neighbors, key=repr):
                harness.place_reservation(portable.portable_id, neighbor, demand)

        on_move = brute_hooks
    else:  # aggregation

        def aggregate_hooks(portable, previous, to_cell, now):
            demand = portable.demand_floor
            if demand <= 0:
                return
            profile = harness.server.cell_profile(to_cell)
            distribution = profile.handoff_distribution()
            for neighbor in sorted(harness.cells[to_cell].neighbors, key=repr):
                fraction = distribution.get(neighbor, 0.0)
                if fraction > 0:
                    harness.place_reservation(
                        portable.portable_id, neighbor, demand * fraction
                    )

        on_move = aggregate_hooks

    harness.replay(trace, on_move)

    series, _windows = _series_from_trace(config, trace)
    return Figure5Result(
        policy=policy,
        config=config,
        drops=len(harness.drops),
        handoffs=harness.handoffs,
        into_class=series["into_class"],
        hall_at_start=series["hall_at_start"],
        out_of_class=series["out_of_class"],
        hall_at_end=series["hall_at_end"],
        dropped_ids=list(harness.drops),
    )


@dataclass(frozen=True)
class _Figure5Job:
    """Picklable (session, policy) sweep point."""

    config: Figure5Config
    policy: str
    pretrain_seed: Optional[int] = 101


def _figure5_job(job: _Figure5Job) -> Figure5Result:
    """Module-level worker for :func:`run_figure5_comparison`."""
    return run_figure5(job.config, job.policy, job.pretrain_seed)


def run_figure5_comparison(
    lecture_students: int = 35, lab_students: int = 55, seed: int = 5,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[Tuple[int, str], Figure5Result]:
    """The full Figure 5 drop table: two class sizes, three policies."""
    runner = runner if runner is not None else ExperimentRunner()
    jobs = [
        _Figure5Job(Figure5Config(students=students, seed=seed), policy)
        for students in (lecture_students, lab_students)
        for policy in POLICIES
    ]
    results = runner.run_many(_figure5_job, jobs, label="figure5")
    # Warn about (and skip) exhausted points from a partial sweep; zipping
    # against the unfiltered list keeps job/result alignment intact.
    drop_failures(results, context="figure5")
    return {
        (job.config.students, job.policy): result
        for job, result in zip(jobs, results)
        if not isinstance(result, FailedResult)
    }


def render_figure5(results: Dict[Tuple[int, str], Figure5Result]) -> str:
    """Plain-text Figure 5: the four panels plus the drop comparison."""
    sizes = sorted({students for students, _ in results})
    sample = results[(sizes[0], POLICIES[0])]
    config = sample.config
    lines = ["Figure 5: handoff activity around a class (counts per minute)"]
    for students in sizes:
        r = results[(students, POLICIES[0])]
        tag = f"{students} students"
        lines.append(
            format_series(
                f"(a) into class at start [{tag}]",
                r.into_class.series(config.start - 900, config.start + 900),
            )
        )
        lines.append(
            format_series(
                f"(b) hall activity at start [{tag}]",
                r.hall_at_start.series(config.start - 900, config.start + 900),
            )
        )
        lines.append(
            format_series(
                f"(c) out of class at end [{tag}]",
                r.out_of_class.series(r.config.end - 300, r.config.end + 900),
            )
        )
        lines.append(
            format_series(
                f"(d) hall activity at end [{tag}]",
                r.hall_at_end.series(r.config.end - 300, r.config.end + 900),
            )
        )

    rows = []
    paper = {
        (35, "brute_force"): 2,
        (35, "aggregation"): 0,
        (35, "meeting_room"): 0,
        (55, "brute_force"): 7,
        (55, "aggregation"): 4,
        (55, "meeting_room"): 0,
    }
    for students in sizes:
        cfg = results[(students, POLICIES[0])].config
        for policy in POLICIES:
            r = results[(students, policy)]
            rows.append(
                (
                    students,
                    f"{cfg.offered_load * 100:.0f}%",
                    policy,
                    r.drops,
                    paper.get((students, policy), "-"),
                )
            )
    table = format_table(
        ["class size", "offered load", "policy", "drops", "paper drops"],
        rows,
        title="Connection drops per reservation policy",
    )
    return "\n".join(lines) + "\n\n" + table
