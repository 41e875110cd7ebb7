"""Packaged simulators.

* :class:`TwoCellSimulator` — the teletraffic model behind Figure 6: two
  identical neighboring cells, Poisson arrivals of k connection types,
  exponential holding, geometric handoff chains, pluggable new-connection
  admission policy.  Arrivals and residencies are entries on its own
  event heap; it builds no DES environment.
* :class:`FloorplanSimulator` — a full cellular system over a
  :class:`~repro.mobility.floorplan.FloorPlan`, wiring cells, base stations,
  the resource manager, and per-class reservation processes together.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import count
from operator import mul
from typing import Dict, Hashable, List, Optional, Tuple

from ..core.classifier import CellTypeLearner
from ..core.lounge import CafeteriaReservation, DefaultLoungeReservation
from ..core.manager import CellularResourceManager
from ..core.meeting import MeetingRoomReservation
from ..core.probabilistic import ProbabilisticAdmission
from ..des import Environment
from ..mobility.floorplan import FloorPlan
from ..profiles.records import BookingCalendar, CellClass
from ..stats.counters import TeletrafficStats
from ..wireless.cell import Cell
from ..wireless.portable import Portable
from .config import TwoCellConfig

__all__ = [
    "TwoCellSimulator",
    "TwoCellResult",
    "FloorplanSimulator",
    "simulate_twocell_stats",
]


def simulate_twocell_stats(config: TwoCellConfig) -> TeletrafficStats:
    """Run one two-cell replication and return its pooled counters.

    Module-level so :meth:`repro.runtime.ExperimentRunner.run_many` can
    dispatch it to worker processes (both the config and the stats are
    picklable).
    """
    return TwoCellSimulator(config).run().stats


@dataclass
class TwoCellResult:
    """Outcome of one two-cell run."""

    stats: TeletrafficStats
    config: TwoCellConfig

    @property
    def blocking_probability(self) -> float:
        return self.stats.blocking_probability

    @property
    def dropping_probability(self) -> float:
        return self.stats.dropping_probability


class TwoCellSimulator:
    """Event-driven two-cell system (Figure 3's model, Figure 6's workload).

    Occupancy is tracked as per-cell, per-type connection counts; a
    connection alternates exponential cell-residencies, handing off to the
    other cell with probability ``h`` at the end of each, terminating
    otherwise.  Handoffs that do not fit (after the admission policy's
    reservation) are dropped.

    The model needs a heap, not a process kernel: every workload event is
    an arrival or a residency end carrying its ``(cell, ctype)``, and
    nothing waits on one.  ``_queue`` holds ``(time, seq, is_arrival, cell,
    ctype)`` entries; ``seq`` is unique, so entries at equal times pop in
    insertion order, as the DES orders equal-priority timeouts.
    """

    CELLS = ("q", "s")

    def __init__(self, config: TwoCellConfig):
        self.config = config
        self.now = 0.0
        self._queue: List[Tuple[float, int, bool, str, int]] = []
        self._seq = count()
        self.rng = random.Random(config.seed)
        self.stats = TeletrafficStats()
        self.counts: Dict[str, List[int]] = {
            cell: [0] * len(config.types) for cell in self.CELLS
        }
        self._bandwidths = tuple(t.bandwidth for t in config.types)
        #: Per type ``(arrival rate, mu, handoff probability)``, read once
        #: here: ``TypeSpec.mu`` is a property.
        self._types = tuple(
            (t.arrival_rate, t.mu, t.handoff_prob) for t in config.types
        )
        self._room = config.capacity + 1e-9
        self._static_room = config.capacity - config.static_reserve + 1e-9
        self._admission: Optional[ProbabilisticAdmission] = None
        if config.policy == "probabilistic":
            self._admission = ProbabilisticAdmission(
                capacity=config.capacity,
                window=config.window,
                p_qos=config.p_qos,
                types=[
                    (t.bandwidth, t.mu, t.handoff_prob) for t in config.types
                ],
            )
        # One Poisson stream per (cell, type); a type with rate 0 has none.
        for cell in self.CELLS:
            for ctype, (rate, _, _) in enumerate(self._types):
                if rate > 0:
                    heapq.heappush(self._queue, (
                        self.now + self.rng.expovariate(rate),
                        next(self._seq), True, cell, ctype,
                    ))

    # -- admission ----------------------------------------------------------------

    def _bandwidth_used(self, cell: str) -> float:
        # A fresh sum in type order on every call: a running float total
        # would round differently and flip admissions at the capacity edge.
        return sum(map(mul, self.counts[cell], self._bandwidths))

    def _admit_new(self, cell: str, ctype: int) -> bool:
        bandwidth = self._bandwidths[ctype]
        used = self._bandwidth_used(cell)
        if used + bandwidth > self._room:
            return False  # no physical room

        if self.config.policy == "plain":
            return True
        if self.config.policy == "static":
            return used + bandwidth <= self._static_room
        other = "s" if cell == "q" else "q"
        return self._admission.admit_new(
            ctype, self.counts[cell], self.counts[other]
        )

    # -- driving ---------------------------------------------------------------------

    def run(self) -> TwoCellResult:
        """Fire every entry due before the horizon, in (time, seq) order.

        An entry at exactly the horizon stays queued, as the DES's URGENT
        stop event sorts before a timeout at the same time.  An arrival is
        admitted or blocked, draws and queues the next interarrival, then
        starts the admitted connection's first residency; a residency end
        terminates the connection or hands it off to the other cell, where
        it is dropped if it does not fit.  The RNG draw order and the
        queue's insertion order fix every counter of a run.
        """
        queue, rng, counts, stats = self._queue, self.rng, self.counts, self.stats
        types, bandwidths, room = self._types, self._bandwidths, self._room
        warmup, horizon = self.config.warmup, self.config.horizon
        push, pop, seq = heapq.heappush, heapq.heappop, self._seq
        expovariate, uniform = rng.expovariate, rng.random
        admit_new = self._admit_new
        while queue and queue[0][0] < horizon:
            now, _, is_arrival, cell, ctype = pop(queue)
            self.now = now
            rate, mu, handoff_prob = types[ctype]
            if is_arrival:
                admitted = admit_new(cell, ctype)
                if now >= warmup:
                    stats.record_request(admitted)
                push(queue, (now + expovariate(rate), next(seq), True, cell, ctype))
                if admitted:
                    counts[cell][ctype] += 1
                    push(queue, (now + expovariate(mu), next(seq), False, cell, ctype))
                continue
            counts[cell][ctype] -= 1
            counting = now >= warmup
            if uniform() >= handoff_prob:
                if counting:
                    stats.record_completion()
                continue  # natural termination
            cell = "s" if cell == "q" else "q"
            fits = sum(map(mul, counts[cell], bandwidths)) + bandwidths[ctype] <= room
            if counting:
                stats.record_handoff(attempts=1, drops=0 if fits else 1)
            if fits:
                counts[cell][ctype] += 1
                push(queue, (now + expovariate(mu), next(seq), False, cell, ctype))
        return TwoCellResult(stats=self.stats, config=self.config)


class FloorplanSimulator:
    """A full cellular system over a floorplan.

    Creates one :class:`Cell` per floorplan cell, wires neighbor relations
    and office occupants, builds a :class:`CellularResourceManager`, and
    starts the class-specific reservation processes (meeting room calendars,
    cafeteria and default lounge slot predictors).
    """

    def __init__(
        self,
        plan: FloorPlan,
        capacity: float = 1600.0,
        static_threshold: float = 300.0,
        per_user_bandwidth: float = 16.0,
        slot_duration: float = 60.0,
        seed: int = 11,
        calendars: Optional[Dict[Hashable, BookingCalendar]] = None,
        incremental: bool = True,
    ):
        plan.validate()
        self.plan = plan
        self.env = Environment()
        self.rng = random.Random(seed)
        self.stats = TeletrafficStats()

        self.cells: Dict[Hashable, Cell] = {}
        for cell_id in plan.cells:
            cell = Cell(cell_id, capacity=capacity, cell_class=plan.cell_class(cell_id))
            self.cells[cell_id] = cell
        for cell_id in plan.cells:
            for neighbor in sorted(plan.neighbors(cell_id), key=repr):
                self.cells[cell_id].add_neighbor(neighbor)
        for office, occupants in plan.occupants.items():
            self.cells[office].occupants |= set(occupants)

        self.manager = CellularResourceManager(
            self.env,
            self.cells,
            static_threshold=static_threshold,
            on_handoff=self._on_handoff,
            incremental=incremental,
        )
        #: Attached portables by id: the manager's own table, not a copy.
        self.portables: Dict[Hashable, Portable] = self.manager.portables

        # Section 6.4's learning process: cells entered as UNKNOWN run the
        # default algorithm while an online learner observes their behavior.
        self.learners: Dict[Hashable, CellTypeLearner] = {
            cell_id: CellTypeLearner(cell_id, slot_duration=slot_duration)
            for cell_id, cell in self.cells.items()
            if cell.cell_class is CellClass.UNKNOWN
        }
        if self.learners:
            self.env.process(self._learning_slots(slot_duration))

        # Class-specific reservation processes.
        self.lounge_processes: Dict[Hashable, object] = {}
        for cell_id, cell in self.cells.items():
            # Sorted so the ledger dict's insertion order (which downstream
            # reservation processes iterate when spreading bandwidth) never
            # depends on set hash order.
            neighbor_ledgers = {
                n: self.cells[n].reservations
                for n in sorted(cell.neighbors, key=repr)
            }
            profile = self.manager.server.register_cell(cell_id)
            dist = profile.handoff_distribution
            if cell.cell_class is CellClass.MEETING_ROOM:
                calendar = (calendars or {}).get(cell_id, BookingCalendar())
                process = MeetingRoomReservation(
                    self.env,
                    cell_id,
                    cell.reservations,
                    neighbor_ledgers,
                    handoff_distribution=dist,
                    per_user_bandwidth=per_user_bandwidth,
                )
                self.env.process(process.run(calendar))
                self.lounge_processes[cell_id] = process
            elif cell.cell_class is CellClass.CAFETERIA:
                process = CafeteriaReservation(
                    self.env,
                    cell_id,
                    cell.reservations,
                    neighbor_ledgers,
                    handoff_distribution=dist,
                    per_user_bandwidth=per_user_bandwidth,
                    slot_duration=slot_duration,
                    default_neighbors=[
                        n
                        for n in sorted(cell.neighbors, key=repr)
                        if plan.cell_class(n) is CellClass.DEFAULT
                    ],
                )
                self.env.process(process.run())
                self.lounge_processes[cell_id] = process
            elif cell.cell_class is CellClass.DEFAULT:
                process = DefaultLoungeReservation(
                    self.env,
                    cell_id,
                    cell.reservations,
                    neighbor_ledgers,
                    handoff_distribution=dist,
                    per_user_bandwidth=per_user_bandwidth,
                    slot_duration=slot_duration,
                )
                self.env.process(process.run())
                self.lounge_processes[cell_id] = process

    # -- population ------------------------------------------------------------------

    def add_portable(
        self, portable_id: Hashable, cell_id: Hashable, home_office: Hashable = None
    ) -> Portable:
        portable = Portable(portable_id, home_office=home_office)
        self.manager.attach_portable(portable, cell_id)
        return portable

    def request_connection(self, portable_id: Hashable, qos, ctype: int = 0):
        conn = self.manager.request_connection(
            self.portables[portable_id], qos, ctype
        )
        self.stats.record_request(conn is not None)
        return conn

    def move(self, portable_id: Hashable, to_cell: Hashable):
        return self.manager.move_portable(self.portables[portable_id], to_cell)

    def move_many(self, moves):
        """Batch a wave of ``(portable_id, to_cell)`` crossings.

        One rebalance per affected cell instead of two per portable; see
        :meth:`CellularResourceManager.move_portables`.
        """
        return self.manager.move_portables(
            [(self.portables[pid], to_cell) for pid, to_cell in moves]
        )

    # -- hooks -----------------------------------------------------------------------

    def _learning_slots(self, slot_duration: float):
        """Close learning slots periodically and adopt confident labels."""
        while True:
            yield self.env.timeout(slot_duration)
            for cell_id, learner in self.learners.items():
                learner.close_slot()
                label = learner.classify()
                if label is not CellClass.UNKNOWN:
                    self.cells[cell_id].cell_class = label
                    self.manager.server.register_cell(cell_id, label)

    def _on_handoff(self, outcome, now) -> None:
        attempts = len(outcome.moved) + len(outcome.dropped)
        if attempts:
            self.stats.record_handoff(attempts, len(outcome.dropped))
        # Feed any online learners.
        learner_in = self.learners.get(outcome.to_cell)
        if learner_in is not None:
            learner_in.observe_entry(outcome.portable_id, outcome.from_cell, now)
        learner_out = self.learners.get(outcome.from_cell)
        if learner_out is not None:
            learner_out.observe_exit(outcome.portable_id, outcome.to_cell, now)
        # Feed the lounge slot counters.
        out_proc = self.lounge_processes.get(outcome.from_cell)
        if out_proc is not None and hasattr(out_proc, "handoff_out"):
            out_proc.handoff_out()
        in_proc = self.lounge_processes.get(outcome.to_cell)
        if in_proc is not None:
            if hasattr(in_proc, "handoff_in"):
                in_proc.handoff_in()
            if hasattr(in_proc, "attendee_arrived"):
                in_proc.attendee_arrived()
        if out_proc is not None and hasattr(out_proc, "attendee_left"):
            out_proc.attendee_left()

    def run(self, until: float) -> TeletrafficStats:
        self.env.run(until=until)
        return self.stats
