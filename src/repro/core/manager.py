"""Cell-level resource-management orchestration (Figure 1).

``CellularResourceManager`` glues the pieces together the way the paper's
overview describes: connection requests run admission (with conflict
resolution squeezing excess shares), the static/mobile test gates both QoS
upgrades and advance reservations, handoffs consume advance reservations,
and the ``B_dyn`` pools adapt to static portables in neighboring cells.

This manager operates on the *wireless* hop of each cell — the scarce,
contended resource the paper's evaluation exercises.  End-to-end wired-path
admission is available separately via
:class:`~repro.core.admission.AdmissionController`.
"""

from __future__ import annotations

import math
from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..profiles.server import ProfileServer
from ..traffic.connection import Connection, ConnectionState
from .maxmin import fill_single_link
from .qos import QoSRequest
from .statmob import StaticMobileClassifier

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..wireless.basestation import BaseStation
    from ..wireless.cell import Cell
    from ..wireless.handoff import HandoffOutcome

__all__ = ["CellularResourceManager"]


class CellularResourceManager:
    """Resource management across a set of cells.

    Parameters
    ----------
    env:
        DES environment (supplies the clock).
    cells:
        The managed cells, keyed by id.
    server:
        Zone profile server recording handoffs and backing predictions.
    static_threshold:
        ``T_th`` of the static/mobile test.
    on_handoff:
        Optional extra observer for handoff outcomes.
    incremental:
        When True (default) the periodic maintenance pass
        (:meth:`refresh_static_states`) touches only cells dirtied since
        the previous pass — cells whose links, ledgers, or populations
        changed, plus cells where a portable's static timer expired —
        instead of scanning every portable and rebalancing every cell.
        The two modes are bit-identical (rebalancing an untouched cell is
        the identity, and a pool recomputed from unchanged inputs lands on
        the same float); ``incremental=False`` keeps the full-scan
        reference path for equivalence testing.
    """

    def __init__(
        self,
        env,
        cells: Dict[Hashable, Cell],
        server: Optional[ProfileServer] = None,
        static_threshold: float = 300.0,
        on_handoff: Optional[Callable[[HandoffOutcome, float], None]] = None,
        incremental: bool = True,
    ):
        from ..wireless.basestation import BaseStation
        from ..wireless.handoff import HandoffEngine

        self.env = env
        self.cells = dict(cells)
        self.server = server or ProfileServer()
        self.statmob = StaticMobileClassifier(static_threshold)
        self._extra_on_handoff = on_handoff
        self.handoffs = HandoffEngine(
            get_cell=self.get_cell, on_handoff=self._handoff_observed
        )
        self.base_stations: Dict[Hashable, BaseStation] = {
            cell_id: BaseStation(cell, self.server, self.statmob, self.get_cell)
            for cell_id, cell in self.cells.items()
        }
        for cell_id, cell in self.cells.items():
            self.server.register_cell(
                cell_id, cell.cell_class, neighbors=sorted(cell.neighbors, key=repr)
            )
        #: All connections ever admitted, by id.
        self.connections: Dict[Hashable, Connection] = {}
        self._portables: Dict[Hashable, "Portable"] = {}
        self.blocked = 0
        self.admitted = 0
        self.dropped = 0
        self._incremental = bool(incremental)
        #: Per-cell index of portables carrying at least one connection.
        #: The maintenance hot paths (static withdrawal, pool sizing) only
        #: ever need these: a connectionless portable has nothing to
        #: withdraw, zero rebalance demand, and zero pool contribution, so
        #: per-cell maintenance cost tracks the *connected* occupancy, not
        #: the population.
        self._connected: Dict[Hashable, Dict[Hashable, None]] = {
            cell_id: {} for cell_id in self.cells
        }
        #: Cells touched since the last maintenance pass (insertion-ordered
        #: so the incremental refresh processes them deterministically).
        self._dirty: Dict[Hashable, None] = {}
        #: Static-flip timers: ``(deadline, seq, pid, cell_id, since)``.
        #: Armed when a portable with connections (re)settles in a cell, so
        #: the refresh pass learns about flips in otherwise-quiet cells
        #: without scanning the population.
        self._pending_static: List[Tuple[float, int, Hashable, Hashable, float]] = []
        self._pending_seq = count()
        #: The ``(cell, since)`` residence each armed timer refers to —
        #: dedups re-arming and invalidates superseded heap entries.
        self._armed_since: Dict[Hashable, Tuple[Hashable, float]] = {}
        #: Cells whose reservations changed since their last rebalance
        #: (see :meth:`_resolve_over_committed`).
        self._reservations_changed: Dict[Hashable, None] = {}
        for cell_id, cell in self.cells.items():
            cell.reservations.on_change = partial(self._reservation_changed, cell_id)

    # -- lookups --------------------------------------------------------------

    def get_cell(self, cell_id: Hashable) -> Cell:
        return self.cells[cell_id]

    def base_station(self, cell_id: Hashable) -> BaseStation:
        return self.base_stations[cell_id]

    @property
    def portables(self) -> Dict[Hashable, "Portable"]:
        """Attached portables by id (treat as read-only).

        Library code should not iterate this population on hot paths —
        per-cell work belongs on ``cell.present`` so cost tracks cell
        occupancy, not total population (lint rule REP005 enforces this).
        """
        return self._portables

    # -- portables --------------------------------------------------------------

    def attach_portable(self, portable, cell_id: Hashable) -> None:
        """Register a portable's initial location (no handoff recorded).

        The profile server is not told: a portable's profile and context
        appear at its first reported handoff (:meth:`move_portables`).
        Until then its window would be empty, and the predictor answers a
        missing profile exactly as an empty one.
        """
        pid = portable.portable_id
        now = self.env.now
        self._portables[pid] = portable
        portable.move_to(cell_id, now)
        self.cells[cell_id].enter(pid, now)
        self.statmob.observe(pid, cell_id, now)
        self._mark_dirty(cell_id)
        self._index_portable(portable, cell_id)
        if portable.connections:
            self._arm_static_timer(portable)

    # -- connection lifecycle -------------------------------------------------------

    def request_connection(
        self, portable, qos: QoSRequest, ctype: int = 0
    ) -> Optional[Connection]:
        """Admit a new connection on the portable's current cell.

        Conflict resolution is implicit: admission tests the *floor*
        headroom (``C - b_resv - sum(b_min)``), so excess granted to ongoing
        connections never blocks a newcomer — the rebalance step afterwards
        shrinks their shares within bounds (Section 5.2, case (b)).

        Returns the ACTIVE connection, or None when blocked.
        """
        try:
            now = self.env.now
            cell = self.cells[portable.current_cell]
            conn = Connection(
                src=f"air:{cell.cell_id}",
                dst=f"bs:{cell.cell_id}",
                qos=qos,
                portable_id=portable.portable_id,
                ctype=ctype,
            )
            if qos.bounds is None:
                conn.activate([conn.src, conn.dst], 0.0, now)
                portable.attach(conn)
                self.connections[conn.conn_id] = conn
                self._index_portable(portable, cell.cell_id)
                return conn

            if qos.b_min > cell.link.excess_available + 1e-9:
                conn.block(now)
                self.blocked += 1
                return None

            cell.link.admit(conn.conn_id, qos.b_min)
            conn.activate([conn.src, conn.dst], qos.b_min, now)
            portable.attach(conn)
            self.connections[conn.conn_id] = conn
            self.admitted += 1
            self._mark_dirty(cell.cell_id)
            self._index_portable(portable, cell.cell_id)
            self._arm_static_timer(portable)
            self.rebalance(cell.cell_id)
            return conn
        finally:
            self._resolve_over_committed()

    def terminate_connection(self, conn: Connection) -> None:
        """Normal teardown; freed capacity is redistributed."""
        portable = self._portables.get(conn.portable_id)
        cell_id = portable.current_cell if portable else None
        if cell_id is not None:
            link = self.cells[cell_id].link
            if conn.conn_id in link.allocations:
                link.release(conn.conn_id)
        conn.terminate(self.env.now)
        if portable is not None and conn in portable.connections:
            portable.detach(conn)
        if cell_id is not None:
            if portable is not None:
                self._index_portable(portable, cell_id)
            self._mark_dirty(cell_id)
            self.rebalance(cell_id)

    def renegotiate(self, conn: Connection, new_qos: QoSRequest) -> bool:
        """Application-initiated adaptation (Sections 4.2 and 5.3).

        The network "essentially treats it as a new connection request":
        the new bounds are admission-tested at floor level; on success the
        connection's QoS is swapped in place (no service interruption) and
        the cell rebalances, on failure the old contract stays untouched.

        Returns True if the new contract was accepted.
        """
        portable = self._portables.get(conn.portable_id)
        if portable is None or conn.state is not ConnectionState.ACTIVE:
            raise RuntimeError("only active, attached connections renegotiate")
        if new_qos.bounds is None:
            raise ValueError("renegotiation requires bandwidth bounds")
        cell = self.cells[portable.current_cell]
        link = cell.link

        old_floor = conn.b_min if conn.qos.bounds is not None else 0.0
        extra_floor = new_qos.b_min - old_floor
        if extra_floor > 0 and extra_floor > link.excess_available + 1e-9:
            return False  # cannot grow the guarantee

        if conn.conn_id in link.allocations:
            link.release(conn.conn_id)
        link.admit(conn.conn_id, new_qos.b_min)
        conn.qos = new_qos
        conn.rate = new_qos.b_min
        self._mark_dirty(cell.cell_id)
        self.rebalance(cell.cell_id)
        return True

    # -- mobility ----------------------------------------------------------------

    def move_portable(self, portable, to_cell: Hashable) -> HandoffOutcome:
        """Hand a portable off to ``to_cell`` (must be a neighbor)."""
        return self.move_portables([(portable, to_cell)])[0]

    def move_portables(
        self, moves: Sequence[Tuple["Portable", Hashable]]
    ) -> List[HandoffOutcome]:
        """Hand off a wave of portables, rebalancing each cell once.

        Moves are applied in order with the exact per-move semantics of
        :meth:`move_portable` — withdraw the old base station's advance
        reservation, record the handoff, execute it (claiming reservations
        and cascading admission), reset the static clock, plan the next
        advance reservation — but max-min rebalancing is deferred to one
        pass per *affected* cell (in first-touch order) instead of running
        twice per portable.  This is bit-identical to sequential moves:
        rebalancing only rewrites excess shares and rates, never the
        floors, reservations, or static states that admission and planning
        read, and the final rebalance of a cell recomputes those shares
        from scratch.

        Raises on the first invalid move; earlier moves in the wave stand
        (their cells are still rebalanced before the exception propagates).
        """
        now = self.env.now
        outcomes: List[HandoffOutcome] = []
        affected: Dict[Hashable, None] = {}
        try:
            for portable, to_cell in moves:
                from_cell = portable.current_cell
                if to_cell not in self.cells[from_cell].neighbors:
                    raise ValueError(
                        f"{to_cell!r} is not a neighbor of {from_cell!r}"
                    )

                # Withdraw any reservation the old base station placed
                # elsewhere.
                self.base_stations[from_cell].withdraw_reservation(
                    portable.portable_id
                )
                self.server.report_handoff(
                    portable.portable_id, from_cell, to_cell
                )

                outcome = self.handoffs.execute(portable, to_cell, now)
                self.dropped += len(outcome.dropped)

                # Mobility resets the static clock and triggers the new
                # cell's advance-reservation planning.
                self.statmob.observe(portable.portable_id, to_cell, now)
                self.base_stations[to_cell].plan_advance_reservation(
                    portable, now
                )
                self._connected[from_cell].pop(portable.portable_id, None)
                self._index_portable(portable, to_cell)
                if portable.connections:
                    self._arm_static_timer(portable)

                affected.setdefault(from_cell, None)
                affected.setdefault(to_cell, None)
                self._mark_dirty(from_cell)
                self._mark_dirty(to_cell)
                outcomes.append(outcome)
        finally:
            for cell_id in affected:
                self.rebalance(cell_id)
            self._resolve_over_committed()
        return outcomes

    # -- adaptation ---------------------------------------------------------------------

    def rebalance(self, cell_id: Hashable) -> Dict[Hashable, float]:
        """Max-min redistribution of the cell's excess among static owners.

        Single-link instance of the Section 5.2 policy: mobile portables'
        connections are pinned at ``b_min`` (demand 0), static portables'
        connections share the leftover up to their ``b_max``.  Every
        connection crosses the cell's one link, so the shares come from
        :func:`~repro.core.maxmin.fill_single_link`, which replays
        :func:`~repro.core.maxmin.maxmin_allocation` bit for bit.

        Returns ``{conn_id: excess share}`` in link order.
        """
        now = self.env.now
        link = self.cells[cell_id].link
        # The shares below fit the cell's current reservations.
        self._reservations_changed.pop(cell_id, None)
        # Read before the static tests: their on_static callback may change
        # the ledger.
        capacity = max(0.0, link.excess_available)
        conns: List[Connection] = []
        ids: List[Hashable] = []
        demands: List[float] = []
        for conn_id in link.allocations:
            conn = self.connections.get(conn_id)
            if conn is None or conn.state is not ConnectionState.ACTIVE:
                continue
            bounds = conn.qos.bounds
            if bounds is None:
                continue
            conns.append(conn)
            ids.append(conn_id)
            demands.append(
                float(bounds.span)
                if self.statmob.is_static(conn.portable_id, now)
                else 0.0
            )
        shares = fill_single_link(float(capacity), ids, demands)
        for conn, share in zip(conns, shares):
            bounds = conn.qos.bounds
            link.set_excess(conn.conn_id, share)
            conn.rate = bounds.clamp(bounds.b_min + share)
        return dict(zip(ids, shares))

    def refresh_static_states(self) -> None:
        """Re-run the static/mobile test and react to flips.

        Newly static portables get their reservations withdrawn and their
        cells rebalanced (the QoS-upgrade path of Section 3.4.2).

        In incremental mode only *touched* cells are processed: cells
        dirtied since the previous pass plus cells where an armed static
        timer expired.  Untouched cells are provably fixpoints of the full
        scan — their statics were withdrawn at their flip tick (withdrawal
        is idempotent), rebalancing them is the identity,
        and their neighbors' pool inputs are unchanged — so both modes
        produce bit-identical state.
        """
        now = self.env.now
        if not self._incremental:
            for pid, portable in self._portables.items():  # repro-lint: ignore[REP005]
                cell_id = portable.current_cell
                if cell_id is None:
                    continue
                if self.statmob.is_static(pid, now):
                    self.base_stations[cell_id].withdraw_reservation(pid)
            for cell_id in self.cells:
                self.rebalance(cell_id)
            self.update_pools()
            self._resolve_over_committed()
            return

        touched, flipped = self._collect_touched(now)
        for pid, cell_id in flipped:
            # Every live targeted reservation stems from its portable's
            # last move, and that move armed this timer — so processing
            # flips covers every withdrawal the full scan would perform
            # (its re-runs on continuing statics are no-ops).
            self.base_stations[cell_id].withdraw_reservation(pid)
        # Withdrawals release targeted reservations held in *other* cells'
        # ledgers; their on_change dirt must rebalance this tick (the full
        # scan would have), so fold it in before clearing.
        for cell_id in self._dirty:
            touched.setdefault(cell_id, None)
        self._dirty.clear()
        for cell_id in touched:
            self.rebalance(cell_id)
        self.update_pools(touched)
        self._resolve_over_committed()

    def update_pools(self, cell_ids: Optional[Iterable[Hashable]] = None) -> None:
        """Section 5.3's ``B_dyn`` policy.

        Each cell sizes its pool to fit at least one maximum-rate connection
        of a static portable residing in a neighboring cell.  With
        ``cell_ids`` given, only those cells *and their neighbors* are
        re-sized — a cell's pool depends solely on rates of statics present
        in neighboring cells, so cells not adjacent to a touched cell keep
        their pool inputs (and hence their pools) unchanged.
        """
        now = self.env.now
        if cell_ids is None:
            targets = list(self.cells.values())
        else:
            expanded = dict.fromkeys(cell_ids)
            for cell_id in list(expanded):
                for neighbor_id in sorted(self.cells[cell_id].neighbors, key=repr):
                    expanded.setdefault(neighbor_id, None)
            targets = [self.cells[cell_id] for cell_id in expanded]
        for cell in targets:
            peak = 0.0
            for neighbor_id in sorted(cell.neighbors, key=repr):
                neighbor = self.cells[neighbor_id]
                # Connectionless portables contribute a zero rate, so the
                # connected index gives the same peak as the full roster
                # (``max`` is order-independent); the reference mode keeps
                # the original full-roster walk.
                occupants = (
                    self._connected[neighbor_id]
                    if self._incremental
                    else neighbor.present
                )
                for pid in occupants:
                    if not self.statmob.is_static(pid, now):
                        continue
                    portable = self._portables.get(pid)
                    if portable is not None:
                        peak = max(peak, portable.max_allocated_rate)
            cell.reservations.adapt_pool_for_static_neighbors(peak)

    # -- internals -----------------------------------------------------------------------

    def _mark_dirty(self, cell_id: Hashable) -> None:
        """Queue a cell for the next incremental maintenance pass."""
        self._dirty[cell_id] = None

    def _reservation_changed(self, cell_id: Hashable) -> None:
        """A cell's reservation ledger changed: dirty it and note it."""
        self._dirty[cell_id] = None
        self._reservations_changed[cell_id] = None

    def _resolve_over_committed(self) -> None:
        """Re-solve each cell whose reservations changed since its last
        rebalance and that now over-commits, then clear the notes.

        A pool or advance reservation raised after a cell's last rebalance
        eats excess granted before it, so the cell hands out bandwidth it
        has reserved (``unassigned < 0``).  Re-solving shrinks the shares to
        what the reservations leave: the single-hop case of Ganesan's
        sufficient conditions holds again when the manager call returns.
        """
        noted, self._reservations_changed = self._reservations_changed, {}
        for cell_id in noted:
            if self.cells[cell_id].link.unassigned < 0:
                self.rebalance(cell_id)

    def _index_portable(self, portable, cell_id: Hashable) -> None:
        """Sync a portable's membership in the per-cell connected index."""
        bucket = self._connected[cell_id]
        if portable.connections:
            bucket[portable.portable_id] = None
        else:
            bucket.pop(portable.portable_id, None)

    def _arm_static_timer(self, portable) -> None:
        """Schedule a static-flip check for the portable's current residence.

        Only portables with connections are armed: an unconnected portable's
        flip is invisible to the refresh pass (nothing to withdraw, zero
        rebalance demand, zero pool contribution), so the heap stays
        proportional to the *connected* population.
        """
        pid = portable.portable_id
        res = self.statmob.residence(pid)
        if res is None:
            return
        token = res  # (cell, since)
        if self._armed_since.get(pid) == token:
            return
        cell_id, since = res
        deadline = since + self.statmob.threshold
        self._armed_since[pid] = token
        heappush(
            self._pending_static,
            (deadline, next(self._pending_seq), pid, cell_id, since),
        )

    def _collect_touched(
        self, now: float
    ) -> Tuple[Dict[Hashable, None], List[Tuple[Hashable, Hashable]]]:
        """Drain dirty cells and expired static timers.

        Returns the touched-cell set (insertion-ordered) and the list of
        ``(portable_id, cell_id)`` static flips that fired, in fire order.
        """
        touched = dict.fromkeys(self._dirty)
        self._dirty.clear()
        flipped: List[Tuple[Hashable, Hashable]] = []
        heap = self._pending_static
        while heap and heap[0][0] <= now:
            deadline, _seq, pid, cell_id, since = heappop(heap)
            if self._armed_since.get(pid) != (cell_id, since):
                continue  # superseded by a later move/arm
            res = self.statmob.residence(pid)
            if res != (cell_id, since):
                del self._armed_since[pid]
                continue  # residence changed without re-arming (no connections)
            if now - since >= self.statmob.threshold:
                del self._armed_since[pid]
                if cell_id in self.cells:
                    touched[cell_id] = None
                    flipped.append((pid, cell_id))
            else:
                # Float disagreement between the precomputed deadline and
                # the classifier's subtraction: nudge the timer one ulp.
                heappush(
                    heap,
                    (
                        math.nextafter(deadline, math.inf),
                        next(self._pending_seq),
                        pid,
                        cell_id,
                        since,
                    ),
                )
        return touched, flipped

    # -- observers ----------------------------------------------------------------------

    def _handoff_observed(self, outcome: HandoffOutcome, now: float) -> None:
        if self._extra_on_handoff is not None:
            self._extra_on_handoff(outcome, now)
