"""Distributed event-driven bandwidth adaptation (Section 5.3.1).

The paper adapts Charny/Clark/Jain's explicit-rate allocation to mobile
networks: instead of periodic probing, switches initiate adaptation rounds
*on events* (handoffs, capacity changes).  A round for connection ``j``:

1. The initiating switch stamps its advertised rate into two ADVERTISE
   packets and floods them up- and downstream along ``j``'s route.
2. Every switch en route clamps the stamped rate to its own advertised rate,
   updates its recorded rate for ``j``, and maintains the bottleneck set
   ``M(l)`` (connections that consider link ``l`` their bottleneck).
3. Source and destination reflect the packets back to the initiator.
4. After four round trips (sufficient for convergence, per [8]) the
   initiator commits the minimum of the two last stamped rates with UPDATE
   packets along the route.

The refinement (the paper's main protocol contribution) restricts *new*
round initiations: a capacity increase triggers rounds only for connections
in ``M(l)``; a decrease only for connections whose recorded rate exceeds the
new advertised rate.  `benchmarks/bench_ablation_mlist.py` measures the
message savings versus indiscriminate flooding.

Two engineering additions stabilize the event-driven variant (racing rounds
can otherwise commit stale path minima — scenarios found by the
property-based tests):

* **Quiescence sweeps** — whenever a committed rate changes, a sweep is
  scheduled for the next quiet moment; it emulates the original algorithm's
  *periodic source probing* by re-probing (serially) every connection whose
  committed rate disagrees with the minimum advertised rate along its path,
  repeating until a sweep changes nothing.  The "preliminary approach"
  (``use_bottleneck_sets=False``) re-probes indiscriminately instead — the
  overhead gap the M(l) ablation quantifies.  A sweep whose probes are all
  suppressed by their source link's own view (the disagreement sits on a
  link further along the path) would find the same frozen state forever;
  the next sweep then *forces* its probes past that local check.
* **Committed-vs-transient separation** — in-flight ADVERTISE stamps update
  the per-link ``recorded`` view (used by the advertised-rate formula) but
  only UPDATE-committed values participate in change detection, so probe
  transients cannot re-trigger sweeps forever.

All rates handled here are **excess** rates (beyond ``b_min``); converting to
absolute rates is the caller's job via the connection's QoS bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..des import Environment
from ..network.signaling import ControlPacket, PacketKind, SignalingNetwork
from ..network.topology import Topology
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..traffic.connection import Connection
from .maxmin import MaxMinProblem, maxmin_allocation

__all__ = ["LinkRateState", "AdaptationProtocol", "compute_advertised_rate"]

_EPS = 1e-9


def compute_advertised_rate(
    capacity: float, recorded: Dict[Hashable, float], mu_prev: float
) -> float:
    """The advertised-rate computation of Section 5.3.1.

    Connections with recorded rates at or below the advertised rate are
    *restricted* (set R) — they are bottlenecked elsewhere or at their
    demand, so the link's leftover is split equally among the others::

        mu = b'_av                          if N == 0
        mu = b'_av - sum(R) + max(R)        if N == N_R
        mu = (b'_av - sum(R)) / (N - N_R)   otherwise

    Per the paper, after the first calculation, connections that became
    unrestricted are unmarked and the rate is recalculated once more (the
    second re-calculation is provably sufficient).
    """
    n = len(recorded)
    if n == 0:
        return max(0.0, capacity)

    def calc(restricted: Set[Hashable]) -> float:
        # Summation order is fixed: float addition over a hash-ordered set
        # would round differently between PYTHONHASHSEED values, breaking
        # the serial == parallel bit-identity contract.
        ordered = sorted(restricted, key=repr)
        n_r = len(ordered)
        sum_r = sum(recorded[c] for c in ordered)
        if n_r == n:
            return capacity - sum_r + max(recorded[c] for c in ordered)
        return (capacity - sum_r) / (n - n_r)

    restricted = {c for c, r in recorded.items() if r <= mu_prev + _EPS}
    mu = calc(restricted)
    # Iterate the marking to a fixed point (the Section 5.2 recursive
    # definition).  The paper notes one re-calculation suffices on the
    # ADVERTISE path; starting from an arbitrary cached mu_prev can need a
    # couple more, and iterating removes marking hysteresis entirely.
    for _ in range(n + 1):
        remarked = {c for c, r in recorded.items() if r <= mu + _EPS}
        if remarked == restricted:
            break
        restricted = remarked
        mu = calc(restricted)
    return max(0.0, mu)


class LinkRateState:
    """Rate-allocation state a switch keeps for one of its outgoing links."""

    def __init__(self, link):
        self.link = link
        #: Last seen stamped (excess) rate per connection on this link.
        self.recorded: Dict[Hashable, float] = {}
        #: The set ``M(l)`` of connections bottlenecked by this link.
        self.bottleneck_set: Set[Hashable] = set()
        self.mu: float = max(0.0, link.excess_available)
        #: Last UPDATE-committed rate per connection (dirty detection uses
        #: this, not the transient in-flight stamps in ``recorded``).
        self.committed: Dict[Hashable, float] = {}

    def set_recorded(self, conn_id: Hashable, rate: float) -> None:
        self.recorded[conn_id] = rate

    def advertised(self) -> float:
        """Recompute (and cache) the advertised rate."""
        self.mu = compute_advertised_rate(
            max(0.0, self.link.excess_available), self.recorded, self.mu
        )
        return self.mu

    def add_connection(self, conn_id: Hashable, initial_rate: float) -> None:
        self.set_recorded(conn_id, initial_rate)

    def remove_connection(self, conn_id: Hashable) -> None:
        self.recorded.pop(conn_id, None)
        self.committed.pop(conn_id, None)
        self.bottleneck_set.discard(conn_id)


@dataclass
class _Round:
    """In-flight state of one adaptation round at its initiator."""

    conn_id: Hashable
    link_key: Tuple[Hashable, Hashable]
    initiator: Hashable
    #: Recorded rate before the round and the target at initiation — used
    #: to detect futile rounds (no change) and suppress identical
    #: re-attempts within one epoch.
    before: float = 0.0
    context: float = 0.0
    trip: int = 1
    stamps: Dict[int, Optional[float]] = field(
        default_factory=lambda: {1: None, -1: None}
    )

    def complete(self) -> bool:
        return all(v is not None for v in self.stamps.values())


class AdaptationProtocol:
    """Runs the distributed adaptation over a topology + signaling plane.

    Parameters
    ----------
    env, topo:
        Simulation environment and the topology whose links are managed.
    signaling:
        Optional custom :class:`SignalingNetwork` (shared message counters).
    delta:
        The adaptation threshold of eqn. (2): upgrades trigger only when
        free capacity exceeds the outstanding shares by more than ``delta``,
        and rounds are suppressed when they would move a rate by less.
    max_trips:
        Round trips per adaptation round (the paper proves 4 suffices).
    use_bottleneck_sets:
        The refinement switch: True = initiate only for ``M(l)`` /
        above-advertised connections; False = flood rounds for every
        connection on the link (the "preliminary approach", kept for the
        overhead ablation).
    """

    def __init__(
        self,
        env: Environment,
        topo: Topology,
        signaling: Optional[SignalingNetwork] = None,
        delta: float = 0.01,
        max_trips: int = 4,
        use_bottleneck_sets: bool = True,
    ):
        self.env = env
        self.topo = topo
        self.signaling = signaling or SignalingNetwork(env, topo)
        self.delta = delta
        self.max_trips = max_trips
        self.use_bottleneck_sets = use_bottleneck_sets

        self.link_states: Dict[Tuple[Hashable, Hashable], LinkRateState] = {
            link.key: LinkRateState(link) for link in topo.links
        }
        self.routes: Dict[Hashable, List[Hashable]] = {}
        self.connections: Dict[Hashable, Connection] = {}
        self.demands: Dict[Hashable, float] = {}

        self._seq = count(1)
        self._rounds: Dict[tuple, _Round] = {}
        self._inflight: Set[Tuple[Hashable, Hashable]] = set()  # (node, conn)
        #: Convergence sweeps: whenever committed rates change, a sweep is
        #: scheduled for the next quiescent moment; it re-evaluates every
        #: link and initiates any rounds still needed.  Sweeps repeat until
        #: one completes without changing anything — the fixed point.
        self._sweep_scheduled = False
        self._dirty = False
        self.sweep_delay = 0.05
        #: ``rounds_initiated`` when the running sweep began: a sweep that
        #: ends with no round launched since made no progress.
        self._sweep_rounds = 0
        #: The running sweep's probes skip ``_initiate``'s local-view check
        #: (set after a sweep that made no progress).
        self._force_probes = False
        #: Serialized sweep probes: (node, link_key, conn) waiting their turn.
        self._probe_queue: List[Tuple[Hashable, Tuple[Hashable, Hashable], Hashable]] = []
        self.rounds_initiated = 0
        self.safety_cap = 400  # rounds per connection; a diagnostic backstop
        self._round_counts: Dict[Hashable, int] = {}

        for node in topo.nodes:
            node_id = node.node_id
            self.signaling.register(
                node_id, lambda pkt, frm, _n=node_id: self._handle(_n, pkt, frm)
            )

    # -- membership ------------------------------------------------------------

    def register_connection(
        self, conn: Connection, demand: Optional[float] = None, kickoff: bool = True
    ) -> None:
        """Start managing ``conn`` (route must be set).

        ``demand`` is the adaptable excess span; defaults to
        ``b_max - b_min``.  Mobile-portable connections should register with
        ``demand=0`` (they are pinned at the floor).
        """
        if not conn.route:
            raise ValueError(f"connection {conn.conn_id!r} has no route")
        if demand is None:
            demand = conn.qos.bounds.span if conn.qos.bounds else 0.0
        self.routes[conn.conn_id] = list(conn.route)
        self.connections[conn.conn_id] = conn
        self.demands[conn.conn_id] = demand

        initial = max(0.0, conn.rate - conn.b_min) if conn.qos.bounds else 0.0
        initial = min(initial, demand)
        for link in self.topo.path_links(conn.route):
            self.link_states[link.key].add_connection(conn.conn_id, initial)
            if conn.conn_id not in link.allocations:
                link.admit(conn.conn_id, conn.b_min, excess=initial)
            else:
                link.set_excess(conn.conn_id, initial)

        if kickoff and demand > _EPS:
            source = conn.route[0]
            key = (source, conn.route[1])
            self._initiate(source, key, conn.conn_id)
        # A newcomer's floor shrinks everyone's headroom: let affected
        # links re-advertise, then verify with a sweep.
        for link in self.topo.path_links(conn.route):
            self._capacity_changed(link.key, exclude=conn.conn_id)
        self._dirty = True
        self._schedule_sweep()

    def unregister_connection(self, conn: Connection) -> None:
        """Stop managing ``conn`` and release its link shares."""
        route = self.routes.pop(conn.conn_id, None)
        self.connections.pop(conn.conn_id, None)
        self.demands.pop(conn.conn_id, None)
        if not route:
            return
        for link in self.topo.path_links(route):
            self.link_states[link.key].remove_connection(conn.conn_id)
            if conn.conn_id in link.allocations:
                link.release(conn.conn_id)
        for link in self.topo.path_links(route):
            self._capacity_changed(link.key)
        self._dirty = True
        self._schedule_sweep()

    # -- event entry points --------------------------------------------------------

    def notify_capacity_change(self, link_key: Tuple[Hashable, Hashable]) -> None:
        """Tell the protocol that ``b'_av`` changed on a link (eqn. 2)."""
        self._capacity_changed(link_key)
        # The immediate responses above race each other; always follow an
        # external event with (at least) one verification sweep.
        self._dirty = True
        self._schedule_sweep()

    def rate_of(self, conn_id: Hashable) -> float:
        """Converged absolute rate: ``b_min`` + min excess along the route."""
        conn = self.connections[conn_id]
        route = self.routes[conn_id]
        excess = min(
            link.allocations[conn_id].excess
            for link in self.topo.path_links(route)
            if conn_id in link.allocations
        )
        return conn.b_min + excess

    def reference_allocation(self) -> Dict[Hashable, float]:
        """Centralized max-min solution of the current instance (oracle)."""
        problem = MaxMinProblem()
        for link in self.topo.links:
            problem.add_link(link.key, max(0.0, link.excess_available))
        for conn_id, route in self.routes.items():
            problem.add_connection(
                conn_id,
                [link.key for link in self.topo.path_links(route)],
                self.demands[conn_id],
            )
        return maxmin_allocation(problem)

    # -- internals -----------------------------------------------------------------

    def _capacity_changed(
        self, link_key: Tuple[Hashable, Hashable], exclude: Hashable = None
    ) -> None:
        state = self.link_states[link_key]
        if not state.recorded:
            state.advertised()
            return
        outstanding = sum(state.recorded.values())
        avail = max(0.0, state.link.excess_available)
        mu = state.advertised()

        over = {c for c, r in state.recorded.items() if r > mu + _EPS}
        # Consistent marking: a connection recorded below mu that is not at
        # its demand may be mis-marked as "restricted" after racing rounds;
        # re-advertising it either upgrades it or confirms the remote
        # bottleneck (the _initiate target-guard stops repeats).
        under = {
            c
            for c, r in state.recorded.items()
            if r < mu - self.delta
            and r < self.demands.get(c, 0.0) - _EPS
        }

        if over:
            candidates = set(over)
            candidates |= (
                state.bottleneck_set
                if self.use_bottleneck_sets
                else set(state.recorded)
            )
        elif avail >= outstanding + self.delta:
            if self.use_bottleneck_sets:
                if not state.bottleneck_set and not under:
                    return  # eqn (2): M(l) empty — nothing wants more here
                candidates = set(state.bottleneck_set) | under
            else:
                candidates = set(state.recorded)
        elif under:
            candidates = under
        else:
            return

        node = link_key[0]
        for conn_id in sorted(candidates, key=repr):
            if conn_id == exclude:
                continue
            self._initiate(node, link_key, conn_id)

    def _schedule_sweep(self) -> None:
        if self._sweep_scheduled:
            return
        self._sweep_scheduled = True
        from ..des import Event

        event = Event(self.env)
        event._ok = True
        event._value = None
        event.callbacks.append(lambda _ev: self._run_sweep())
        self.env.schedule(event, delay=self.sweep_delay)

    def _run_sweep(self) -> None:
        self._sweep_scheduled = False
        if self._rounds:
            # Rounds still in flight: their completions re-arm the sweep.
            self._schedule_sweep()
            return
        if not self._dirty:
            return
        self._dirty = False
        self._sweep_rounds = self.rounds_initiated
        # Per-connection probes, emulating the periodic source control
        # packets of the original Charny algorithm.  Probes are SERIALIZED
        # (one round at a time, drained via round completions): concurrent
        # probes clamp each other's transient stamps and can settle on
        # stale values.  A remotely-bottlenecked connection sees
        # candidate == rate and stays quiet, so sweeps terminate.
        for conn_id, route in list(self.routes.items()):
            if self.demands.get(conn_id, 0.0) <= _EPS:
                continue
            links = self.topo.path_links(route)
            if not links:
                continue
            rate = min(
                link.allocations[conn_id].excess
                for link in links
                if conn_id in link.allocations
            )
            candidate = min(
                min(
                    self.link_states[link.key].advertised()
                    for link in links
                ),
                self.demands[conn_id],
            )
            if self.use_bottleneck_sets or self._force_probes:
                # Refinement (and any forced sweep): probe only when the
                # path-global view says the committed rate is off.
                if abs(candidate - rate) > self.delta:
                    self._probe_queue.append(
                        (route[0], (route[0], route[1]), conn_id)
                    )
            else:
                # Preliminary approach: probe indiscriminately (remotely
                # bottlenecked connections get re-probed even though the
                # answer cannot change) — the overhead the refinement cuts.
                self._probe_queue.append(
                    (route[0], (route[0], route[1]), conn_id)
                )
        self._drain_probe_queue()

    def _drain_probe_queue(self) -> None:
        """Launch the next queued sweep probe once the wire is quiet."""
        while self._probe_queue and not self._rounds:
            node, link_key, conn_id = self._probe_queue.pop(0)
            if conn_id not in self.routes:
                continue
            self._initiate(node, link_key, conn_id, force=self._force_probes)
        if not self._probe_queue and not self._rounds:
            # Sweep finished: if the settled state still disagrees with the
            # links' (now final) advertised rates, run another sweep.
            forced, self._force_probes = self._force_probes, False
            if self._converged_view_mismatch():
                stalled = self.rounds_initiated == self._sweep_rounds
                if stalled and forced:
                    # Even forced probes could not launch (safety cap): no
                    # sweep can change anything until an external event.
                    return
                self._force_probes = stalled
                self._dirty = True
                self._schedule_sweep()

    def _converged_view_mismatch(self) -> bool:
        """True if some connection's rate is off its path-min advertised rate."""
        for conn_id, route in self.routes.items():
            if self.demands.get(conn_id, 0.0) <= _EPS:
                continue
            links = self.topo.path_links(route)
            if not links:
                continue
            rate = min(
                link.allocations[conn_id].excess
                for link in links
                if conn_id in link.allocations
            )
            candidate = min(
                min(self.link_states[link.key].advertised() for link in links),
                self.demands[conn_id],
            )
            if abs(candidate - rate) > self.delta:
                return True
        return False

    def _initiate(
        self,
        node: Hashable,
        link_key: Tuple[Hashable, Hashable],
        conn_id: Hashable,
        force: bool = False,
    ) -> None:
        if conn_id not in self.routes:
            return
        if (node, conn_id) in self._inflight:
            return
        state = self.link_states[link_key]
        mu = state.advertised()
        target = min(mu, self.demands[conn_id])
        recorded = state.recorded.get(conn_id, 0.0)
        if (
            not force
            and abs(target - recorded) <= self.delta
            and self._round_counts.get(conn_id)
        ):
            return  # already within delta of this link's view
        if self._round_counts.get(conn_id, 0) >= self.safety_cap:
            return  # diagnostic backstop against pathological churn

        self._round_counts[conn_id] = self._round_counts.get(conn_id, 0) + 1
        self.rounds_initiated += 1
        self._inflight.add((node, conn_id))

        tracer = get_tracer()
        if tracer is not None:
            tracer.emit(
                "adaptation.round.start",
                t=self.env.now,
                conn=str(conn_id),
                link=[str(k) for k in link_key],
                target=target,
                recorded=recorded,
                restricted=sorted(
                    str(c)
                    for c, r in state.recorded.items()
                    if r <= mu + _EPS
                ),
            )
        get_registry().counter("adaptation_rounds_total").inc()

        gid = (node, next(self._seq))
        rnd = _Round(
            conn_id=conn_id,
            link_key=link_key,
            initiator=node,
            before=recorded,
            context=target,
        )
        self._rounds[gid] = rnd
        # The desired rate travels in the packet; the local recorded value
        # is only committed when the round concludes (writing the transient
        # target here would churn other initiators' repeat-round guards).
        self._launch_trip(rnd, gid, target)

    def _launch_trip(self, rnd: _Round, gid: tuple, stamp: float) -> None:
        for direction in (1, -1):
            packet = ControlPacket(
                kind=PacketKind.ADVERTISE,
                conn_id=rnd.conn_id,
                stamped_rate=stamp,
                direction=direction,
                originator=rnd.initiator,
                global_id=gid,
                trip=rnd.trip,
            )
            self._forward(rnd.initiator, packet)

    def _route_next_hop(
        self, node: Hashable, packet: ControlPacket
    ) -> Optional[Hashable]:
        route = self.routes.get(packet.conn_id)
        if route is None or node not in route:
            return None
        index = route.index(node)
        returning = packet.meta.get("returning", False)
        step = packet.direction * (-1 if returning else 1)
        target = index + step
        if 0 <= target < len(route):
            return route[target]
        return None

    def _forward(self, node: Hashable, packet: ControlPacket) -> None:
        nxt = self._route_next_hop(node, packet)
        if nxt is None:
            # End of the route in this travel orientation.
            if packet.kind is PacketKind.ADVERTISE and not packet.meta.get(
                "returning"
            ):
                reflected = packet.copy_with(meta={"returning": True})
                self._forward(node, reflected)
            elif packet.meta.get("returning") and node == packet.originator:
                self._reflection_arrived(packet)
            return
        if packet.meta.get("returning") and node == packet.originator:
            self._reflection_arrived(packet)
            return
        self.signaling.send(node, nxt, packet)

    def _handle(self, node: Hashable, packet: ControlPacket, from_node) -> None:
        if packet.conn_id not in self.routes:
            return  # connection vanished mid-flight
        if packet.meta.get("returning") and node == packet.originator:
            self._reflection_arrived(packet)
            return
        if packet.kind is PacketKind.ADVERTISE:
            self._process_advertise(node, packet)
        else:
            self._process_update(node, packet)

    def _owned_link_key(self, node: Hashable, conn_id: Hashable):
        route = self.routes[conn_id]
        index = route.index(node)
        if index + 1 < len(route):
            return (route[index], route[index + 1])
        return None

    def _process_advertise(self, node: Hashable, packet: ControlPacket) -> None:
        key = self._owned_link_key(node, packet.conn_id)
        if key is not None and node != packet.originator:
            state = self.link_states[key]
            mu = state.advertised()
            old = state.recorded.get(packet.conn_id)
            stamp = packet.stamped_rate
            if stamp >= mu - _EPS:
                stamp = mu
                state.bottleneck_set.add(packet.conn_id)
            else:
                state.bottleneck_set.discard(packet.conn_id)
            stamp = min(stamp, self.demands[packet.conn_id])
            packet.stamped_rate = stamp
            state.set_recorded(packet.conn_id, stamp)
            state.advertised()
            tracer = get_tracer()
            if tracer is not None:
                tracer.emit(
                    "adaptation.advertise",
                    t=self.env.now,
                    node=str(node),
                    conn=str(packet.conn_id),
                    stamp=stamp,
                    mu=mu,
                    bottlenecked=packet.conn_id in state.bottleneck_set,
                )

        self._forward(node, packet)

    def _process_update(self, node: Hashable, packet: ControlPacket) -> None:
        key = self._owned_link_key(node, packet.conn_id)
        if key is not None:
            self._apply_rate(key, packet.conn_id, packet.stamped_rate)
        self._forward(node, packet)

    def _apply_rate(self, link_key, conn_id: Hashable, rate: float) -> None:
        state = self.link_states[link_key]
        previous = state.committed.get(conn_id)
        changed = previous is None or abs(previous - rate) > _EPS
        state.committed[conn_id] = rate
        state.set_recorded(conn_id, rate)
        link = state.link
        if conn_id in link.allocations:
            link.set_excess(conn_id, rate)
        mu = state.advertised()
        if mu <= rate + _EPS:
            state.bottleneck_set.add(conn_id)
        else:
            state.bottleneck_set.discard(conn_id)
        if changed:
            # Something moved: schedule a convergence sweep for the next
            # quiescent moment (racing rounds can commit stale minima; the
            # sweep re-evaluates every link until nothing changes).
            self._dirty = True
            self._schedule_sweep()

    def _reflection_arrived(self, packet: ControlPacket) -> None:
        rnd = self._rounds.get(packet.global_id)
        if rnd is None:
            return
        rnd.stamps[packet.direction] = packet.stamped_rate
        if not rnd.complete():
            return

        final = min(v for v in rnd.stamps.values() if v is not None)
        if rnd.trip < self.max_trips:
            rnd.trip += 1
            rnd.stamps = {1: None, -1: None}
            state = self.link_states[rnd.link_key]
            mu = state.advertised()
            # Stamps are monotone *within* a round (min-fold with the trip's
            # result): rounds settle fast and commit a consistent path
            # minimum.  Upward recovery after transient clamps happens
            # *across* rounds — the quiescence sweep re-initiates with a
            # fresh advertised rate.
            stamp = min(final, mu, self.demands[rnd.conn_id])
            self._launch_trip(rnd, packet.global_id, stamp)
            return

        # Round complete: commit with UPDATE packets in both directions.
        del self._rounds[packet.global_id]
        self._inflight.discard((rnd.initiator, rnd.conn_id))
        tracer = get_tracer()
        if tracer is not None:
            tracer.emit(
                "adaptation.round.commit",
                t=self.env.now,
                conn=str(rnd.conn_id),
                link=[str(k) for k in rnd.link_key],
                rate=final,
                trips=rnd.trip,
                rounds_total=self.rounds_initiated,
            )
        self._apply_rate(rnd.link_key, rnd.conn_id, final)
        conn = self.connections.get(rnd.conn_id)
        if conn is not None and conn.qos.bounds is not None:
            conn.rate = conn.qos.bounds.clamp(conn.b_min + final)
        for direction in (1, -1):
            update = ControlPacket(
                kind=PacketKind.UPDATE,
                conn_id=rnd.conn_id,
                stamped_rate=final,
                direction=direction,
                originator=rnd.initiator,
                global_id=(rnd.initiator, next(self._seq)),
            )
            self._forward(rnd.initiator, update)
        # Serialized sweep probes resume once this round is done.
        self._drain_probe_queue()
