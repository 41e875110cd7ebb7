"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Dict, Generator, List, Optional, Tuple, Union

from ..obs.trace import Tracer, get_tracer
from .events import NORMAL, URGENT, Event, Timeout
from .process import Process

__all__ = [
    "Environment",
    "EmptySchedule",
    "events_processed_total",
    "events_processed_by_core",
    "NORMAL",
    "URGENT",
]

#: Process-wide count of DES events fired by completed ``run()`` calls,
#: keyed by kernel; this kernel is the only one, ``"pure"``.  Flushed from
#: each environment when its pump exits, so the hot loop itself carries no
#: counting cost; pool workers report the deltas back to the parent through
#: run telemetry (events/sec and the core in ``--stats``).
_EVENTS_BY_CORE: Dict[str, int] = {"pure": 0}


class EmptySchedule(Exception):
    """Raised when the event queue is exhausted but more time was requested."""


def events_processed_total() -> int:
    """DES events processed so far in this process (across environments)."""
    return sum(_EVENTS_BY_CORE.values())


def events_processed_by_core() -> Dict[str, int]:
    """Per-core event counts for this process (``{"pure": n}``); workers
    snapshot it before and after a replication for run telemetry."""
    return dict(_EVENTS_BY_CORE)


class Environment:
    """Execution environment for a deterministic discrete-event simulation.

    Time is a float starting at ``initial_time``.  Events scheduled at the
    same time are processed in (priority, insertion order), which makes runs
    fully reproducible.

    The schedule/step loop is the simulation's hot path: ``heapq`` functions
    and the queue are bound once per environment (locals beat global/attr
    lookups in CPython), and :meth:`run` pumps events with an inlined copy of
    :meth:`step` to drop a method call per event.

    Tracing (``repro.obs``) is wired so the disabled path stays untouched:
    enabling a tracer swaps ``self._push`` for a recording wrapper and
    :meth:`run` selects a separate traced pump, so with tracing off the
    kernel executes the exact pre-observability instruction sequence.
    """

    __slots__ = ("_now", "_queue", "_eid", "_push", "_pop", "_tracer",
                 "_tallied")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = count()
        self._tallied = 0
        self._push = heapq.heappush
        self._pop = heapq.heappop
        self._tracer: Optional[Tracer] = None
        tracer = get_tracer()
        if tracer is not None:
            self.set_tracer(tracer)

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def _flush_event_tally(self) -> None:
        """Fold this environment's new events into the process total.

        Every processed event was scheduled exactly once, so the count is
        the schedule counter minus the still-pending queue, read
        non-destructively off the :func:`itertools.count` state.  The
        totals are per-process: pool workers ship their deltas back with
        each result, so the coordinator's telemetry is identical at any
        worker count.
        """
        processed = self._eid.__reduce__()[1][0] - len(self._queue)
        _EVENTS_BY_CORE["pure"] += processed - self._tallied
        self._tallied = processed

    # -- observability ----------------------------------------------------

    @property
    def tracer(self) -> Optional[Tracer]:
        """The attached tracer (None when this environment is untraced)."""
        return self._tracer

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or with None, detach) a tracer to this environment.

        Attaching binds the tracer's sim clock to this environment (the
        most recently attached environment wins) and swaps the schedule
        path for a recording one; detaching restores the plain ``heapq``
        push, so an untraced environment pays nothing.
        """
        self._tracer = tracer
        if tracer is None:
            self._push = heapq.heappush
            return
        tracer.clock = lambda: self._now

        def _traced_push(queue, item, _push=heapq.heappush, _emit=tracer.emit):
            _push(queue, item)
            _emit(
                "des.schedule",
                t=self._now,
                at=item[0],
                prio=item[1],
                event=type(item[3]).__name__,
            )

        self._push = _traced_push

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Schedule ``event`` to be processed ``delay`` units from now."""
        self._push(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next event; raise :class:`EmptySchedule` if none."""
        try:
            self._now, _, _, event = self._pop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events remain") from None

        if self._tracer is not None:
            self._tracer.emit(
                "des.fire", t=self._now, event=type(event).__name__
            )
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            if self._tracer is not None:
                _trace_callback(self._tracer, self._now, callback)
            callback(event)

        if not event._ok and not event.defused:
            # An unhandled failed event crashes the simulation, mirroring the
            # SimPy behaviour: errors should never pass silently.
            raise event._value

    def run(self, until: Union[Event, float, None] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number (run
        until that simulation time), or an :class:`Event` (run until it fires
        and return its value).
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} lies in the past (now={self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=URGENT, delay=at - self._now)

        if until is not None:
            if until.callbacks is None:
                # Already processed: just report its value.
                return until.value
            until.callbacks.append(_stop_simulation)

        # Inlined event pump (equivalent to ``while True: self.step()``):
        # one tuple unpack, the callback fan-out, and the failure check per
        # event, with the heap pop and queue bound to locals.  The traced
        # pump is a separate loop so the common untraced path stays
        # instruction-identical to the pre-observability kernel.
        pop = self._pop
        queue = self._queue
        tracer = self._tracer
        try:
            if tracer is None:
                while True:
                    try:
                        self._now, _, _, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule(
                            "no scheduled events remain"
                        ) from None
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
            else:
                while True:
                    try:
                        self._now, _, _, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule(
                            "no scheduled events remain"
                        ) from None
                    tracer.emit(
                        "des.fire", t=self._now, event=type(event).__name__
                    )
                    callbacks, event.callbacks = event.callbacks, None
                    for callback in callbacks:
                        _trace_callback(tracer, self._now, callback)
                        callback(event)
                    if not event._ok and not event.defused:
                        raise event._value
        except _StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if until is not None and not until.triggered:
                raise RuntimeError(
                    "simulation ended before the awaited event fired"
                ) from None
            return None
        finally:
            self._flush_event_tally()


def _trace_callback(tracer: Tracer, now: float, callback: Any) -> None:
    """Emit a ``des.resume`` record when ``callback`` resumes a process.

    Only used on the traced pump; the resume target and its generator name
    are derived by introspection here so :mod:`repro.des.process` needs no
    hooks of its own (and the untraced path no extra branches).
    """
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        generator = owner._generator
        code = getattr(generator, "gi_code", None)
        name = code.co_name if code is not None else type(generator).__name__
        tracer.emit("des.resume", t=now, process=name)


class _StopSimulation(Exception):
    """Internal control-flow exception ending :meth:`Environment.run`."""

    def __init__(self, value: Any):
        super().__init__(value)
        self.value = value


def _stop_simulation(event: Event) -> None:
    if event._ok:
        raise _StopSimulation(event._value)
    event.defused = True
    raise event._value
