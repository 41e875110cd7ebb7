"""Event primitives for the discrete-event simulation kernel.

The design follows the classic SimPy model: an :class:`Event` is a one-shot
occurrence with a value; processes (generators) yield events to suspend until
they fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional

if TYPE_CHECKING:
    from .engine import Environment

__all__ = ["PENDING", "Event", "Timeout"]

#: Sentinel for "event has no value yet".
PENDING = object()

#: Priority for process-start and run-stop events (first at a timestamp).
URGENT = 0
#: Priority for ordinary events.
NORMAL = 1


class Event:
    """A one-shot occurrence on the simulation timeline.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling it on the environment's queue; once the
    environment pops it, the event is *processed* and its callbacks run.

    Events are the single hottest allocation in a simulation, so the core
    hierarchy is ``__slots__``-ed; subclasses outside this module may still
    add ad-hoc attributes (they get a ``__dict__`` automatically).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set to True by a callback that handles a failure, suppressing the
        #: "unhandled failure" crash.
        self.defused: bool = False

    # -- state ------------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise AttributeError("value of untriggered event is not ready")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception for failed events)."""
        if self._value is PENDING:
            raise AttributeError("value of untriggered event is not ready")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise ValueError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} object at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically after ``delay`` time units."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ and Environment.schedule — timeouts dominate
        # event creation in the schedule/step hot path, and each extra frame
        # is measurable.  The entry is the one schedule() would build, pushed
        # through env._push so a tracer still records it.
        self.env = env
        self.callbacks = []
        self.defused = False
        self._ok = True
        self._value = value
        env._push(env._queue, (env._now + delay, NORMAL, next(env._eid), self))
