"""Generator-backed simulation processes.

A *process* wraps a Python generator that yields :class:`~repro.des.events.Event`
instances.  Yielding an event suspends the process until the event fires; the
event's value is sent back into the generator (or its exception thrown in).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

if TYPE_CHECKING:
    from .engine import Environment

from .events import URGENT, Event

__all__ = ["Process", "Initialize"]


class Initialize(Event):
    """Immediate event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A running process.  Also an event that fires when the process ends.

    The process's value is the generator's return value (``StopIteration``
    value).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True until the wrapped generator has exited."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the state of ``event``."""
        env = self.env
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                env.schedule(self)
                return

            if not isinstance(next_event, Event):
                error = RuntimeError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = error
                env.schedule(self)
                return

            if next_event.callbacks is not None:
                # Event has not fired yet: subscribe and suspend.
                next_event.callbacks.append(self._resume)
                return

            # Event already processed: loop and resume immediately with its
            # value (common for already-fired events and immediate resources).
            event = next_event
