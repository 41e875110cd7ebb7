"""A deterministic discrete-event simulation kernel (SimPy-style).

The paper's evaluation relies on a custom event-driven simulator; this
subpackage provides that substrate for the process-based scenarios (the
floorplan simulator, Figure 5, adaptation value and the ablations): an
:class:`Environment` with a clock and event heap, generator-based
processes, and one-shot events.

Example
-------
>>> from repro.des import Environment
>>> env = Environment()
>>> log = []
>>> def clock(env, name, period):
...     while env.now < 3:
...         log.append((name, env.now))
...         yield env.timeout(period)
>>> _ = env.process(clock(env, "fast", 1))
>>> env.run(until=3)
>>> log
[('fast', 0.0), ('fast', 1.0), ('fast', 2.0)]
"""

from .engine import (
    NORMAL,
    URGENT,
    EmptySchedule,
    Environment,
    events_processed_by_core,
    events_processed_total,
)
from .events import Event, Timeout
from .process import Process

__all__ = [
    "Environment",
    "events_processed_by_core",
    "events_processed_total",
    "NORMAL",
    "URGENT",
    "EmptySchedule",
    "Event",
    "Timeout",
    "Process",
]
