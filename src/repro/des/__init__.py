"""A deterministic discrete-event simulation kernel (SimPy-style).

The paper's evaluation relies on a custom event-driven simulator; this
subpackage provides that substrate: an :class:`Environment` with a clock and
event heap, generator-based processes, composable events, and shared-resource
primitives.

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
    Environment,
    events_processed_by_core,
    events_processed_total,
    make_environment,
    native_available,
    native_import_error,
    resolve_des_core,
    selected_core,
    NATIVE_ENV,
    NORMAL,
    URGENT,
)
from .errors import EmptySchedule, Interrupt, SimulationError, StopProcess
from .events import AllOf, AnyOf, Condition, Event, Timeout
from .monitor import TimeSeriesProbe, periodic_sampler
from .priority import Preempted, PreemptiveResource, PriorityRequest, PriorityResource
from .process import Process
from .resources import Container, Release, Request, Resource
from .store import FilterStore, Store

__all__ = [
    "Environment",
    "events_processed_by_core",
    "events_processed_total",
    "make_environment",
    "native_available",
    "native_import_error",
    "resolve_des_core",
    "selected_core",
    "NATIVE_ENV",
    "NORMAL",
    "URGENT",
    "EmptySchedule",
    "Interrupt",
    "SimulationError",
    "StopProcess",
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Timeout",
    "Preempted",
    "PreemptiveResource",
    "PriorityRequest",
    "PriorityResource",
    "Process",
    "Container",
    "Release",
    "Request",
    "Resource",
    "FilterStore",
    "Store",
    "TimeSeriesProbe",
    "periodic_sampler",
]
