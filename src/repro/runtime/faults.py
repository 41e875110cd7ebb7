"""Deterministic fault injection for the fault-tolerant runner.

Testing retry/timeout/partial semantics against real nondeterministic
failures produces flaky tests.  :class:`FaultInjector` instead wraps a
worker function with a *scripted* fault plan: per config, fail the first
``N`` attempts with a chosen fault kind, then compute normally.  Attempt
counts are tracked as files on disk so the schedule holds across
process-pool workers (each attempt may run in a different process), and
configs are identified by their content digest
(:func:`~repro.runtime.cache.config_key`) so the plan is stable across
interpreters and ``PYTHONHASHSEED`` values.

Fault kinds
-----------
``"raise"``
    Raise :class:`InjectedFault` (a transient exception the retry
    machinery should absorb).
``"hang"``
    Sleep ``hang_seconds`` — the runner's ``timeout`` must cancel the
    attempt.  If nothing cancels it, the worker eventually wakes up and
    computes normally (a hang is a delay, not a failure).
``"crash"``
    Hard-kill the worker process via ``os._exit`` — no exception, no
    result, just a dead child.  When the injector runs in the coordinator
    process itself (serial backend) the crash is demoted to an
    :class:`InjectedFault` so the test process survives.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Mapping, Tuple, Union

from .cache import config_key

__all__ = ["FaultSpec", "FaultInjector", "InjectedFault"]

_KINDS = ("raise", "hang", "crash")


class InjectedFault(RuntimeError):
    """The scripted exception raised by ``kind="raise"`` faults (and by
    ``kind="crash"`` faults demoted in the coordinator process)."""


@dataclass(frozen=True)
class FaultSpec:
    """A scripted fault: fail the first ``attempts`` attempts of a config.

    ``hang_seconds`` only applies to ``kind="hang"``; ``exit_code`` only to
    ``kind="crash"``.
    """

    kind: str
    attempts: int = 1
    hang_seconds: float = 3600.0
    exit_code: int = 99

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if not (self.attempts >= 1):
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not (self.hang_seconds >= 0):
            raise ValueError(f"hang_seconds must be >= 0, got {self.hang_seconds}")


class FaultInjector:
    """Picklable wrapper scripting deterministic faults around a worker.

    Parameters
    ----------
    fn:
        The real module-level worker function.
    plan:
        Mapping (or iterable of pairs) from config to :class:`FaultSpec`.
        Configs are keyed by content digest, so any equal-content config
        object matches its plan entry.
    state_dir:
        Directory for the on-disk attempt counters.  Use a per-test
        temporary directory; reusing a directory resumes its counts.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        plan: Union[Mapping[Any, FaultSpec], Iterable[Tuple[Any, FaultSpec]]],
        state_dir: Union[str, Path],
    ):
        self.fn = fn
        self.state_dir = Path(state_dir)
        items = plan.items() if isinstance(plan, Mapping) else plan
        self.plan: Dict[str, FaultSpec] = {
            config_key(config): spec for config, spec in items
        }
        self._coordinator_pid = os.getpid()
        # Delegate cache namespacing to the wrapped worker so a cached
        # injected run shares entries with the real one.
        self.__module__ = getattr(fn, "__module__", type(self).__module__)
        self.__qualname__ = getattr(fn, "__qualname__", type(self).__qualname__)

    # -- attempt bookkeeping ----------------------------------------------

    def _counter_path(self, digest: str) -> Path:
        return self.state_dir / f"{digest}.attempts"

    def _next_attempt(self, digest: str) -> int:
        """Record one attempt and return its 1-based ordinal.

        One byte is appended per attempt with ``O_APPEND`` semantics, so
        concurrent workers in different processes never lose a count.
        """
        self.state_dir.mkdir(parents=True, exist_ok=True)
        path = self._counter_path(digest)
        with open(path, "ab") as fh:
            fh.write(b".")
        return path.stat().st_size

    def attempts_for(self, config: Any) -> int:
        """How many attempts this config has consumed so far."""
        try:
            return self._counter_path(config_key(config)).stat().st_size
        except OSError:
            return 0

    # -- the worker surface ------------------------------------------------

    def __call__(self, config: Any) -> Any:
        digest = config_key(config)
        attempt = self._next_attempt(digest)
        spec = self.plan.get(digest)
        if spec is not None and attempt <= spec.attempts:
            if spec.kind == "raise":
                raise InjectedFault(
                    f"scripted fault on attempt {attempt} for {config!r}"
                )
            if spec.kind == "hang":
                time.sleep(spec.hang_seconds)
            elif spec.kind == "crash":
                if os.getpid() != self._coordinator_pid:
                    os._exit(spec.exit_code)
                raise InjectedFault(
                    f"scripted crash demoted to exception in coordinator "
                    f"process (attempt {attempt}) for {config!r}"
                )
        return self.fn(config)
