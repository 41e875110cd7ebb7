"""``ExperimentRunner``: dispatch independent simulation configs.

The runner owns *how* a sweep executes (serial loop or a process pool),
never *what* it computes: workers receive a module-level function plus one
picklable config and return one picklable result.  Submission order is
preserved, worker exceptions surface as :class:`WorkerError` with the
failing config attached, and an optional
:class:`~repro.runtime.cache.ResultCache` short-circuits configs that were
already simulated.  Each replication reaches the cache the moment it
settles, so a sweep whose process dies part-way leaves every finished
replication on disk and a re-run with the same cache recomputes only the
gap.

Fault tolerance (opt-in, mirroring the paper's graceful-degradation theme:
connections adapt inside ``[b_min, b_max]`` instead of failing hard, and so
should the harness that sweeps them):

* ``max_retries`` / ``retry_backoff`` — each failing config is re-attempted
  with exponential backoff (``retry_backoff * 2**(attempt-1)`` seconds
  between attempts) before it is declared exhausted;
* ``timeout`` — a per-replication wall-clock budget.  On the supervised
  process backend a hung worker is *cancelled* (its process terminated) and
  the config rescheduled; on the serial backend a ``SIGALRM`` timer
  interrupts the attempt in place;
* ``partial=True`` — exhausted configs come back as a typed
  :class:`FailedResult` sentinel in their submission slot instead of
  aborting the whole sweep with :class:`WorkerError`.

When any fault-tolerance option is active a ``jobs > 1`` runner switches
from the chunked ``pool.map`` fast path to a supervised
process-per-attempt scheme: each attempt runs in its own child with a
private pipe, so crashes are attributed to the exact config, hangs are
cancelled at the deadline, and retries reschedule without poisoning a
shared pool.  Successful results remain bit-identical to a fault-free
serial run — workers are pure functions of their config.

Results cross process boundaries by plain pickling.  When a tracer or a
real metrics registry is installed on the coordinator, each replication
runs under a private worker-side registry + ring-buffer tracer; the compact
snapshots ride back with the results and are merged deterministically in
replication-index order, so ``--trace`` / ``--metrics-json`` produce
identical output at any ``--jobs N``.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import multiprocessing.process
import os
import signal
import threading
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from heapq import heappop, heappush
from multiprocessing.connection import Connection, wait as _connection_wait
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..des.engine import events_processed_by_core, events_processed_total
from ..obs.metrics import MetricsRegistry, NullRegistry, get_registry, set_registry
from ..obs.profiling import merge_profile_stats
from ..obs.spans import (
    KIND_SWEEP,
    Span,
    SpanLedger,
    get_span_collector,
    sweep_span_id,
)
from ..obs.telemetry import RunTelemetry
from ..obs.trace import RingBufferSink, Tracer, get_tracer, replay_records, set_tracer

if TYPE_CHECKING:
    from .cache import ResultCache

__all__ = [
    "JOBS_ENV",
    "ExperimentRunner",
    "FailedResult",
    "ObsRequest",
    "ObsSnapshot",
    "ReplicationTimeout",
    "register_replication_reset",
    "WorkerCrash",
    "WorkerError",
    "drop_failures",
    "failed",
    "resolve_jobs",
    "succeeded",
]

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Union[int, str, None] = None) -> int:
    """Resolve a worker count from an argument or ``REPRO_JOBS``.

    Accepts a positive int, ``0`` or ``"auto"`` for all cores, or ``None``
    to fall back to the environment (default 1).
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        jobs = raw if raw else 1
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(jobs)
        except ValueError:
            raise ValueError(
                f"invalid job count {jobs!r}: expected a positive integer, "
                f"0, or 'auto'"
            ) from None
    jobs = int(jobs)
    if jobs == 0:
        return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"job count must be >= 0, got {jobs}")
    return jobs


class WorkerError(RuntimeError):
    """A sweep point failed; carries the config that provoked it."""

    def __init__(self, config: Any, index: int, cause: BaseException,
                 worker_traceback: str = "", attempts: int = 1):
        plural = "s" if attempts != 1 else ""
        super().__init__(
            f"sweep config #{index} ({config!r}) failed after {attempts} "
            f"attempt{plural}: {cause!r}"
        )
        self.config = config
        self.index = index
        self.cause = cause
        self.worker_traceback = worker_traceback
        self.attempts = attempts


class ReplicationTimeout(RuntimeError):
    """One replication attempt exceeded the per-attempt wall-clock budget."""


class WorkerCrash(RuntimeError):
    """A worker process died without reporting a result (hard crash)."""


@dataclass(frozen=True)
class FailedResult:
    """Typed sentinel for an exhausted sweep point under ``partial=True``.

    Occupies the failing config's submission slot in ``run_many``'s result
    list so positional merges can detect and skip it.  ``error`` is the
    ``repr`` of the last exception; ``traceback`` the worker-side traceback
    text of the last attempt (empty for cancellations and crashes, which
    have no Python frame to report).
    """

    config: Any
    index: int
    attempts: int
    error: str
    traceback: str = ""


def failed(results: Sequence[Any]) -> List[FailedResult]:
    """The :class:`FailedResult` entries of a ``partial=True`` sweep."""
    return [r for r in results if isinstance(r, FailedResult)]


def succeeded(results: Sequence[Any]) -> List[Any]:
    """A sweep's results with any :class:`FailedResult` entries removed."""
    return [r for r in results if not isinstance(r, FailedResult)]


def drop_failures(results: Sequence[Any], context: str = "sweep") -> List[Any]:
    """Filter :class:`FailedResult` entries, warning when any are dropped.

    Experiment drivers route their ``run_many`` output through this so a
    ``partial=True`` sweep degrades to "merge what survived" with an
    explicit, visible warning instead of crashing on the sentinel.
    """
    bad = failed(results)
    if bad:
        indices = [f.index for f in bad]
        warnings.warn(
            f"{context}: dropping {len(bad)} failed sweep point(s) at "
            f"indices {indices}; last error: {bad[-1].error}",
            RuntimeWarning,
            stacklevel=2,
        )
    return succeeded(results)


#: Worker ring-buffer capacity (records per replication).  Sized so a full
#: paper-scale replication fits; overflow is still counted and surfaced
#: through ``telemetry.trace_dropped`` rather than lost silently.
TRACE_CAPACITY = 1 << 20


@dataclass(frozen=True)
class ObsRequest:
    """Picklable instruction telling a worker what to observe.

    The coordinator builds one per batch from its *installed* collectors
    (:func:`~repro.obs.trace.get_tracer` /
    :func:`~repro.obs.metrics.get_registry`) and ships it inside every
    task payload; workers honor it by running the replication under
    private collectors and returning an :class:`ObsSnapshot`.
    """

    metrics: bool = False
    trace: bool = False
    trace_kinds: Optional[frozenset] = None
    #: Run the replication under cProfile; the raw stats dict rides back
    #: in the snapshot and is folded deterministically by the coordinator.
    profile: bool = False


@dataclass
class ObsSnapshot:
    """What one replication observed — compact, picklable, mergeable.

    ``metrics`` is a :meth:`~repro.obs.metrics.MetricsRegistry.to_dict`
    snapshot; ``records`` the replication's trace records in emission
    order; ``dropped`` counts ring-buffer overflow.
    """

    metrics: Optional[Dict[str, Any]] = None
    records: Optional[List[Dict[str, Any]]] = None
    dropped: int = 0
    #: Raw ``cProfile`` stats dict for the replication, when profiling.
    profile: Optional[Dict[Any, Any]] = None


#: Callables invoked before every replication attempt.  Modules that keep
#: process-global counters (auto-assigned ids and the like) register a
#: reset here, so a replication's auto-ids are a function of the
#: replication alone — never of what the hosting process happened to run
#: first.  Without this, serial and pooled runs of the same sweep emit
#: different ids into traces (a worker that ran 3 prior replications has
#: advanced its counters; a fresh one has not).
_REPLICATION_RESETS: List[Callable[[], None]] = []


def register_replication_reset(reset: Callable[[], None]) -> Callable[[], None]:
    """Register ``reset`` to run at the start of every replication attempt.

    Idempotent per callable; usable as a decorator.  Returns ``reset``.
    """
    if reset not in _REPLICATION_RESETS:
        _REPLICATION_RESETS.append(reset)
    return reset


def _observed_call(
    fn: Callable[[Any], Any], config: Any, obs: Optional[ObsRequest]
) -> Tuple[Any, Optional[ObsSnapshot]]:
    """Run ``fn(config)`` under per-replication observability collectors.

    Installs a fresh registry and/or ring-buffer tracer for the duration
    of the call and restores the previous collectors afterwards — the
    serial backend uses this too, so a ``--jobs 1`` run takes the *same*
    capture-then-merge path as a pool run (the byte-identity guarantee).
    With ``obs=None`` this is a plain call (replication resets still run).
    """
    for reset in _REPLICATION_RESETS:
        reset()
    if obs is None:
        return fn(config), None
    registry = MetricsRegistry() if obs.metrics else None
    sink = RingBufferSink(capacity=TRACE_CAPACITY) if obs.trace else None
    profiler = cProfile.Profile() if obs.profile else None
    prev_registry = set_registry(registry) if registry is not None else None
    prev_tracer = (
        set_tracer(Tracer(sink, kinds=obs.trace_kinds))
        if sink is not None
        else None
    )
    try:
        if profiler is not None:
            result = profiler.runcall(fn, config)
        else:
            result = fn(config)
    finally:
        if registry is not None:
            set_registry(prev_registry)
        if sink is not None:
            set_tracer(prev_tracer)
    profile_stats: Optional[Dict[Any, Any]] = None
    if profiler is not None:
        profiler.create_stats()
        profile_stats = profiler.stats  # type: ignore[attr-defined]
    return result, ObsSnapshot(
        metrics=registry.to_dict() if registry is not None else None,
        records=sink.records() if sink is not None else None,
        dropped=sink.dropped if sink is not None else 0,
        profile=profile_stats,
    )


def _des_core_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Per-core DES event counts accrued since the ``before`` snapshot
    (:func:`~repro.des.engine.events_processed_by_core`); zero-event cores
    are omitted so telemetry sees only the kernel(s) that actually ran."""
    after = events_processed_by_core()
    return {
        core: count - before.get(core, 0)
        for core, count in after.items()
        if count - before.get(core, 0) > 0
    }


#: (fn, config, obs request) — one pool task.
_Payload = Tuple[Callable[[Any], Any], Any, Optional[ObsRequest]]

#: (ok, value-or-(exc, tb), worker seconds, DES events, DES events by
#: core, obs snapshot) — one attempt.
_Message = Tuple[bool, Any, float, int, Dict[str, int], Optional[ObsSnapshot]]


def _call(payload: _Payload) -> _Message:
    """Process-pool trampoline: never raises, so the config context is
    attached on the coordinator side rather than lost in the pool.  The
    attempt's wall seconds and DES event count are measured here — inside
    the worker — so per-replication telemetry survives the process
    boundary.  The observability snapshot rides back alongside the
    result."""
    fn, config, obs = payload
    started = time.perf_counter()
    events_before = events_processed_total()
    cores_before = events_processed_by_core()
    try:
        result, snapshot = _observed_call(fn, config, obs)
        elapsed = time.perf_counter() - started
        events = events_processed_total() - events_before
        cores = _des_core_delta(cores_before)
    except Exception as exc:  # noqa: BLE001 - re-raised with context
        return (
            False,
            (exc, traceback.format_exc()),
            time.perf_counter() - started,
            0,
            {},
            None,
        )
    return True, result, elapsed, events, cores, snapshot


def _supervised_child(
    conn: Connection,
    fn: Callable[[Any], Any],
    config: Any,
    obs: Optional[ObsRequest] = None,
) -> None:
    """Entry point of a supervised worker process: one attempt, one config."""
    started = time.perf_counter()
    events_before = events_processed_total()
    cores_before = events_processed_by_core()
    try:
        result, snapshot = _observed_call(fn, config, obs)
        elapsed = time.perf_counter() - started
        events = events_processed_total() - events_before
        cores = _des_core_delta(cores_before)
        message: _Message = (True, result, elapsed, events, cores, snapshot)
    except BaseException as exc:  # noqa: BLE001 - serialized to coordinator
        message = (
            False,
            (exc, traceback.format_exc()),
            time.perf_counter() - started,
            0,
            {},
            None,
        )
    try:
        conn.send(message)
    except Exception:
        # Unpicklable result or exception: degrade to a picklable failure so
        # the coordinator records an error instead of inferring a crash.
        detail = "result" if message[0] else "exception"
        tb = "" if message[0] else message[1][1]
        try:
            conn.send((
                False,
                (RuntimeError(f"unpicklable {detail} from worker"), tb),
                message[2],
                0,
                {},
                None,
            ))
        except Exception:
            pass  # pipe gone; the coordinator will classify this as a crash
    finally:
        conn.close()


def _alarm_available() -> bool:
    """SIGALRM-based timeouts need a main-thread POSIX coordinator."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _reap(proc: multiprocessing.process.BaseProcess) -> None:
    """Terminate (then kill) a worker process and collect it."""
    if proc.is_alive():
        proc.terminate()
        proc.join(1.0)
        if proc.is_alive():
            proc.kill()
    proc.join()


class ExperimentRunner:
    """Executes batches of independent simulation configs.

    ``jobs == 1`` runs in-process; ``jobs > 1`` runs a process pool, or
    the supervised process-per-attempt scheme when a fault-tolerance
    option is set.

    Parameters
    ----------
    jobs:
        Worker count (see :func:`resolve_jobs`); 1 means in-process serial.
    cache:
        Optional :class:`~repro.runtime.cache.ResultCache`; hits skip
        simulation entirely.  Each successful replication is written as
        it settles; failed sweep points are never cached.
    max_retries:
        Failed attempts allowed per config beyond the first (default 0:
        one attempt, fail hard — the pre-fault-tolerance behavior).
    retry_backoff:
        Base backoff in seconds; attempt ``k`` (1-based) waits
        ``retry_backoff * 2**(k-1)`` seconds before retrying.
    timeout:
        Per-attempt wall-clock budget in seconds.  Supervised process
        workers are terminated and rescheduled at the deadline; serial
        attempts are interrupted via ``SIGALRM`` where available.
    partial:
        When True, a config that exhausts its attempts yields a
        :class:`FailedResult` in its result slot instead of raising
        :class:`WorkerError`, so one bad point cannot abort a sweep.
    profile:
        Run every replication under :mod:`cProfile` *in the worker*; the
        raw stats ride back with each observation snapshot and fold into
        :attr:`profile_stats` in submission order, so the aggregate is
        deterministic at any ``--jobs``
        (``python -m repro trace profile`` renders it).
    sleep, clock:
        Injectable time sources (tests replace them to assert backoff
        schedules without real sleeping).
    """

    def __init__(
        self,
        jobs: Union[int, str, None] = None,
        cache: Optional["ResultCache"] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.0,
        timeout: Optional[float] = None,
        partial: bool = False,
        profile: bool = False,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.jobs = resolve_jobs(jobs)
        if int(max_retries) != max_retries or max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, got {max_retries!r}")
        if not (retry_backoff >= 0):
            raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff!r}")
        if timeout is not None and not (timeout > 0):
            raise ValueError(f"timeout must be > 0 seconds, got {timeout!r}")
        self.cache = cache
        self.max_retries = int(max_retries)
        self.retry_backoff = float(retry_backoff)
        self.timeout = timeout
        self.partial = bool(partial)
        self.profile = bool(profile)
        self._sleep = sleep
        self._clock = clock
        self._span_ledger: Optional[SpanLedger] = None
        #: Merged raw cProfile stats across this runner's batches
        #: (``{(file, line, func): (cc, nc, tt, ct, callers)}``).
        self._profile_stats: Dict[Any, Any] = {}
        #: Aggregated accounting across this runner's ``run_many`` batches
        #: (``--stats`` / ``--stats-json`` read this).
        self.telemetry = RunTelemetry()

    @property
    def profile_stats(self) -> Dict[Any, Any]:
        """Merged raw cProfile stats (see :mod:`repro.obs.profiling`)."""
        return self._profile_stats

    @property
    def fault_tolerant(self) -> bool:
        """True when any retry/timeout/partial option routes execution
        through the supervised paths."""
        return self.max_retries > 0 or self.timeout is not None or self.partial

    def run_many(
        self,
        fn: Callable[[Any], Any],
        configs: Sequence[Any],
        label: Optional[str] = None,
    ) -> List[Any]:
        """Run ``fn(config)`` for every config, results in submission order.

        ``fn`` must be a module-level callable and each config picklable
        when ``jobs > 1``.  Under ``partial=True`` the returned list may
        contain :class:`FailedResult` sentinels at the submission indices
        of exhausted configs.  ``label`` names the batch's sweep span
        (experiment drivers pass their figure/table name).
        """
        configs = list(configs)
        results: List[Any] = [None] * len(configs)
        pending = list(range(len(configs)))
        started = time.perf_counter()
        self.telemetry.batches += 1

        if self.cache is not None:
            missing: List[int] = []
            for i in pending:
                hit, value = self.cache.get(fn, configs[i])
                if hit:
                    results[i] = value
                    self.telemetry.cache_hits += 1
                else:
                    missing.append(i)
                    self.telemetry.cache_misses += 1
            pending = missing

        # One sweep span roots this batch's replication spans.  The id
        # derives from the batch counter alone (placement-independent).
        collector = get_span_collector()
        sweep_id = sweep_span_id(self.telemetry.batches - 1)
        sweep_status = "ok"
        try:
            if pending:
                obs = self._obs_request()
                computed = self._execute(
                    fn, [configs[i] for i in pending], pending, obs, sweep_id
                )
                for i, (value, _snapshot) in zip(pending, computed):
                    results[i] = value
                if obs is not None:
                    self._merge_observations(pending, computed)
        except BaseException:
            sweep_status = "failed"
            raise
        finally:
            elapsed = time.perf_counter() - started
            self.telemetry.elapsed += elapsed
            if collector is not None:
                collector.emit(
                    Span(
                        span_id=sweep_id,
                        parent_id=None,
                        name=label or "sweep",
                        kind=KIND_SWEEP,
                        status=sweep_status,
                        start=started,
                        duration=elapsed,
                        attrs={"configs": len(configs), "label": label},
                    )
                )
        return results

    # -- observability plumbing -------------------------------------------

    def _obs_request(self) -> Optional[ObsRequest]:
        """The per-batch observation request, or None when nothing is on.

        Mirrors whatever the coordinator has installed *right now*: a
        tracer means workers trace (honoring its kind filter), a non-null
        registry means workers meter.
        """
        tracer = get_tracer()
        registry = get_registry()
        want_metrics = not isinstance(registry, NullRegistry)
        want_trace = tracer is not None
        want_profile = self.profile
        if not (want_metrics or want_trace or want_profile):
            return None
        kinds = (
            frozenset(tracer.kinds)
            if want_trace and tracer.kinds is not None
            else None
        )
        return ObsRequest(
            metrics=want_metrics,
            trace=want_trace,
            trace_kinds=kinds,
            profile=want_profile,
        )

    def _merge_observations(
        self,
        indices: List[int],
        computed: List[Tuple[Any, Optional[ObsSnapshot]]],
    ) -> None:
        """Fold per-replication snapshots into the installed collectors.

        Deterministic by construction: ``indices`` ascend in submission
        order, metrics merge commutes for counters/histograms and adopts
        the last gauge write, and trace records replay in capture order
        stamped with their replication index.
        """
        tracer = get_tracer()
        registry = get_registry()
        merge_metrics = not isinstance(registry, NullRegistry)
        for index, (_value, snapshot) in zip(indices, computed):
            if snapshot is None:
                continue
            if merge_metrics and snapshot.metrics is not None:
                registry.merge_snapshot(snapshot.metrics)
            if tracer is not None and snapshot.records is not None:
                self.telemetry.trace_records += replay_records(
                    tracer, snapshot.records, replication=index
                )
                self.telemetry.trace_dropped += snapshot.dropped
            if snapshot.profile:
                merge_profile_stats(self._profile_stats, snapshot.profile)

    def _settled(
        self,
        fn: Callable[[Any], Any],
        config: Any,
        index: int,
        value: Any,
        elapsed: float,
        events: int,
        cores: Dict[str, int],
    ) -> None:
        """Book one successful replication on every path: its spans, its
        telemetry, then its cache entry, so an interrupted sweep keeps
        everything that finished before the interruption."""
        ledger = self._span_ledger
        if ledger is not None:
            ledger.attempt(index, "ok", elapsed)
            ledger.settle(index, "ok")
        self.telemetry.record_replication(elapsed, events, cores)
        if self.cache is not None:
            self.cache.put(fn, config, value)

    # -- backends ---------------------------------------------------------

    def _execute(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
        span_parent: str,
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        collector = get_span_collector()
        if collector is not None:
            self._span_ledger = SpanLedger(collector, span_parent)
        try:
            if self.fault_tolerant:
                if self.jobs > 1:
                    return self._run_supervised(fn, configs, indices, obs)
                return self._run_serial(fn, configs, indices, obs)
            if self.jobs == 1 or len(configs) <= 1:
                return self._run_serial(fn, configs, indices, obs)
            return self._run_pool(fn, configs, indices, obs)
        finally:
            self._span_ledger = None

    def _run_pool(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        ledger = self._span_ledger
        workers = min(self.jobs, len(configs))
        # About four pool tasks per worker.
        chunk = max(1, len(configs) // (workers * 4))
        out: List[Tuple[Any, Optional[ObsSnapshot]]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = [(fn, config, obs) for config in configs]
            # ``pool.map`` yields in submission order, so a failure at
            # position k leaves exactly positions 0..k-1 settled.
            for pos, (ok, value, elapsed, events, cores, snapshot) in enumerate(
                pool.map(_call, payloads, chunksize=chunk)
            ):
                if not ok:
                    exc, tb = value
                    self.telemetry.failures += 1
                    if ledger is not None:
                        ledger.attempt(indices[pos], "error", elapsed)
                        ledger.settle(indices[pos], "failed")
                    raise WorkerError(configs[pos], indices[pos], exc, tb) from exc
                out.append((value, snapshot))
                self._settled(
                    fn, configs[pos], indices[pos], value, elapsed, events, cores
                )
        return out

    # -- serial and supervised paths --------------------------------------

    def _backoff_delay(self, failed_attempts: int) -> float:
        """Seconds to wait after the ``failed_attempts``-th failure."""
        return self.retry_backoff * (2.0 ** (failed_attempts - 1))

    def _call_with_alarm(self, fn: Callable[[Any], Any], config: Any) -> Any:
        """One serial attempt, interrupted by SIGALRM at ``timeout``."""
        limit = self.timeout
        if limit is None or not _alarm_available():
            return fn(config)

        def _on_alarm(signum: int, frame: Any) -> None:
            raise ReplicationTimeout(
                f"replication exceeded {limit}s wall-clock timeout"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return fn(config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _run_serial(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        """In-process execution, with retries, backoff, timeout and
        partial results when those options are set."""

        def attempt(config: Any) -> Tuple[Any, Optional[ObsSnapshot]]:
            # Capture *inside* the alarm window so an interrupted attempt
            # still restores the coordinator's collectors (and its partial
            # snapshot is discarded with the exception).
            return _observed_call(fn, config, obs)

        ledger = self._span_ledger
        out: List[Tuple[Any, Optional[ObsSnapshot]]] = []
        for config, index in zip(configs, indices):
            attempts = 0
            while True:
                attempts += 1
                started = time.perf_counter()
                events_before = events_processed_total()
                cores_before = events_processed_by_core()
                try:
                    result, snapshot = self._call_with_alarm(attempt, config)
                except Exception as exc:
                    tb = traceback.format_exc()
                    timed_out = isinstance(exc, ReplicationTimeout)
                    if timed_out:
                        self.telemetry.timeouts += 1
                    if ledger is not None:
                        ledger.attempt(
                            index,
                            "timeout" if timed_out else "error",
                            time.perf_counter() - started,
                        )
                    if attempts <= self.max_retries:
                        self.telemetry.retries += 1
                        delay = self._backoff_delay(attempts)
                        if delay > 0:
                            self._sleep(delay)
                        continue
                    self.telemetry.failures += 1
                    if ledger is not None:
                        ledger.settle(index, "failed")
                    if self.partial:
                        out.append((
                            FailedResult(config, index, attempts, repr(exc), tb),
                            None,
                        ))
                        break
                    raise WorkerError(
                        config, index, exc, tb, attempts=attempts
                    ) from exc
                elapsed = time.perf_counter() - started
                out.append((result, snapshot))
                self._settled(
                    fn,
                    config,
                    index,
                    result,
                    elapsed,
                    events_processed_total() - events_before,
                    _des_core_delta(cores_before),
                )
                break
        return out

    def _run_supervised(
        self,
        fn: Callable[[Any], Any],
        configs: List[Any],
        indices: List[int],
        obs: Optional[ObsRequest],
    ) -> List[Tuple[Any, Optional[ObsSnapshot]]]:
        """Process-per-attempt execution with cancellation and retries.

        Each attempt gets its own child process and pipe: a crash closes the
        pipe (attributed to exactly that config), a hang is terminated at
        its deadline, and retried configs relaunch after their backoff
        delay.  Up to ``jobs`` attempts run concurrently.
        """
        ctx = multiprocessing.get_context()
        ledger = self._span_ledger
        n = len(configs)
        slots = min(self.jobs, n)
        results: List[Tuple[Any, Optional[ObsSnapshot]]] = [(None, None)] * n
        attempts = [0] * n
        runnable: Deque[int] = deque(range(n))
        delayed: List[Tuple[float, int]] = []  # (eligible_at, position) heap
        # pipe -> (process, position, deadline, launched_at)
        inflight: Dict[Connection, Tuple[Any, int, Optional[float], float]] = {}
        done = 0

        def launch(pos: int) -> None:
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_supervised_child,
                args=(send_end, fn, configs[pos], obs),
                daemon=True,
            )
            proc.start()
            send_end.close()  # coordinator's copy; child death now EOFs recv
            now = self._clock()
            deadline = now + self.timeout if self.timeout is not None else None
            inflight[recv_end] = (proc, pos, deadline, now)

        def settle_failure(
            pos: int, cause: BaseException, tb: str, seconds: float
        ) -> None:
            nonlocal done
            if isinstance(cause, ReplicationTimeout):
                self.telemetry.timeouts += 1
                attempt_status = "timeout"
            elif isinstance(cause, WorkerCrash):
                self.telemetry.crashes += 1
                attempt_status = "crash"
            else:
                attempt_status = "error"
            if ledger is not None:
                ledger.attempt(indices[pos], attempt_status, seconds)
            if attempts[pos] <= self.max_retries:
                self.telemetry.retries += 1
                delay = self._backoff_delay(attempts[pos])
                if delay > 0:
                    heappush(delayed, (self._clock() + delay, pos))
                else:
                    runnable.append(pos)
                return
            self.telemetry.failures += 1
            if ledger is not None:
                ledger.settle(indices[pos], "failed")
            if self.partial:
                results[pos] = (
                    FailedResult(
                        configs[pos], indices[pos], attempts[pos], repr(cause), tb
                    ),
                    None,
                )
                done += 1
                return
            raise WorkerError(
                configs[pos], indices[pos], cause, tb, attempts=attempts[pos]
            )

        try:
            while done < n:
                now = self._clock()
                while delayed and delayed[0][0] <= now:
                    runnable.append(heappop(delayed)[1])
                while runnable and len(inflight) < slots:
                    launch(runnable.popleft())
                if not inflight:
                    if delayed:
                        self._sleep(max(0.0, delayed[0][0] - self._clock()))
                    continue

                waits = [
                    deadline - now
                    for (_proc, _pos, deadline, _launched) in inflight.values()
                    if deadline is not None
                ]
                if delayed:
                    waits.append(delayed[0][0] - now)
                poll = max(0.0, min(waits)) if waits else None

                for conn in _connection_wait(list(inflight), timeout=poll):
                    proc, pos, _deadline, launched = inflight.pop(conn)  # type: ignore[arg-type]
                    attempts[pos] += 1
                    try:
                        ok, payload, elapsed, events, cores, snapshot = conn.recv()  # type: ignore[union-attr]
                    except (EOFError, OSError):
                        proc.join()
                        settle_failure(
                            pos,
                            WorkerCrash(
                                "worker process died with exit code "
                                f"{proc.exitcode}"
                            ),
                            "",
                            self._clock() - launched,
                        )
                    else:
                        proc.join()
                        if ok:
                            results[pos] = (payload, snapshot)
                            done += 1
                            self._settled(
                                fn, configs[pos], indices[pos], payload,
                                elapsed, events, cores,
                            )
                        else:
                            cause, tb = payload
                            settle_failure(pos, cause, tb, elapsed)
                    finally:
                        conn.close()  # type: ignore[union-attr]

                now = self._clock()
                expired = [
                    conn
                    for conn, (_proc, _pos, deadline, _launched) in inflight.items()
                    if deadline is not None and deadline <= now
                ]
                for conn in expired:
                    proc, pos, _deadline, launched = inflight.pop(conn)
                    _reap(proc)
                    conn.close()
                    attempts[pos] += 1
                    settle_failure(
                        pos,
                        ReplicationTimeout(
                            f"replication exceeded {self.timeout}s wall-clock "
                            "timeout; worker cancelled"
                        ),
                        "",
                        now - launched,
                    )
        finally:
            for conn, (proc, _pos, _deadline, _launched) in inflight.items():
                _reap(proc)
                conn.close()
            inflight.clear()
        return results
