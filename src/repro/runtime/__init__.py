"""Parallel experiment runtime.

Every experiment sweep in the reproduction is a list of independent
``(sweep point x seed)`` simulations.  This package turns those serial
loops into a single dispatch surface:

* :class:`~repro.runtime.runner.ExperimentRunner` — ``run_many`` over
  picklable configs, run serially or on a process pool, plus
  opt-in fault tolerance: per-config retries with exponential backoff,
  per-replication wall-clock timeouts that cancel and reschedule hung
  workers, and ``partial=True`` sweeps where exhausted configs yield a
  typed :class:`~repro.runtime.runner.FailedResult` instead of aborting;
* :class:`~repro.runtime.cache.ResultCache` — an on-disk result cache so
  re-running a sweep only simulates new points, with LRU eviction under
  optional size/entry caps (``python -m repro cache`` manages it).  The
  runner writes each replication as it settles, so the cache is also the
  on-disk record of an interrupted sweep's progress: re-running it with
  the same cache recomputes only the gap;
* :class:`~repro.runtime.faults.FaultInjector` — deterministic scripted
  crashes/hangs/exceptions for testing the fault tolerance without flaky
  sleeps.

Determinism contract: each replication owns its seed inside its config,
workers never share RNG state, and merging stays on the coordinator in
submission order — parallel results are bit-identical to serial runs, and
retried or rescheduled replications recompute the identical value.
"""

from .cache import (
    CACHE_VERSION,
    CacheEntry,
    CacheStats,
    ResultCache,
    config_key,
    default_cache_dir,
    parse_size,
)
from .faults import FaultInjector, FaultSpec, InjectedFault
from .runner import (
    JOBS_ENV,
    ExperimentRunner,
    FailedResult,
    ObsRequest,
    ObsSnapshot,
    ReplicationTimeout,
    WorkerCrash,
    WorkerError,
    drop_failures,
    failed,
    resolve_jobs,
    succeeded,
)

__all__ = [
    "CACHE_VERSION",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "config_key",
    "default_cache_dir",
    "parse_size",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "JOBS_ENV",
    "ExperimentRunner",
    "FailedResult",
    "ObsRequest",
    "ObsSnapshot",
    "ReplicationTimeout",
    "WorkerCrash",
    "WorkerError",
    "drop_failures",
    "failed",
    "resolve_jobs",
    "succeeded",
]
