"""Parallel experiment runtime.

Every experiment sweep in the reproduction is a list of independent
``(sweep point x seed)`` simulations.  This package turns those serial
loops into a single dispatch surface:

* :class:`~repro.runtime.runner.ExperimentRunner` — ``run_many`` over
  picklable configs with pluggable serial / process-pool backends, plus
  opt-in fault tolerance: per-config retries with exponential backoff,
  per-replication wall-clock timeouts that cancel and reschedule hung
  workers, and ``partial=True`` sweeps where exhausted configs yield a
  typed :class:`~repro.runtime.runner.FailedResult` instead of aborting;
* :class:`~repro.runtime.cache.ResultCache` — an on-disk result cache so
  re-running a sweep only simulates new points, with LRU eviction under
  optional size/entry caps (``python -m repro cache`` manages it);
* :class:`~repro.runtime.faults.FaultInjector` — deterministic scripted
  crashes/hangs/exceptions for testing the fault tolerance without flaky
  sleeps;
* :mod:`~repro.runtime.distributed` — the cluster-scale backend
  (``backend="distributed"`` / ``--backend distributed --nodes N``):
  a coordinator shards each batch into a content-hash-keyed job manifest,
  node workers execute chunks and publish per-chunk result files, crashed
  or stalled nodes are re-sharded, and interrupted sweeps resume from
  whatever chunks already completed (see ``docs/DISTRIBUTED.md``).

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
from .distributed import (
    DistributedCoordinator,
    DistributedRunError,
    LocalSubprocessTransport,
    NodeTransport,
    ShardPlan,
    default_run_root,
    merge_chunk_results,
    plan_shards,
    sweep_id_for,
)
from .faults import (
    FaultInjector,
    FaultSpec,
    InjectedFault,
    NodeFaultSpec,
    load_node_fault_plan,
    write_node_fault_plan,
)
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
    "DistributedCoordinator",
    "DistributedRunError",
    "LocalSubprocessTransport",
    "NodeTransport",
    "ShardPlan",
    "default_run_root",
    "merge_chunk_results",
    "plan_shards",
    "sweep_id_for",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "NodeFaultSpec",
    "load_node_fault_plan",
    "write_node_fault_plan",
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
