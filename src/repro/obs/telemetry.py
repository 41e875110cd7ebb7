"""Runtime telemetry: what the experiment harness did, aggregated.

:class:`RunTelemetry` is the coordinator-side ledger the
:class:`~repro.runtime.ExperimentRunner` fills while dispatching a sweep:
per-replication wall times (measured inside the worker and shipped back
with the result, so they survive process pools), retry / timeout / crash
counts from the fault-tolerant paths, and result-cache hit/miss counts.

Unlike metrics and traces — which are process-local and therefore blind to
pool workers — telemetry is aggregated across workers by construction:
every number lands on the coordinator with the replication's result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["RunTelemetry"]


@dataclass
class RunTelemetry:
    """Aggregated accounting for one or more ``run_many`` batches."""

    #: Replications that produced a result (cache hits not included).
    replications: int = 0
    #: Configs that exhausted their attempts (partial-mode failures).
    failures: int = 0
    #: Extra attempts beyond each config's first.
    retries: int = 0
    #: Attempts cancelled/interrupted at the wall-clock deadline.
    timeouts: int = 0
    #: Worker processes that died without reporting a result.
    crashes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: ``run_many`` invocations folded into this ledger.
    batches: int = 0
    #: Coordinator wall-clock seconds across those batches.
    elapsed: float = 0.0
    #: Never written (always 0); ``perfbench/workpass.py`` still reads it.
    shm_results: int = 0
    #: Trace records captured inside workers and merged by the coordinator.
    trace_records: int = 0
    #: Worker-side trace records lost to ring-buffer overflow.
    trace_dropped: int = 0
    #: Per-replication wall seconds (successful attempts only).
    wall_times: List[float] = field(default_factory=list)
    #: DES events processed inside successful replications (summed across
    #: workers; counted by the simulation kernel, shipped with the result).
    des_events: int = 0
    #: DES events keyed by kernel core; the one kernel is ``"pure"``.
    des_cores: Dict[str, int] = field(default_factory=dict)

    # -- recording --------------------------------------------------------

    def record_replication(
        self,
        seconds: float,
        events: int = 0,
        cores: Optional[Dict[str, int]] = None,
    ) -> None:
        self.replications += 1
        self.wall_times.append(seconds)
        self.des_events += events
        if cores:
            self.record_core_events(cores)

    def record_core_events(self, cores: Dict[str, int]) -> None:
        """Fold per-core DES event counts in (zero counts are skipped)."""
        for core, events in sorted(cores.items()):
            if events:
                self.des_cores[core] = self.des_cores.get(core, 0) + events

    # -- derived ----------------------------------------------------------

    @property
    def des_core(self) -> Optional[str]:
        """The kernel core this run's events executed on, if any ran."""
        for core in self.des_cores:
            return core
        return None

    @property
    def events_per_second(self) -> float:
        """Aggregate DES throughput: kernel events over in-worker seconds.

        Wall time is already measured inside the workers, so this is the
        simulation core's own pace, unaffected by pool scheduling gaps.
        """
        total = self.wall_time_total
        return self.des_events / total if total > 0 else 0.0

    @property
    def wall_time_total(self) -> float:
        return sum(self.wall_times)

    @property
    def wall_time_mean(self) -> float:
        return self.wall_time_total / len(self.wall_times) if self.wall_times else 0.0

    @property
    def wall_time_max(self) -> float:
        return max(self.wall_times) if self.wall_times else 0.0

    @property
    def cache_hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    @property
    def speedup(self) -> Optional[float]:
        """Worker-seconds over coordinator-seconds (> 1 means the pool won)."""
        if self.elapsed <= 0 or not self.wall_times:
            return None
        return self.wall_time_total / self.elapsed

    # -- folding / export -------------------------------------------------

    def merge(self, other: "RunTelemetry") -> "RunTelemetry":
        """Fold another ledger into this one (returns self)."""
        self.replications += other.replications
        self.failures += other.failures
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.crashes += other.crashes
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.batches += other.batches
        self.elapsed += other.elapsed
        self.trace_records += other.trace_records
        self.trace_dropped += other.trace_dropped
        self.wall_times.extend(other.wall_times)
        self.des_events += other.des_events
        if other.des_cores:
            self.record_core_events(other.des_cores)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "batches": self.batches,
            "replications": self.replications,
            "failures": self.failures,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.cache_hit_rate,
            },
            "trace": {
                "records": self.trace_records,
                "dropped": self.trace_dropped,
            },
            "des": {
                "events": self.des_events,
                "events_per_second": self.events_per_second,
                "core": self.des_core,
                "cores": dict(self.des_cores),
            },
            "wall_time": {
                "elapsed": self.elapsed,
                "replication_total": self.wall_time_total,
                "replication_mean": self.wall_time_mean,
                "replication_max": self.wall_time_max,
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        """Human-readable run summary (the CLI prints this)."""
        lines = [
            "run telemetry:",
            f"  batches:       {self.batches}",
            f"  replications:  {self.replications}"
            + (f" ({self.failures} failed)" if self.failures else ""),
        ]
        if self.retries or self.timeouts or self.crashes:
            lines.append(
                f"  faults:        {self.retries} retries, "
                f"{self.timeouts} timeouts, {self.crashes} crashes"
            )
        if self.cache_hits or self.cache_misses:
            lines.append(
                f"  cache:         {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"({self.cache_hit_rate * 100.0:.1f}% hit rate)"
            )
        if self.trace_records or self.trace_dropped:
            lines.append(
                f"  worker traces: {self.trace_records} records merged"
                + (f", {self.trace_dropped} dropped" if self.trace_dropped else "")
            )
        if self.des_events:
            core = self.des_core
            lines.append(
                f"  des events:    {self.des_events} processed "
                f"({self.events_per_second:,.0f} events/s in-worker)"
                + (f" [{core} core]" if core else "")
            )
        lines.append(
            f"  wall time:     {self.elapsed:.3f}s elapsed, "
            f"{self.wall_time_total:.3f}s in replications "
            f"(mean {self.wall_time_mean * 1000.0:.1f}ms, "
            f"max {self.wall_time_max * 1000.0:.1f}ms)"
        )
        speedup = self.speedup
        if speedup is not None and speedup > 1.05:
            lines.append(f"  parallelism:   {speedup:.2f}x worker-time/elapsed")
        return "\n".join(lines)
