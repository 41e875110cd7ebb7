"""Unified observability layer: metrics, DES event tracing, run telemetry.

Three legs, all free when off and structured when on:

* :mod:`repro.obs.metrics` — a process-wide registry of Counter / Gauge /
  Histogram instruments keyed by name + labels, with a no-op default so
  instrumented call sites cost ~nothing while metrics are disabled, and a
  deterministically ordered JSON export (``--metrics-json``).
* :mod:`repro.obs.trace` — opt-in, sim-time-stamped structured records
  from the DES kernel (schedule / fire / process-resume) and the paper's
  decision points (admission outcomes, adaptation rounds, handoffs,
  advance-reservation claims), sunk to a ring buffer or JSONL file
  (``--trace[=PATH]``, ``python -m repro trace summarize``).
* :mod:`repro.obs.telemetry` — coordinator-side aggregation of what the
  experiment runtime did: per-replication wall times, retry / timeout /
  crash counts, cache hit rates (``--stats-json``).

Two more legs cover the runtime itself rather than the simulation:

* :mod:`repro.obs.spans` — hierarchical wall-clock spans over sweep →
  replication → attempt, with a placement-independent canonical
  structure (``--spans``, ``python -m repro trace spans``).
* :mod:`repro.obs.profiling` — deterministic cProfile aggregation across
  workers (``--profile``, ``python -m repro trace profile``).

Invariant: observability *reads* simulation state and never perturbs RNG
draws or event order, so enabling any of it leaves experiment outputs
bit-identical to an unobserved run.  See ``docs/OBSERVABILITY.md``.
"""

from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .profiling import (
    hotspots,
    merge_profile_stats,
    profile_to_pstats,
    read_pstats,
    render_hotspots,
    write_pstats,
)
from .spans import (
    Span,
    SpanCollector,
    SpanLedger,
    canonical_structure,
    format_span_tree,
    get_span_collector,
    read_spans_jsonl,
    set_span_collector,
    use_span_collector,
    write_spans_jsonl,
)
from .telemetry import RunTelemetry
from .trace import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    get_tracer,
    open_text,
    read_jsonl,
    set_tracer,
    summarize_records,
    use_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "RunTelemetry",
    "Tracer",
    "RingBufferSink",
    "JsonlSink",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "open_text",
    "read_jsonl",
    "summarize_records",
    "Span",
    "SpanCollector",
    "SpanLedger",
    "canonical_structure",
    "format_span_tree",
    "get_span_collector",
    "set_span_collector",
    "use_span_collector",
    "read_spans_jsonl",
    "write_spans_jsonl",
    "hotspots",
    "merge_profile_stats",
    "profile_to_pstats",
    "read_pstats",
    "render_hotspots",
    "write_pstats",
]
