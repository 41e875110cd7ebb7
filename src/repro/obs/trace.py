"""DES event tracing: sim-time-stamped structured records.

A :class:`Tracer` turns trace points scattered through the simulator into
records — plain dicts with a deterministic key order — and hands them to a
sink: an in-memory :class:`RingBufferSink` for tests and interactive use,
or a :class:`JsonlSink` writing one JSON object per line for offline
analysis (``python -m repro trace summarize``).

Enabling is opt-in and process-wide: :func:`set_tracer` installs a tracer
that :class:`~repro.des.Environment` picks up at construction and that the
domain trace points (admission, adaptation, handoff, reservations) consult
at emit time.  When no tracer is installed, :func:`get_tracer` returns
``None`` and every trace point reduces to a single ``is None`` branch —
the DES hot path additionally swaps in an untraced event pump so the
disabled cost there is zero.

**Tracing never perturbs the simulation**: trace points only *read* sim
state (they draw no random numbers, schedule no events, and mutate no
model objects), so a traced run is bit-identical to an untraced one — a
contract the test suite asserts end-to-end.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import deque
from contextlib import contextmanager
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Union,
)

__all__ = [
    "Tracer",
    "RingBufferSink",
    "JsonlSink",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "open_text",
    "read_jsonl",
    "replay_records",
    "summarize_records",
]

#: A trace record: {"t": sim-time-or-None, "kind": str, <sorted fields>}.
TraceRecord = Dict[str, Any]


def open_text(path: str, mode: str) -> IO[str]:
    """Open a text file, transparently gzipped when the path ends in ``.gz``.

    Long sweeps produce multi-gigabyte JSONL traces; every reader in
    this layer (``read_jsonl``, the span file reader, the ``trace`` CLI)
    and the :class:`JsonlSink` writer route through this so ``.jsonl.gz``
    works everywhere a ``.jsonl`` does.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")  # type: ignore[return-value]
    return open(path, mode, encoding="utf-8")


class RingBufferSink:
    """Keeps the most recent ``capacity`` records in memory."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._records: deque = deque(maxlen=capacity)
        #: Records discarded because the buffer was full.
        self.dropped = 0

    def emit(self, record: TraceRecord) -> None:
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    def records(self) -> List[TraceRecord]:
        return list(self._records)

    def close(self) -> None:
        pass


class JsonlSink:
    """Writes each record as one JSON line to a path or file object.

    ``compress`` opts into gzip output; left at ``None`` it is inferred
    from the path suffix, so ``--trace sweep.jsonl.gz`` just works.
    """

    def __init__(
        self, target: Union[str, "os.PathLike[str]", IO[str]],
        compress: Optional[bool] = None,
    ):
        if isinstance(target, (str, os.PathLike)):
            target = os.fspath(target)
            if compress is None:
                compress = target.endswith(".gz")
            if compress:
                self._fh: IO[str] = gzip.open(  # type: ignore[assignment]
                    target, "wt", encoding="utf-8"
                )
            else:
                self._fh = open(target, "w", encoding="utf-8")
            self._owns = True
            self.path: Optional[str] = target
        else:
            self._fh = target
            self._owns = False
            self.path = getattr(target, "name", None)
        self.written = 0

    def emit(self, record: TraceRecord) -> None:
        # default=repr: trace fields are usually scalars/strings, but a
        # stray Hashable id must degrade to text, not crash the run.
        self._fh.write(json.dumps(record, default=repr) + "\n")
        self.written += 1

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class Tracer:
    """Routes trace points to a sink, stamping sim time and counting kinds.

    Parameters
    ----------
    sink:
        Destination for records (ring buffer or JSONL).
    clock:
        Optional ``() -> float`` supplying the sim-time stamp when a trace
        point does not pass one explicitly.  Creating a traced
        :class:`~repro.des.Environment` binds this to that environment's
        clock (the most recently created environment wins).
    kinds:
        Optional allow-list of record kinds; anything else is discarded at
        the emit call (useful to keep per-event DES records out of a trace
        focused on domain decisions).
    """

    def __init__(
        self,
        sink: Any,
        clock: Optional[Callable[[], float]] = None,
        kinds: Optional[Set[str]] = None,
    ):
        self.sink = sink
        self.clock = clock
        self.kinds = set(kinds) if kinds is not None else None
        #: Per-kind record counts (deterministic insertion order by first
        #: emission; exports sort by kind anyway).
        self.counts: Dict[str, int] = {}

    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Record one trace point.  Never raises into simulation code."""
        if self.kinds is not None and kind not in self.kinds:
            return
        if t is None and self.clock is not None:
            t = self.clock()
        record: TraceRecord = {"t": t, "kind": kind}
        for key in sorted(fields):
            record[key] = fields[key]
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.sink.emit(record)

    def close(self) -> None:
        self.sink.close()


_tracer: Optional[Tracer] = None


def get_tracer() -> Optional[Tracer]:
    """The installed process-wide tracer, or None when tracing is off."""
    return _tracer


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or with None, remove) the process-wide tracer.

    Returns the previously installed tracer so callers can restore it.
    Environments created *after* installation pick the tracer up
    automatically; an existing environment attaches via
    :meth:`~repro.des.Environment.set_tracer`.
    """
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped :func:`set_tracer` — restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def replay_records(
    tracer: Tracer,
    records: List[TraceRecord],
    replication: Optional[int] = None,
) -> int:
    """Re-emit already-built records into ``tracer``'s sink verbatim.

    This is the coordinator half of in-worker tracing: each pool worker
    captures its replication's records in a private ring buffer, the
    snapshot rides back with the result, and the coordinator replays the
    snapshots in replication-index order.  ``replication`` (the config's
    submission index) is stamped onto every record right after ``kind``,
    so interleaved provenance survives; the remaining fields keep the
    sorted order the worker-side :meth:`Tracer.emit` gave them.  The
    tracer's per-kind counts are updated as if it had emitted the records
    itself.  Returns the number of records replayed.
    """
    counts = tracer.counts
    emit = tracer.sink.emit
    for record in records:
        kind = record["kind"]
        out: TraceRecord = {"t": record["t"], "kind": kind}
        if replication is not None:
            out["replication"] = replication
        for key, value in record.items():
            if key != "t" and key != "kind":
                out[key] = value
        counts[kind] = counts.get(kind, 0) + 1
        emit(out)
    return len(records)


# -- offline analysis -------------------------------------------------------


def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a JSONL trace, validating the minimal schema.

    Every line must parse as a JSON object with a string ``kind`` and a
    ``t`` that is a number or null; anything else raises ``ValueError``
    naming the offending line (the CI smoke step relies on this).
    Gzipped traces (``.jsonl.gz``) are decompressed transparently.
    """
    records: List[TraceRecord] = []
    with open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not valid JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            if not isinstance(record.get("kind"), str):
                raise ValueError(f"{path}:{lineno}: missing string 'kind'")
            if "t" not in record or not (
                record["t"] is None or isinstance(record["t"], (int, float))
            ):
                raise ValueError(f"{path}:{lineno}: 't' must be a number or null")
            records.append(record)
    return records


def summarize_records(records: List[TraceRecord]) -> Dict[str, Any]:
    """Aggregate a trace into the ``trace summarize`` report structure."""
    kinds: Dict[str, Dict[str, Any]] = {}
    for record in records:
        entry = kinds.setdefault(
            record["kind"], {"count": 0, "t_first": None, "t_last": None}
        )
        entry["count"] += 1
        t = record["t"]
        if t is not None:
            if entry["t_first"] is None:
                entry["t_first"] = t
            entry["t_last"] = t

    admissions = [r for r in records if r["kind"] == "admission.decision"]
    rejected: Dict[str, int] = {}
    for r in admissions:
        if not r.get("accepted"):
            reason = str(r.get("reason"))
            rejected[reason] = rejected.get(reason, 0) + 1
    handoffs = [r for r in records if r["kind"] == "handoff.executed"]
    rounds = [r for r in records if r["kind"] == "adaptation.round.commit"]

    summary: Dict[str, Any] = {
        "records": len(records),
        "kinds": {k: kinds[k] for k in sorted(kinds)},
    }
    if admissions:
        summary["admission"] = {
            "decisions": len(admissions),
            "accepted": sum(1 for r in admissions if r.get("accepted")),
            "rejected_by_reason": {k: rejected[k] for k in sorted(rejected)},
        }
    if handoffs:
        summary["handoff"] = {
            "executed": len(handoffs),
            "connections_moved": sum(int(r.get("moved", 0)) for r in handoffs),
            "connections_dropped": sum(int(r.get("dropped", 0)) for r in handoffs),
        }
    if rounds:
        trips = [int(r.get("trips", 0)) for r in rounds]
        summary["adaptation"] = {
            "rounds_committed": len(rounds),
            "mean_trips": sum(trips) / len(trips) if trips else 0.0,
        }
    return summary
