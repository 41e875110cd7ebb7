"""Deterministic cProfile aggregation across workers.

``--profile`` runs each replication under :mod:`cProfile` *inside the
worker* and ships the raw stats dict back with the replication's
observation snapshot — the same channel traces and metrics already use,
so the coordinator folds profiles in submission order regardless of how
the work was placed (serial or any process pool).  Two
runs of the same sweep therefore aggregate the same call sites with the
same call counts; only the timings differ.

The merged dict is the native ``cProfile`` representation::

    {(file, line, func): (cc, nc, tt, ct, callers)}

``write_pstats`` marshals it to disk in the standard pstats dump format
(gzip-compressed when the path ends in ``.gz``), so an uncompressed
output loads straight into ``pstats.Stats`` or ``snakeviz``; the
``python -m repro trace profile`` CLI renders a top-N hotspot table.
"""

from __future__ import annotations

import gzip
import marshal
from typing import Any, Dict, List, Tuple

__all__ = [
    "hotspots",
    "merge_profile_stats",
    "profile_to_pstats",
    "read_pstats",
    "render_hotspots",
    "write_pstats",
]

#: ``{(file, line, func): (cc, nc, tt, ct, callers)}`` as produced by
#: ``cProfile.Profile.stats`` after ``create_stats()``.
ProfileStats = Dict[Any, Any]

#: Column name → index into the (cc, nc, tt, ct) tuple.
_SORT_COLUMNS = {"calls": 1, "tottime": 2, "cumulative": 3}


def merge_profile_stats(acc: ProfileStats, other: ProfileStats) -> ProfileStats:
    """Fold ``other`` into ``acc`` in place (and return ``acc``).

    Call counts and times sum per call site; caller edges merge
    element-wise.  This mirrors ``pstats.Stats.add`` but works on the
    raw dicts, so snapshots can be folded as they arrive without
    constructing a ``Stats`` object per replication.
    """
    for func, (cc, nc, tt, ct, callers) in other.items():
        if func in acc:
            acc_cc, acc_nc, acc_tt, acc_ct, acc_callers = acc[func]
            merged_callers = dict(acc_callers)
            for caller, stat in callers.items():
                if caller in merged_callers:
                    merged_callers[caller] = tuple(
                        a + b for a, b in zip(merged_callers[caller], stat)
                    )
                else:
                    merged_callers[caller] = stat
            acc[func] = (
                acc_cc + cc,
                acc_nc + nc,
                acc_tt + tt,
                acc_ct + ct,
                merged_callers,
            )
        else:
            acc[func] = (cc, nc, tt, ct, dict(callers))
    return acc


class _StatsCarrier:
    """Duck-typed profiler: just enough for ``pstats.Stats(...)``.

    ``pstats.Stats`` accepts any object with a ``stats`` dict and a
    ``create_stats`` method; this wraps an already-merged raw dict.
    """

    def __init__(self, stats: ProfileStats) -> None:
        self.stats = stats

    def create_stats(self) -> None:
        pass


def profile_to_pstats(raw: ProfileStats) -> Any:
    """Wrap merged raw stats in a ``pstats.Stats`` for standard tooling."""
    import pstats

    return pstats.Stats(_StatsCarrier(raw))


def write_pstats(path: str, raw: ProfileStats) -> None:
    """Dump merged stats in the standard pstats format.

    An uncompressed output is a valid ``python -m pstats`` /
    ``pstats.Stats(path)`` input; a ``.gz`` path gzips the same bytes.
    """
    data = marshal.dumps(raw)
    if str(path).endswith(".gz"):
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def read_pstats(path: str) -> ProfileStats:
    """Load a (possibly gzipped) pstats dump back into the raw dict."""
    if str(path).endswith(".gz"):
        with gzip.open(path, "rb") as fh:
            data = fh.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    stats = marshal.loads(data)
    if not isinstance(stats, dict):
        raise ValueError(f"{path}: not a pstats dump")
    return stats


def hotspots(
    raw: ProfileStats, top: int = 20, sort: str = "cumulative"
) -> List[Dict[str, Any]]:
    """The ``top`` call sites by ``sort`` (calls | tottime | cumulative).

    Ties break on the ``file:line(func)`` label so the report is
    deterministic across hash seeds and merge orders.
    """
    if sort not in _SORT_COLUMNS:
        raise ValueError(
            f"sort must be one of {sorted(_SORT_COLUMNS)}, got {sort!r}"
        )
    column = _SORT_COLUMNS[sort]
    rows: List[Tuple[float, str, Dict[str, Any]]] = []
    for func, stat in raw.items():
        file, line, name = func
        label = f"{file}:{line}({name})"
        cc, nc, tt, ct = stat[0], stat[1], stat[2], stat[3]
        rows.append(
            (
                -float(stat[column]),
                label,
                {
                    "function": label,
                    "primitive_calls": cc,
                    "calls": nc,
                    "tottime": tt,
                    "cumulative": ct,
                },
            )
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    return [entry for _, _, entry in rows[:top]]


def render_hotspots(rows: List[Dict[str, Any]], sort: str = "cumulative") -> str:
    """Format a hotspot table for terminal output."""
    lines = [
        f"{'ncalls':>10}  {'tottime':>9}  {'cumtime':>9}  function  (sorted by {sort})"
    ]
    for row in rows:
        calls = row["calls"]
        primitive = row["primitive_calls"]
        ncalls = str(calls) if calls == primitive else f"{calls}/{primitive}"
        lines.append(
            f"{ncalls:>10}  {row['tottime']:>9.4f}  {row['cumulative']:>9.4f}"
            f"  {row['function']}"
        )
    return "\n".join(lines)
