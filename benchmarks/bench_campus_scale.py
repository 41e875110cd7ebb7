"""Campus-scale hot-path scaling: per-crossing cost vs. total population.

The scaling contract of the per-cell indexing / sparse-ledger / batched-
handoff rework: with the *active fraction held fixed*, growing the total
portable population by 10x must not grow the cost of serving one handoff
crossing by more than 1.5x.  Before the rework, every maintenance tick
scanned the full population and every cell, so per-crossing cost grew
roughly linearly in the inactive population; with the dirty-cell refresh
and the connected-occupant index, the inactive crowd costs nothing after
attach.

Attaching the population is paid once, grows with it by construction, and
is not a crossing, so it is timed on its own: a ``horizon=0`` run of the
same config builds the campus, attaches every portable and connects the
active ones, then stops before the first wave.  ``us/crossing`` divides
the rest of the full run by its handoffs, and the attach seconds are their
own column.

Also recorded (informationally): DES kernel events/sec — waves are batched
(one DES event per wave regardless of movers), so kernel events measure
control-plane ticks, not workload — and peak RSS per population, read from
``ru_maxrss`` after each full run (populations run smallest-first, so a
growing reading is attributable to the larger population).  Each timed run
starts after a full collection, so no earlier run's cyclic garbage is
collected inside its timing or counted in its peak.
"""

import dataclasses
import gc
import resource
import time

from conftest import once

from repro.des import events_processed_total
from repro.sim import CampusScaleConfig, run_campus_scale

POPULATIONS = (10_000, 100_000)
ACTIVE_FRACTION = 0.01
BUILDINGS = 4
FLOORS = 3
HORIZON = 1800.0
SEED = 7
#: Max allowed growth in per-crossing cost per 10x population step.
MAX_COST_GROWTH = 1.5
#: Each run is timed this often and the fastest time kept.  The wave phase
#: is the difference of two runs, so one slow run on a shared host swamps it.
REPEATS = 3


def _timed(config: CampusScaleConfig):
    gc.collect()
    t0 = time.perf_counter()
    result = run_campus_scale(config)
    return time.perf_counter() - t0, result


def _measure(portables: int):
    config = CampusScaleConfig(
        seed=SEED,
        portables=portables,
        active_fraction=ACTIVE_FRACTION,
        buildings=BUILDINGS,
        floors=FLOORS,
        horizon=HORIZON,
    )
    events_before = events_processed_total()
    wall, result = _timed(config)
    events = events_processed_total() - events_before
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = min(wall, *(_timed(config)[0] for _ in range(REPEATS - 1)))
    attach_runs = [
        _timed(dataclasses.replace(config, horizon=0.0)) for _ in range(REPEATS)
    ]
    assert all(attached.handoffs == 0 for _, attached in attach_runs)
    attach = min(seconds for seconds, _ in attach_runs)
    return {
        "portables": portables,
        "active": result.active,
        "wall_s": wall,
        "attach_s": attach,
        "handoffs": result.handoffs,
        "des_events": events,
        "us_per_crossing": 1e6 * (wall - attach) / result.handoffs,
        "events_per_s": events / wall if wall > 0 else 0.0,
        "peak_rss_kib": peak_rss_kib,
    }


def test_campus_scale_per_crossing_cost(benchmark, report, report_json):
    def run():
        return [_measure(n) for n in POPULATIONS]  # smallest first

    rows = once(benchmark, run)

    lines = [
        "Campus-scale handoff cost vs. population "
        f"(active fraction {ACTIVE_FRACTION}, {BUILDINGS} buildings x "
        f"{FLOORS} floors, horizon {HORIZON:.0f}s)",
        f"{'portables':>10} {'active':>7} {'wall (s)':>9} {'attach (s)':>11} "
        f"{'handoffs':>9} {'us/crossing':>12} {'peak RSS (MiB)':>15}",
    ]
    for row in rows:
        lines.append(
            f"{row['portables']:>10} {row['active']:>7} {row['wall_s']:>9.2f} "
            f"{row['attach_s']:>11.2f} {row['handoffs']:>9} "
            f"{row['us_per_crossing']:>12.1f} {row['peak_rss_kib'] / 1024:>15.1f}"
        )
    for small, large in zip(rows, rows[1:]):
        growth = large["us_per_crossing"] / small["us_per_crossing"]
        lines.append(
            f"per-crossing cost growth {small['portables']} -> "
            f"{large['portables']}: {growth:.2f}x (limit {MAX_COST_GROWTH}x)"
        )
        assert growth <= MAX_COST_GROWTH, (
            f"per-crossing cost grew {growth:.2f}x from {small['portables']} "
            f"to {large['portables']} portables (limit {MAX_COST_GROWTH}x): "
            "the inactive population is leaking into a hot path"
        )
    report("campus_scale", "\n".join(lines))
    report_json(
        "campus_scale",
        [
            {
                "metric": "us_per_crossing",
                "value": row["us_per_crossing"],
                "units": "microseconds/handoff",
                "portables": row["portables"],
                "handoffs": row["handoffs"],
                "wall_s": row["wall_s"],
                "attach_s": row["attach_s"],
            }
            for row in rows
        ]
        + [
            {
                "metric": "attach_s",
                "value": row["attach_s"],
                "units": "seconds",
                "portables": row["portables"],
            }
            for row in rows
        ]
        + [
            {
                "metric": "peak_rss",
                "value": row["peak_rss_kib"],
                "units": "KiB",
                "portables": row["portables"],
            }
            for row in rows
        ]
        + [
            {
                "metric": "des_events_per_s",
                "value": row["events_per_s"],
                "units": "events/second",
                "portables": row["portables"],
            }
            for row in rows
        ],
        config={
            "active_fraction": ACTIVE_FRACTION,
            "buildings": BUILDINGS,
            "floors": FLOORS,
            "horizon_s": HORIZON,
            "seed": SEED,
            "populations": list(POPULATIONS),
            "max_cost_growth": MAX_COST_GROWTH,
        },
    )
