"""DES kernel micro-benchmark: per-event overhead of the schedule/step loop.

Two workloads isolate the hot path from any model code:

* ``chain`` — one process yielding timeouts back-to-back (pure
  create/schedule/pop/resume cost);
* ``interleaved`` — 100 concurrent processes with staggered periods, so the
  heap holds a realistic mix and pops interleave processes.

The seed baseline (commit ``459346b``, before ``__slots__`` on
Event/Timeout/Process, heapq local-binding, and the inlined run-loop pump)
measured on this container:

* chain:        1.434 us/event
* interleaved:  1.820 us/event

The report records the current numbers and the reduction against that
baseline; absolute values shift with hardware, the ratio is the point.
"""

import time

from conftest import once

from repro.des import Environment

#: Per-event cost at the seed commit, microseconds (same container/CPU).
SEED_BASELINE_US = {"chain": 1.434, "interleaved": 1.820}


def _bench_chain(n: int) -> float:
    env = Environment()

    def proc():
        to = env.timeout
        for _ in range(n):
            yield to(0.1)

    env.process(proc())
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / n


def _bench_interleaved(n_procs: int, n_events: int) -> float:
    env = Environment()

    def proc(delay):
        to = env.timeout
        for _ in range(n_events):
            yield to(delay)

    for i in range(n_procs):
        env.process(proc(0.1 + 0.01 * i))
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / (n_procs * n_events)


def test_des_event_overhead(benchmark, report, report_json):
    """Per-event cost of the kernel against the seed-commit baseline."""

    def run():
        return {
            "chain": min(_bench_chain(200_000) for _ in range(3)),
            "interleaved": min(_bench_interleaved(100, 2000) for _ in range(3)),
        }

    measured = once(benchmark, run)

    lines = ["DES kernel per-event overhead (lower is better)",
             f"{'workload':<14} {'seed (us)':>10} {'pure (us)':>10} {'pure cut':>9}"]
    metrics = []
    for name, seconds in measured.items():
        pure_us = seconds * 1e6
        seed_us = SEED_BASELINE_US[name]
        metrics.append({"metric": f"{name}_pure_us", "value": round(pure_us, 3),
                        "units": "us/event"})
        lines.append(
            f"{name:<14} {seed_us:>10.3f} {pure_us:>10.3f} "
            f"{(1 - pure_us / seed_us) * 100:>8.1f}%"
        )
        # Sanity floor only — absolute timings vary across hardware.
        assert seconds > 0
    report("des_overhead", "\n".join(lines))
    report_json(
        "des_overhead",
        metrics,
        config={
            "chain_events": 200_000,
            "interleaved": {"procs": 100, "events_per_proc": 2000},
            "seed_baseline_us": SEED_BASELINE_US,
        },
    )
