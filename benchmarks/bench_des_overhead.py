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

from repro.des import (
    Environment,
    make_environment,
    native_available,
    native_import_error,
)

#: Per-event cost at the seed commit, microseconds (same container/CPU).
SEED_BASELINE_US = {"chain": 1.434, "interleaved": 1.820}


def _native_env():
    return make_environment(core="native")


def _bench_chain(n: int, make_env=Environment) -> float:
    env = make_env()

    def proc():
        to = env.timeout
        for _ in range(n):
            yield to(0.1)

    env.process(proc())
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / n


def _bench_interleaved(n_procs: int, n_events: int, make_env=Environment) -> float:
    env = make_env()

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
    """Pure vs compiled kernel, both against the seed-commit baseline.

    The native column is the headline of the ``_speedups`` extension:
    per-event cost of the compiled heap + run pump on byte-identical
    workloads.  On a host without the extension the column is omitted and
    the report says so — the numbers then cover only the pure kernel.
    """
    have_native = native_available()

    def run():
        out = {}
        for name, fn in (
            ("chain", lambda make: _bench_chain(200_000, make)),
            ("interleaved", lambda make: _bench_interleaved(100, 2000, make)),
        ):
            out[name] = {"pure": min(fn(Environment) for _ in range(3))}
            if have_native:
                out[name]["native"] = min(fn(_native_env) for _ in range(3))
        return out

    measured = once(benchmark, run)

    lines = ["DES kernel per-event overhead (lower is better)",
             f"{'workload':<14} {'seed (us)':>10} {'pure (us)':>10} "
             f"{'native (us)':>12} {'pure cut':>9} {'native speedup':>15}"]
    metrics = []
    for name, timing in measured.items():
        pure_us = timing["pure"] * 1e6
        seed_us = SEED_BASELINE_US[name]
        metrics.append({"metric": f"{name}_pure_us", "value": round(pure_us, 3),
                        "units": "us/event"})
        if have_native:
            native_us = timing["native"] * 1e6
            native_col = f"{native_us:>12.3f}"
            speedup_col = f"{pure_us / native_us:>14.2f}x"
            metrics.append({"metric": f"{name}_native_us",
                            "value": round(native_us, 3), "units": "us/event"})
            metrics.append({"metric": f"{name}_native_speedup",
                            "value": round(pure_us / native_us, 2),
                            "units": "x vs pure"})
        else:
            native_col, speedup_col = f"{'n/a':>12}", f"{'n/a':>15}"
        lines.append(
            f"{name:<14} {seed_us:>10.3f} {pure_us:>10.3f} {native_col} "
            f"{(1 - pure_us / seed_us) * 100:>8.1f}% {speedup_col}"
        )
        # Sanity floor only — absolute timings vary across hardware.
        assert timing["pure"] > 0
    if not have_native:
        lines.append(
            "compiled core unavailable on this host "
            f"({native_import_error()}); build it with "
            "'python setup.py build_ext --inplace' for the native column"
        )
    lines.append("cores are bit-identical (tests/sim/test_native_identity.py); "
                 "the native column is pure speed")
    report("des_overhead", "\n".join(lines))
    report_json(
        "des_overhead",
        metrics,
        config={
            "chain_events": 200_000,
            "interleaved": {"procs": 100, "events_per_proc": 2000},
            "native_available": have_native,
            "seed_baseline_us": SEED_BASELINE_US,
        },
    )

