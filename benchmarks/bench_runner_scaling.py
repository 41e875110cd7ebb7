"""ExperimentRunner scaling: serial vs process-pool wall time.

Runs a figure6-sized sweep (4 windows x 5 P_QOS x 3 seeds = 60 independent
two-cell simulations) through the serial backend and through process pools
of increasing size, and records the wall-clock speedup.  On a single-core
container the pool can only tie with serial (the report says so); with >= 4
cores the 4-worker pool is expected to cut wall time by >= 2x.
"""

import os
import time

from conftest import once

from repro.runtime import ExperimentRunner
from repro.sim import figure6_config, simulate_twocell_stats

WINDOWS = (0.02, 0.05, 0.1, 0.2)
PQOS = (0.001, 0.005, 0.02, 0.1, 0.3)
SEEDS = (1, 2, 3)
HORIZON = 300.0


def _sweep_configs():
    return [
        figure6_config(policy="probabilistic", window=window, p_qos=p_qos,
                       seed=seed, horizon=HORIZON)
        for window in WINDOWS
        for p_qos in PQOS
        for seed in SEEDS
    ]


def _timed_run(jobs: int):
    configs = _sweep_configs()
    runner = ExperimentRunner(jobs=jobs)
    t0 = time.perf_counter()
    results = runner.run_many(simulate_twocell_stats, configs)
    return time.perf_counter() - t0, results


def test_runner_scaling(benchmark, report):
    def run():
        timings = {}
        serial_time, serial_results = _timed_run(1)
        timings[1] = serial_time
        pool_results = {}
        for jobs in (2, 4):
            timings[jobs], pool_results[jobs] = _timed_run(jobs)
        return timings, serial_results, pool_results

    timings, serial_results, pool_results = once(benchmark, run)

    # Parallel execution must be bit-identical to serial, whatever the
    # speedup: each replication owns its seed, merging is coordinator-side.
    for jobs, results in pool_results.items():
        assert results == serial_results, f"jobs={jobs} diverged from serial"

    cores = os.cpu_count() or 1
    lines = [
        f"ExperimentRunner scaling on a figure6-sized sweep "
        f"({len(_sweep_configs())} sims, {cores} core(s))",
        f"{'jobs':>5} {'wall (s)':>10} {'speedup':>9}",
    ]
    for jobs in sorted(timings):
        speedup = timings[1] / timings[jobs]
        lines.append(f"{jobs:>5} {timings[jobs]:>10.2f} {speedup:>8.2f}x")
    if cores < 4:
        lines.append(
            f"note: only {cores} core(s) visible — pool workers timeshare, "
            "so near-1x speedup is expected here; run on >=4 cores for the "
            ">=2x target."
        )
    else:
        assert timings[1] / timings[4] >= 2.0, (
            f"expected >=2x speedup at 4 workers on {cores} cores, got "
            f"{timings[1] / timings[4]:.2f}x"
        )
    report("runner_scaling", "\n".join(lines))

