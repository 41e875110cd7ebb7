"""Fault-tolerance tests: retries, timeouts, partial results, crashes, and
resuming an interrupted sweep from the result cache.

Faults are scripted through :class:`repro.runtime.FaultInjector` so every
scenario is deterministic: the injector fails the first N attempts of a
chosen config (exception, hang, or hard process crash) and computes
normally afterwards, with attempt counters on disk so the schedule holds
across process-pool workers.  The core acceptance property throughout:
results that survive the faults are bit-identical to a fault-free serial
run.
"""

import math
import os
import pathlib
import subprocess
import sys
import time
import warnings

import pytest

from repro.runtime import (
    ExperimentRunner,
    FailedResult,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ResultCache,
    WorkerCrash,
    WorkerError,
    drop_failures,
    failed,
    succeeded,
)
from repro.runtime.cache import config_key
from repro.sim import figure6_config, simulate_twocell_stats

CONFIGS = [1, 2, 3, 4]
EXPECTED = [1, 4, 9, 16]

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _square(x):
    return x * x


def _no_sleep(_seconds):
    return None


# -- retry with exponential backoff ----------------------------------------


def test_transient_failure_retried_serial(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("raise", attempts=2)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1, max_retries=3, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED
    assert injector.attempts_for(2) == 3  # two scripted failures + success
    assert injector.attempts_for(1) == 1


def test_transient_failure_retried_process_backend(tmp_path):
    injector = FaultInjector(
        _square, {3: FaultSpec("raise", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2, max_retries=2, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED


def test_backoff_schedule_doubles(tmp_path):
    """Attempt k waits retry_backoff * 2**(k-1) seconds before retrying."""
    injector = FaultInjector(
        _square, {1: FaultSpec("raise", attempts=3)}, tmp_path
    )
    recorded = []
    runner = ExperimentRunner(
        jobs=1, max_retries=3, retry_backoff=0.25, sleep=recorded.append
    )
    assert runner.run_many(injector, [1]) == [1]
    assert recorded == [0.25, 0.5, 1.0]


def test_exhausted_retries_raise_worker_error_with_attempts(tmp_path):
    injector = FaultInjector(
        _square, {3: FaultSpec("raise", attempts=10)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1, max_retries=2, sleep=_no_sleep)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, CONFIGS)
    err = excinfo.value
    assert err.attempts == 3
    assert err.index == 2
    assert err.config == 3
    assert isinstance(err.cause, InjectedFault)
    assert "after 3 attempts" in str(err)


def test_zero_retries_fails_on_first_attempt(tmp_path):
    injector = FaultInjector(
        _square, {1: FaultSpec("raise", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1)
    with pytest.raises(WorkerError):
        runner.run_many(injector, CONFIGS)
    assert injector.attempts_for(1) == 1


# -- partial results --------------------------------------------------------


def test_partial_yields_failed_result_in_submission_slot(tmp_path):
    injector = FaultInjector(
        _square, {3: FaultSpec("raise", attempts=10)}, tmp_path
    )
    runner = ExperimentRunner(
        jobs=1, max_retries=1, partial=True, sleep=_no_sleep
    )
    results = runner.run_many(injector, CONFIGS)
    assert results[0] == 1 and results[1] == 4 and results[3] == 16
    sentinel = results[2]
    assert isinstance(sentinel, FailedResult)
    assert sentinel.index == 2
    assert sentinel.config == 3
    assert sentinel.attempts == 2
    assert "InjectedFault" in sentinel.error
    assert "scripted fault" in sentinel.traceback


def test_partial_preserves_order_with_multiple_failures(tmp_path):
    plan = {
        1: FaultSpec("raise", attempts=10),
        4: FaultSpec("raise", attempts=10),
    }
    injector = FaultInjector(_square, plan, tmp_path)
    runner = ExperimentRunner(jobs=2, partial=True, sleep=_no_sleep)
    results = runner.run_many(injector, CONFIGS)
    assert [f.index for f in failed(results)] == [0, 3]
    assert succeeded(results) == [4, 9]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kept = drop_failures(results, context="unit test")
    assert kept == [4, 9]
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "unit test" in message and "indices [0, 3]" in message


def test_partial_failures_are_not_cached(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("raise", attempts=10)}, tmp_path / "faults"
    )
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(
        jobs=1, partial=True, cache=cache, sleep=_no_sleep
    )
    results = runner.run_many(injector, CONFIGS)
    assert isinstance(results[1], FailedResult)
    # Only the three successes were persisted; a later fault-free run
    # recomputes exactly the failed point and hits the cache for the rest.
    assert len(cache) == 3
    clean = ExperimentRunner(jobs=1, cache=cache)
    assert clean.run_many(_square, CONFIGS) == EXPECTED
    assert cache.hits == 3 and len(cache) == 4


# -- timeouts ---------------------------------------------------------------


def test_hung_worker_cancelled_at_timeout_process_backend(tmp_path):
    """A hung supervised worker is terminated at the deadline and the
    config rescheduled; the retry (no longer scripted to hang) succeeds."""
    injector = FaultInjector(
        _square,
        {2: FaultSpec("hang", attempts=1, hang_seconds=60.0)},
        tmp_path,
    )
    runner = ExperimentRunner(
        jobs=2, max_retries=1, timeout=0.5, sleep=_no_sleep
    )
    started = time.monotonic()
    assert runner.run_many(injector, CONFIGS) == EXPECTED
    # Cancellation, not expiry: nowhere near the 60 s scripted hang.
    assert time.monotonic() - started < 30.0


def test_hung_worker_interrupted_at_timeout_serial_backend(tmp_path):
    injector = FaultInjector(
        _square,
        {4: FaultSpec("hang", attempts=1, hang_seconds=60.0)},
        tmp_path,
    )
    runner = ExperimentRunner(
        jobs=1, max_retries=1, timeout=0.4, sleep=_no_sleep
    )
    started = time.monotonic()
    assert runner.run_many(injector, CONFIGS) == EXPECTED
    assert time.monotonic() - started < 30.0


def test_timeout_exhaustion_yields_failed_result(tmp_path):
    injector = FaultInjector(
        _square,
        {1: FaultSpec("hang", attempts=10, hang_seconds=60.0)},
        tmp_path,
    )
    runner = ExperimentRunner(
        jobs=2, max_retries=1, timeout=0.3, partial=True, sleep=_no_sleep
    )
    results = runner.run_many(injector, CONFIGS)
    sentinel = results[0]
    assert isinstance(sentinel, FailedResult)
    assert sentinel.attempts == 2
    assert "ReplicationTimeout" in sentinel.error
    assert results[1:] == EXPECTED[1:]


# -- crashes ----------------------------------------------------------------


def test_crashed_worker_retried_process_backend(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("crash", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2, max_retries=2, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED


def test_crash_exhaustion_raises_worker_crash(tmp_path):
    injector = FaultInjector(
        _square, {2: FaultSpec("crash", attempts=10, exit_code=7)}, tmp_path
    )
    runner = ExperimentRunner(jobs=2, max_retries=1, sleep=_no_sleep)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, CONFIGS)
    assert isinstance(excinfo.value.cause, WorkerCrash)
    assert "exit code 7" in str(excinfo.value.cause)


def test_crash_demoted_to_exception_on_serial_backend(tmp_path):
    """In-coordinator crashes would kill the test process; the injector
    demotes them to InjectedFault so serial sweeps stay testable."""
    injector = FaultInjector(
        _square, {2: FaultSpec("crash", attempts=1)}, tmp_path
    )
    runner = ExperimentRunner(jobs=1, max_retries=1, sleep=_no_sleep)
    assert runner.run_many(injector, CONFIGS) == EXPECTED


# -- acceptance: faults never change surviving results ----------------------


def test_mixed_fault_sweep_bit_identical_to_fault_free_serial(tmp_path):
    """Crashes, hangs, and exceptions across a real simulation sweep: after
    retries under the supervised backend, every result equals the
    fault-free serial run bit for bit."""
    configs = [
        figure6_config(seed=seed, horizon=40.0) for seed in (1, 2, 3, 4)
    ]
    baseline = ExperimentRunner(jobs=1).run_many(
        simulate_twocell_stats, configs
    )
    plan = {
        configs[0]: FaultSpec("raise", attempts=2),
        configs[1]: FaultSpec("crash", attempts=1),
        configs[2]: FaultSpec("hang", attempts=1, hang_seconds=60.0),
    }
    injector = FaultInjector(simulate_twocell_stats, plan, tmp_path)
    runner = ExperimentRunner(
        jobs=2, max_retries=3, timeout=10.0, partial=True, sleep=_no_sleep
    )
    results = runner.run_many(injector, configs)
    assert not failed(results)
    assert results == baseline


def test_retry_results_identical_on_both_backends(tmp_path):
    baseline = ExperimentRunner(jobs=1).run_many(_square, CONFIGS)
    for jobs in (1, 2):
        injector = FaultInjector(
            _square,
            {2: FaultSpec("raise", attempts=1)},
            tmp_path / f"jobs{jobs}",
        )
        runner = ExperimentRunner(jobs=jobs, max_retries=1, sleep=_no_sleep)
        assert runner.run_many(injector, CONFIGS) == baseline


# -- resume through the result cache ----------------------------------------
#
# Every path writes a replication to the cache the moment it settles, so a
# sweep interrupted at position 5 of 8 keeps what finished, and re-running
# it with the same cache recomputes only the gap.

RESUME_CONFIGS = [1, 2, 3, 4, 5, 6, 7, 8]


def _assert_resumes(worker, cache, configs, settled):
    """A re-run with ``cache`` hits exactly the ``settled`` entries, runs the
    rest, and equals an uninterrupted serial run."""
    rerun = ExperimentRunner(jobs=1, cache=cache)
    assert rerun.run_many(worker, configs) == (
        ExperimentRunner(jobs=1).run_many(worker, configs)
    )
    assert rerun.telemetry.cache_hits == settled
    assert rerun.telemetry.replications == len(configs) - settled


# The killed sweep runs in its own interpreter.  Its worker keeps the
# namespace of an importable function (``config_key``), so the in-process
# re-run looks the entries up under the same ``module.qualname``.
_KILLED_SERIAL_SWEEP = """
import functools
import os
import sys

from repro.runtime import ExperimentRunner, ResultCache
from repro.runtime.cache import config_key


@functools.wraps(config_key)
def dies_at_position_5(config):
    if config == 6:
        os._exit(17)
    return config_key(config)


runner = ExperimentRunner(jobs=1, cache=ResultCache(root=sys.argv[1]))
runner.run_many(dies_at_position_5, [1, 2, 3, 4, 5, 6, 7, 8])
"""


def test_serial_sweep_killed_mid_run_resumes_from_cache(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_SERIAL_SWEEP, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 17, proc.stderr
    cache = ResultCache(root=tmp_path)
    assert len(cache) == 5
    _assert_resumes(config_key, cache, RESUME_CONFIGS, settled=5)


def test_pool_sweep_failing_mid_run_resumes_from_cache(tmp_path):
    injector = FaultInjector(
        _square, {6: FaultSpec("raise", attempts=1)}, tmp_path / "faults"
    )
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(jobs=2, cache=cache)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, RESUME_CONFIGS)
    assert excinfo.value.index == 5
    assert len(cache) == 5
    _assert_resumes(_square, cache, RESUME_CONFIGS, settled=5)


def test_supervised_sweep_crashing_mid_run_resumes_from_cache(tmp_path):
    injector = FaultInjector(
        _square, {6: FaultSpec("crash", attempts=1)}, tmp_path / "faults"
    )
    cache = ResultCache(root=tmp_path / "cache")
    runner = ExperimentRunner(jobs=2, max_retries=0, timeout=60.0, cache=cache)
    with pytest.raises(WorkerError) as excinfo:
        runner.run_many(injector, RESUME_CONFIGS)
    assert isinstance(excinfo.value.cause, WorkerCrash)
    # Position 5 launches only once two slots are free, i.e. after at
    # least 4 of positions 0..4 have settled.
    settled = len(cache)
    assert settled >= 4
    _assert_resumes(_square, cache, RESUME_CONFIGS, settled=settled)


# -- constructor validation --------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"retry_backoff": -0.5},
        {"timeout": 0.0},
        {"timeout": -3.0},
        {"timeout": math.nan},
        {"retry_backoff": math.nan},
    ],
)
def test_invalid_runner_options_rejected(kwargs):
    with pytest.raises(ValueError):
        ExperimentRunner(jobs=1, **kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "explode"},
        {"kind": "raise", "attempts": 0},
        {"kind": "hang", "hang_seconds": -1.0},
        {"kind": "hang", "hang_seconds": math.nan},
        {"kind": "raise", "attempts": math.nan},
    ],
)
def test_invalid_fault_spec_rejected(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)


def test_fault_tolerant_property_reflects_options():
    assert not ExperimentRunner(jobs=1).fault_tolerant
    assert ExperimentRunner(jobs=1, max_retries=1).fault_tolerant
    assert ExperimentRunner(jobs=1, timeout=5.0).fault_tolerant
    assert ExperimentRunner(jobs=1, partial=True).fault_tolerant
