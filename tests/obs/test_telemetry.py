"""RunTelemetry accounting and its ExperimentRunner integration."""

import json

import pytest

from repro.obs import RunTelemetry
from repro.runtime import ExperimentRunner, ResultCache
from repro.runtime.runner import FailedResult


# -- the ledger itself ------------------------------------------------------


def test_record_and_derived_stats():
    t = RunTelemetry()
    t.record_replication(1.0)
    t.record_replication(3.0)
    assert t.replications == 2
    assert t.wall_time_total == 4.0
    assert t.wall_time_mean == 2.0
    assert t.wall_time_max == 3.0


def test_cache_hit_rate_and_speedup():
    t = RunTelemetry()
    assert t.cache_hit_rate == 0.0
    assert t.speedup is None
    t.cache_hits, t.cache_misses = 3, 1
    assert t.cache_hit_rate == 0.75
    t.record_replication(8.0)
    t.elapsed = 2.0
    assert t.speedup == pytest.approx(4.0)


def test_merge_folds_all_fields():
    a, b = RunTelemetry(), RunTelemetry()
    a.record_replication(1.0)
    a.batches, a.retries = 1, 2
    b.record_replication(2.0)
    b.batches, b.timeouts, b.crashes, b.failures = 1, 1, 1, 1
    b.cache_hits = 5
    merged = a.merge(b)
    assert merged is a
    assert a.batches == 2
    assert a.replications == 2
    assert a.retries == 2 and a.timeouts == 1 and a.crashes == 1
    assert a.failures == 1 and a.cache_hits == 5
    assert a.wall_times == [1.0, 2.0]


def test_to_dict_and_json_shape():
    t = RunTelemetry()
    t.record_replication(0.5)
    t.batches = 1
    t.elapsed = 1.0
    data = json.loads(t.to_json())
    assert data["replications"] == 1
    assert data["cache"] == {"hits": 0, "misses": 0, "hit_rate": 0.0}
    assert data["wall_time"]["replication_max"] == 0.5


def test_summary_text_mentions_key_numbers():
    t = RunTelemetry()
    t.record_replication(0.25)
    t.batches = 1
    t.elapsed = 0.5
    t.retries = 2
    t.cache_hits = 1
    text = t.summary()
    assert "replications:  1" in text
    assert "2 retries" in text
    assert "1 hits" in text


def test_des_events_accumulate_and_rate():
    t = RunTelemetry()
    t.record_replication(2.0, events=300)
    t.record_replication(2.0, events=100)
    assert t.des_events == 400
    assert t.events_per_second == pytest.approx(100.0)
    data = t.to_dict()
    assert data["des"] == {
        "events": 400,
        "events_per_second": 100.0,
        "core": None,
        "cores": {},
    }
    assert "des events:" in t.summary()
    assert "400 processed" in t.summary()


def test_des_events_default_zero_and_merge():
    a, b = RunTelemetry(), RunTelemetry()
    a.record_replication(1.0)  # events defaults to 0
    assert a.des_events == 0
    assert a.events_per_second == 0.0
    assert "des events:" not in a.summary()  # suppressed when nothing counted
    b.record_replication(1.0, events=50)
    a.merge(b)
    assert a.des_events == 50


def _run_campus_slice(seed):
    """A short floorplan run: a replication that fires DES events."""
    from repro.sim import run_campus_day

    return run_campus_day(
        seed=seed, day_length=900.0, walkers=2, patrons=5
    ).stats.new_requests


def test_runner_counts_des_events_serial_and_pool():
    """The events/sec metric is measured *in-worker* (DES kernel events per
    replication, shipped back with the wall time), so the totals must agree
    between serial and process-pool execution of the same workload."""
    serial = ExperimentRunner(jobs=1)
    serial.run_many(_run_campus_slice, [1, 2])
    assert serial.telemetry.des_events > 0
    assert serial.telemetry.events_per_second > 0

    pool = ExperimentRunner(jobs=2)
    pool.run_many(_run_campus_slice, [1, 2])
    assert pool.telemetry.des_events == serial.telemetry.des_events


def test_serial_and_pool_report_same_core():
    """Workers ship their per-core event counts back with the wall time, so
    serial and process-pool runs both name the one kernel core and credit it
    with every event."""
    serial = ExperimentRunner(jobs=1)
    serial.run_many(_run_campus_slice, [1, 2])
    assert serial.telemetry.des_core == "pure"
    assert serial.telemetry.des_cores["pure"] == serial.telemetry.des_events > 0

    pool = ExperimentRunner(jobs=2)
    pool.run_many(_run_campus_slice, [1, 2])
    assert pool.telemetry.des_core == "pure"
    assert pool.telemetry.des_cores == serial.telemetry.des_cores


def test_telemetry_records_single_core():
    t = RunTelemetry()
    t.record_replication(1.0, events=5, cores={"pure": 5})
    t.record_core_events({"pure": 3, "native": 0})  # zero counts ignored
    assert t.des_cores == {"pure": 8}
    assert t.des_core == "pure"
    assert "[pure core]" in t.summary()


def test_telemetry_merge_folds_core_events():
    a, b = RunTelemetry(), RunTelemetry()
    a.record_core_events({"pure": 4})
    b.record_core_events({"pure": 6})
    a.merge(b)
    assert a.des_cores == {"pure": 10}


def test_to_dict_surfaces_core():
    t = RunTelemetry()
    t.record_replication(1.0, events=20, cores={"pure": 20})
    data = t.to_dict()
    assert data["des"]["core"] == "pure"
    assert data["des"]["cores"] == {"pure": 20}


# -- runner integration -----------------------------------------------------


def _double(x):
    return x * 2


def _fail_on_odd(x):
    if x % 2:
        raise ValueError(f"odd input {x}")
    return x


def test_serial_runner_counts_replications_and_elapsed():
    runner = ExperimentRunner(jobs=1)
    assert runner.run_many(_double, [1, 2, 3]) == [2, 4, 6]
    t = runner.telemetry
    assert t.batches == 1
    assert t.replications == 3
    assert len(t.wall_times) == 3
    assert t.elapsed > 0
    assert t.failures == 0


def test_runner_counts_cache_hits_and_misses(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    first = ExperimentRunner(jobs=1, cache=cache)
    first.run_many(_double, [1, 2])
    assert first.telemetry.cache_misses == 2
    assert first.telemetry.cache_hits == 0
    second = ExperimentRunner(jobs=1, cache=cache)
    second.run_many(_double, [1, 2, 3])
    assert second.telemetry.cache_hits == 2
    assert second.telemetry.cache_misses == 1
    assert second.telemetry.replications == 1  # only the miss simulated
    assert second.telemetry.cache_hit_rate == pytest.approx(2 / 3)


def test_serial_ft_counts_retries_and_failures():
    runner = ExperimentRunner(
        jobs=1, max_retries=1, partial=True, sleep=lambda s: None
    )
    results = runner.run_many(_fail_on_odd, [1, 2])
    assert isinstance(results[0], FailedResult)
    assert results[1] == 2
    t = runner.telemetry
    assert t.retries == 1  # one re-attempt for the odd config
    assert t.failures == 1
    assert t.replications == 1  # only the success is a replication


def test_pool_runner_ships_wall_times_back(tmp_path):
    runner = ExperimentRunner(jobs=2)
    assert runner.run_many(_double, [1, 2, 3, 4]) == [2, 4, 6, 8]
    t = runner.telemetry
    assert t.replications == 4
    assert len(t.wall_times) == 4
    assert all(w >= 0 for w in t.wall_times)


def test_supervised_runner_counts_crashes():
    runner = ExperimentRunner(jobs=2, partial=True)
    results = runner.run_many(_crash_if_negative, [1, -1])
    assert results[0] == 1
    assert isinstance(results[1], FailedResult)
    t = runner.telemetry
    assert t.crashes == 1
    assert t.failures == 1
    assert t.replications == 1


def _crash_if_negative(x):
    import os

    if x < 0:
        os._exit(13)
    return x
