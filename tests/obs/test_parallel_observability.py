"""Observability must be jobs-invariant: merge workers, change nothing.

Workers run with a private registry and ring-buffer tracer; the
coordinator folds their snapshots back in deterministic replication
order.  The contract tested here is strict equality: ``--metrics-json``,
``--trace``, and the trace summary must be *byte-identical* at any
``--jobs N`` — and invariant under ``PYTHONHASHSEED``, because pool
workers are separate interpreters with their own hash seeds.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.obs import MetricsRegistry, RingBufferSink, Tracer, use_registry, use_tracer
from repro.runtime import ExperimentRunner
from repro.sim import figure6_config, simulate_twocell_stats

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
HASH_SEEDS = ("0", "1", "31337")


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- CLI: jobs-invariance ----------------------------------------------------


def test_metrics_json_identical_across_jobs(tmp_path, capsys):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["table2", "--jobs", "1", "--metrics-json", str(serial)]) == 0
    assert main(["table2", "--jobs", "4", "--metrics-json", str(parallel)]) == 0
    capsys.readouterr()
    assert _read(serial) == _read(parallel)


def test_trace_jsonl_identical_across_jobs(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    assert main(["table2", "--jobs", "1", "--trace", str(serial)]) == 0
    assert main(["table2", "--jobs", "4", "--trace", str(parallel)]) == 0
    capsys.readouterr()
    assert _read(serial) == _read(parallel)
    # Parallel-collected records are stamped with their replication index.
    lines = _read(parallel).decode("utf-8").splitlines()
    assert lines and all("replication" in json.loads(l) for l in lines)


def test_trace_summarize_identical_across_jobs(tmp_path, capsys):
    summaries = []
    for jobs in ("1", "4"):
        path = tmp_path / f"trace-{jobs}.jsonl"
        assert main(["table2", "--jobs", jobs, "--trace", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(path)]) == 0
        summaries.append(capsys.readouterr().out)
    assert summaries[0] == summaries[1]


def test_stats_reports_worker_trace_merge(tmp_path, capsys):
    assert main([
        "table2", "--jobs", "2", "--trace", str(tmp_path / "t.jsonl"),
        "--stats",
    ]) == 0
    out = capsys.readouterr().out
    assert "worker traces:" in out


# -- hash-seed invariance (subprocess: PYTHONHASHSEED is read at startup) ----


def _metrics_stdout(hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table2", "--jobs", "2",
         "--metrics-json", "-"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # stdout carries the table text first, then the indented JSON document.
    start = proc.stdout.index("\n{") + 1
    return proc.stdout[start:]


def test_merged_metrics_json_is_hashseed_invariant():
    outputs = {_metrics_stdout(seed) for seed in HASH_SEEDS}
    assert len(outputs) == 1, (
        "merged --metrics-json depends on PYTHONHASHSEED:\n"
        + "\n---\n".join(sorted(outputs))
    )
    payload = json.loads(next(iter(outputs)))
    assert any(
        m["name"] == "admission_decisions_total" for m in payload["metrics"]
    )


# -- runner-level merge ------------------------------------------------------


def _sweep_configs():
    return [
        figure6_config(policy="probabilistic", seed=seed, horizon=60.0)
        for seed in (1, 2, 3, 4)
    ]


def _observed_sweep(jobs):
    registry = MetricsRegistry()
    sink = RingBufferSink(capacity=1 << 20)
    with use_registry(registry), use_tracer(Tracer(sink)):
        results = ExperimentRunner(jobs=jobs).run_many(
            simulate_twocell_stats, _sweep_configs()
        )
    return results, registry.to_json(indent=2), sink.records()


def test_runner_merge_matches_serial_observation():
    serial_results, serial_metrics, serial_records = _observed_sweep(1)
    pool_results, pool_metrics, pool_records = _observed_sweep(2)
    assert pool_results == serial_results
    assert pool_metrics == serial_metrics
    assert pool_records == serial_records
    assert len(pool_records) > 0
    # Replication stamps are monotonic in submission order.
    stamps = [r["replication"] for r in pool_records]
    assert stamps == sorted(stamps)
    assert set(stamps) == {0, 1, 2, 3}


def test_no_observers_means_no_snapshot_overhead():
    runner = ExperimentRunner(jobs=2)
    runner.run_many(simulate_twocell_stats, _sweep_configs())
    assert runner.telemetry.trace_records == 0
