"""Span model tests: ids, ledger lifecycle, canonical form, and the
runner's span structure, which must not depend on placement."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.obs import (
    Span,
    SpanCollector,
    SpanLedger,
    canonical_structure,
    format_span_tree,
    get_span_collector,
    read_spans_jsonl,
    set_span_collector,
    use_span_collector,
    write_spans_jsonl,
)
from repro.obs.spans import (
    attempt_span_id,
    replication_span_id,
    span_from_record,
    span_to_record,
    sweep_span_id,
)
from repro.runtime import ExperimentRunner
from repro.runtime.cache import config_key


# -- ids --------------------------------------------------------------------


def test_span_id_formats():
    assert sweep_span_id(0) == "sweep-000"
    assert replication_span_id(7) == "rep-00007"
    assert attempt_span_id(7, 2) == "rep-00007.a2"


# -- records ----------------------------------------------------------------


def test_record_round_trip_and_key_order():
    span = Span(
        span_id="rep-00001",
        parent_id="sweep-000",
        name="replication 1",
        kind="replication",
        status="ok",
        start=1.5,
        duration=0.25,
        attrs={"position": 1, "attempts": 1},
    )
    record = span_to_record(span)
    assert list(record) == [
        "span", "parent", "name", "kind", "status", "start", "duration",
        "attrs",
    ]
    assert list(record["attrs"]) == sorted(record["attrs"])
    assert span_from_record(record) == span


def test_record_defaults_are_tolerant():
    span = span_from_record({"span": "x", "kind": "sweep"})
    assert span.span_id == "x"
    assert span.parent_id is None
    assert span.name == "x"
    assert span.status == "ok"
    assert span.attrs == {}


# -- collector globals ------------------------------------------------------


def test_collector_install_and_restore():
    assert get_span_collector() is None
    collector = SpanCollector()
    with use_span_collector(collector):
        assert get_span_collector() is collector
        get_span_collector().emit(
            Span("sweep-000", None, "s", "sweep", "ok", 0.0, 1.0)
        )
    assert get_span_collector() is None
    assert collector.counts == {"sweep": 1}
    previous = set_span_collector(collector)
    assert previous is None
    assert set_span_collector(None) is collector


# -- ledger lifecycle -------------------------------------------------------


def _fixed_clock(values):
    it = iter(values)
    return lambda: next(it)


def test_ledger_single_attempt_success():
    collector = SpanCollector()
    ledger = SpanLedger(collector, "sweep-000", clock=_fixed_clock([10.0, 10.0]))
    ledger.attempt(3, "ok", 2.0)
    ledger.settle(3, "ok")
    spans = {s.span_id: s for s in collector.spans()}
    attempt = spans["rep-00003.a1"]
    assert attempt.parent_id == "rep-00003"
    assert attempt.kind == "attempt"
    assert attempt.duration == 2.0
    assert attempt.start == 8.0  # now - seconds
    rep = spans["rep-00003"]
    assert rep.parent_id == "sweep-000"
    assert rep.status == "ok"
    assert rep.attrs["attempts"] == 1
    assert rep.duration == 2.0


def test_ledger_retries_number_attempts_and_sum_durations():
    collector = SpanCollector()
    ledger = SpanLedger(
        collector, "sweep-000", clock=_fixed_clock([1.0, 2.0, 3.0, 3.0])
    )
    ledger.attempt(0, "error", 0.5)
    ledger.attempt(0, "timeout", 0.25)
    ledger.attempt(0, "ok", 0.125)
    ledger.settle(0, "ok")
    spans = {s.span_id: s for s in collector.spans()}
    assert spans["rep-00000.a1"].status == "error"
    assert spans["rep-00000.a2"].status == "timeout"
    assert spans["rep-00000.a3"].status == "ok"
    rep = spans["rep-00000"]
    assert rep.attrs["attempts"] == 3
    assert rep.duration == pytest.approx(0.875)


def test_ledger_settle_without_attempt_reports_one():
    collector = SpanCollector()
    ledger = SpanLedger(collector, "sweep-000", clock=_fixed_clock([1.0]))
    ledger.settle(2, "failed")
    (rep,) = collector.spans()
    assert rep.span_id == "rep-00002"
    assert rep.status == "failed"
    assert rep.attrs["attempts"] == 1


# -- canonical structure ----------------------------------------------------


def _spans(duration=1.0, shuffle=False):
    spans = [
        Span("sweep-000", None, "sweep", "sweep", "ok", 0.0, duration),
        Span("rep-00000", "sweep-000", "replication 0", "replication", "ok",
             0.0, duration, {"position": 0, "attempts": 1}),
        Span("rep-00000.a1", "rep-00000", "attempt 1", "attempt", "ok",
             0.0, duration, {"position": 0, "attempt": 1}),
    ]
    if shuffle:
        spans.reverse()
    return spans


def test_canonical_structure_ignores_durations_and_order():
    base = canonical_structure(_spans())
    assert canonical_structure(_spans(duration=9.0)) == base
    assert canonical_structure(_spans(shuffle=True)) == base


def test_canonical_structure_sees_status_and_count_changes():
    base = canonical_structure(_spans())
    failed = _spans()
    failed[1].status = "failed"
    assert canonical_structure(failed) != base
    extra = _spans() + [
        Span("rep-00001", "sweep-000", "replication 1", "replication", "ok",
             0.0, 1.0)
    ]
    assert canonical_structure(extra) != base


# -- jsonl I/O --------------------------------------------------------------


@pytest.mark.parametrize("name", ["spans.jsonl", "spans.jsonl.gz"])
def test_write_read_round_trip(tmp_path, name):
    spans = _spans(shuffle=True)
    path = tmp_path / name
    write_spans_jsonl(path, spans)
    loaded = read_spans_jsonl(path)
    # Written sorted by span id regardless of emission order.
    assert [s.span_id for s in loaded] == sorted(s.span_id for s in spans)
    assert {s.span_id: s for s in loaded} == {s.span_id: s for s in spans}
    if name.endswith(".gz"):
        assert path.read_bytes()[:2] == b"\x1f\x8b"


def test_read_rejects_non_span_lines(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        json.dumps({"not-a-span": 1}) + "\n"
        + json.dumps(span_to_record(_spans()[0])) + "\n"
    )
    with pytest.raises(ValueError, match="not a span record"):
        read_spans_jsonl(path)


# -- rendering --------------------------------------------------------------


def test_format_span_tree_nests_children_and_roots_orphans():
    spans = _spans()
    spans.append(
        Span("rep-99999", "sweep-missing", "orphan", "replication", "ok",
             0.0, 0.5)
    )
    text = format_span_tree(spans)
    lines = text.splitlines()
    assert any(line.startswith("sweep-000 [sweep] ok") for line in lines)
    assert any(line.startswith("  rep-00000 ") for line in lines)
    assert any(line.startswith("    rep-00000.a1 ") for line in lines)
    # Orphan parents render at the root level instead of vanishing.
    assert any(line.startswith("rep-99999 ") for line in lines)


# -- runner span structure --------------------------------------------------


def _flaky_worker(config):
    marker = pathlib.Path(config["marker"])
    if not marker.exists():
        marker.write_text("attempted")
        raise ValueError("first attempt fails")
    return config["seed"]


def _configs(n=8):
    return [{"seed": i, "span-test": True} for i in range(n)]


def _collect(runner, configs, fn=config_key, raises=None):
    collector = SpanCollector()
    with use_span_collector(collector):
        if raises is None:
            runner.run_many(fn, configs)
        else:
            with pytest.raises(raises):
                runner.run_many(fn, configs)
    return collector.spans()


def test_structure_identical_serial_pool_supervised():
    configs = _configs()
    serial = _collect(ExperimentRunner(jobs=1), configs)
    pool = _collect(ExperimentRunner(jobs=2), configs)
    supervised = _collect(ExperimentRunner(jobs=2, max_retries=1), configs)

    base = canonical_structure(serial)
    assert canonical_structure(pool) == base
    assert canonical_structure(supervised) == base

    counts = {}
    for span in serial:
        counts[span.kind] = counts.get(span.kind, 0) + 1
    assert counts == {"sweep": 1, "replication": 8, "attempt": 8}


def test_serial_parentage_and_ids():
    configs = _configs(3)
    spans = {s.span_id: s for s in _collect(ExperimentRunner(jobs=1), configs)}
    sweep = spans["sweep-000"]
    assert sweep.parent_id is None
    assert sweep.status == "ok"
    for i in range(3):
        rep = spans[f"rep-{i:05d}"]
        assert rep.parent_id == "sweep-000"
        assert rep.attrs["position"] == i
        attempt = spans[f"rep-{i:05d}.a1"]
        assert attempt.parent_id == rep.span_id


def test_retry_produces_numbered_attempt_spans(tmp_path):
    configs = [{"seed": 0, "marker": str(tmp_path / "marker")}]
    runner = ExperimentRunner(jobs=1, max_retries=2, retry_backoff=0.0)
    spans = {s.span_id: s for s in _collect(runner, configs, fn=_flaky_worker)}
    assert spans["rep-00000.a1"].status == "error"
    assert spans["rep-00000.a2"].status == "ok"
    rep = spans["rep-00000"]
    assert rep.status == "ok"
    assert rep.attrs["attempts"] == 2


def test_exhausted_retries_settle_failed(tmp_path):
    from repro.runtime import WorkerError

    def no_retries():
        return ExperimentRunner(jobs=1, max_retries=0)

    configs = [{"seed": 0, "marker": str(tmp_path / "never-written" / "x")}]
    spans = {
        s.span_id: s
        for s in _collect(no_retries(), configs, fn=_flaky_worker,
                          raises=WorkerError)
    }
    assert spans["rep-00000.a1"].status == "error"
    assert spans["rep-00000"].status == "failed"
    assert spans["sweep-000"].status == "failed"


# -- hash-seed independence -------------------------------------------------

HASH_SEEDS = ("0", "1", "31337")

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

# Prints the structure digest of a serial and of a pooled run of one sweep.
_STRUCTURE_DIGESTS = """
import hashlib

from repro.obs import SpanCollector, canonical_structure, use_span_collector
from repro.runtime import ExperimentRunner
from repro.runtime.cache import config_key

configs = [{"seed": i, "hashseed-span-test": True} for i in range(6)]

for jobs in (1, 2):
    collector = SpanCollector()
    with use_span_collector(collector):
        ExperimentRunner(jobs=jobs).run_many(config_key, configs)
    print(hashlib.sha256(canonical_structure(collector.spans())).hexdigest())
"""


def test_canonical_structure_independent_of_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    digests = set()
    for seed in HASH_SEEDS:
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", _STRUCTURE_DIGESTS],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        serial, pool = proc.stdout.split()
        assert serial == pool, f"PYTHONHASHSEED={seed}: serial and pool differ"
        digests.add(serial)
    assert len(digests) == 1, digests
