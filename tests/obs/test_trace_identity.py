"""The observability contract: observing a run never changes its outputs.

A traced (and metered) simulation must be bit-identical to an untraced
one — trace points read state; they draw no random numbers, schedule no
events, and mutate no model objects.  These tests run the same scenarios
with observability off and on and require byte-equal results.
"""

import dataclasses

from repro.obs import (
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    use_registry,
    use_tracer,
)
from repro.sim import TwoCellSimulator, figure6_config, run_campus_day


def _run_twocell(seed=5, horizon=120.0, policy="probabilistic"):
    config = figure6_config(policy=policy, horizon=horizon, seed=seed)
    return TwoCellSimulator(config).run()


def _run_floorplan(seed=5, day_length=3600.0):
    """A short campus day: a floorplan run that fires DES events and
    writes domain trace records."""
    return run_campus_day(seed=seed, day_length=day_length, walkers=2, patrons=5)


def _stats_tuple(result):
    return dataclasses.astuple(result.stats)


def test_traced_floorplan_run_is_bit_identical():
    baseline = _stats_tuple(_run_floorplan())
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        traced = _stats_tuple(_run_floorplan())
    assert traced == baseline
    assert len(sink.records()) > 0  # the trace actually recorded something


def test_metered_twocell_run_is_bit_identical():
    baseline = _stats_tuple(_run_twocell())
    registry = MetricsRegistry()
    with use_registry(registry):
        metered = _stats_tuple(_run_twocell())
    assert metered == baseline


def test_traced_and_metered_together_across_policies():
    for policy in ("plain", "probabilistic"):
        baseline = _stats_tuple(_run_twocell(policy=policy, horizon=60.0))
        with use_tracer(Tracer(RingBufferSink())):
            with use_registry(MetricsRegistry()):
                observed = _stats_tuple(
                    _run_twocell(policy=policy, horizon=60.0)
                )
        assert observed == baseline, policy


def test_traced_campus_slice_is_bit_identical():
    # End-to-end over the full resource-management pipeline (admission,
    # adaptation, reservations, handoffs) — the richest trace surface.
    from repro.sim import run_campus_day

    def snapshot():
        result = run_campus_day(day_length=900.0, walkers=2, patrons=5)
        stats = result.stats
        return (
            stats.new_requests,
            stats.admitted,
            stats.handoff_attempts,
            stats.handoff_drops,
            result.static_upgrades,
        )

    baseline = snapshot()
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        traced = snapshot()
    assert traced == baseline
    kinds = {r["kind"] for r in sink.records()}
    assert "des.fire" in kinds


def test_trace_records_do_not_leak_mutable_sim_state():
    # Records must hold scalars/strings, not live simulation objects whose
    # later mutation would retroactively change the trace.
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        _run_floorplan()
    assert sink.records()
    for record in sink.records():
        for key, value in record.items():
            assert isinstance(
                value, (int, float, str, bool, list, tuple, type(None))
            ), (record["kind"], key, type(value))
