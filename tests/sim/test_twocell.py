"""Tests for the two-cell teletraffic simulator (Figure 6 substrate)."""

import dataclasses
import heapq
import os
import pathlib
import subprocess
import sys

import pytest

from repro.des import Environment
from repro.sim import TwoCellConfig, TwoCellSimulator, figure6_config
from repro.traffic.arrivals import TypeSpec


def run(policy="plain", horizon=120.0, seed=3, **kw):
    config = figure6_config(policy=policy, horizon=horizon, seed=seed, **kw)
    return TwoCellSimulator(config).run()


def test_config_validation():
    with pytest.raises(ValueError):
        TwoCellConfig(capacity=0.0)
    with pytest.raises(ValueError):
        TwoCellConfig(policy="bogus")
    with pytest.raises(ValueError):
        TwoCellConfig(horizon=10.0, warmup=20.0)


def test_reproducible_with_seed():
    a = run(seed=5)
    b = run(seed=5)
    assert a.stats.new_requests == b.stats.new_requests
    assert a.stats.handoff_drops == b.stats.handoff_drops
    c = run(seed=6)
    assert (
        c.stats.new_requests != a.stats.new_requests
        or c.stats.handoff_attempts != a.stats.handoff_attempts
    )


def test_workload_statistics_plausible():
    result = run(horizon=120.0)
    stats = result.stats
    # lambda_total = 31 per cell, two cells, minus warmup.
    expected = 2 * 31 * (120.0 - 20.0)
    assert stats.new_requests == pytest.approx(expected, rel=0.1)
    # With h = 0.7, handoff attempts are a substantial share of admissions.
    assert stats.handoff_attempts > stats.admitted
    assert stats.completed > 0


def _pop_hook(monkeypatch, before_pop):
    """Call ``before_pop(queue)`` ahead of every entry the simulator pops,
    so a test sees the entry due next and the state the previous one left."""
    heappop = heapq.heappop

    def hooked(queue):
        before_pop(queue)
        return heappop(queue)

    monkeypatch.setattr(heapq, "heappop", hooked)


def test_bandwidth_never_exceeds_capacity(monkeypatch):
    config = figure6_config(policy="plain", horizon=60.0, seed=2)
    sim = TwoCellSimulator(config)
    checks = []

    def check(queue=None):
        checks.append(sim.now)
        for cell in sim.CELLS:
            assert sim._bandwidth_used(cell) <= config.capacity + 1e-9, sim.now

    _pop_hook(monkeypatch, check)
    sim.run()
    check()
    assert len(checks) > 10_000


def test_static_policy_blocks_more_drops_less_than_plain():
    plain = run(policy="plain", horizon=250.0)
    static = run(policy="static", static_reserve=6.0, horizon=250.0)
    assert static.blocking_probability > plain.blocking_probability
    assert static.dropping_probability <= plain.dropping_probability


def test_probabilistic_policy_trades_blocking_for_dropping():
    strict = run(policy="probabilistic", window=0.05, p_qos=0.001, horizon=250.0)
    loose = run(policy="probabilistic", window=0.05, p_qos=0.5, horizon=250.0)
    assert strict.blocking_probability >= loose.blocking_probability
    assert strict.dropping_probability <= loose.dropping_probability


def test_loose_pqos_approaches_plain_admission():
    loose = run(policy="probabilistic", window=0.05, p_qos=0.9999, horizon=250.0)
    plain = run(policy="plain", horizon=250.0)
    assert loose.blocking_probability == pytest.approx(
        plain.blocking_probability, abs=0.01
    )
    assert loose.dropping_probability == pytest.approx(
        plain.dropping_probability, abs=0.01
    )


def test_warmup_excluded_from_counts():
    short = run(policy="plain", horizon=60.0, warmup=50.0)
    long = run(policy="plain", horizon=60.0, warmup=5.0)
    assert short.stats.new_requests < long.stats.new_requests


#: Every counter of short seed-11 runs (horizon 60, warmup 20).  The other
#: tests here check statistical shape only; these pin the exact outcome, so
#: a refactor that flips one admission, drops one handoff differently or
#: draws the RNG in another order fails here.
PINNED_COUNTERS = [
    ("plain", {}, (2570, 2567, 3, 5968, 6, 2576)),
    ("static", {"static_reserve": 6.0}, (2520, 2478, 42, 5686, 4, 2485)),
    ("probabilistic", {"window": 0.02, "p_qos": 0.001}, (2554, 2506, 48, 5786, 1, 2520)),
    ("probabilistic", {"window": 0.02, "p_qos": 0.1}, (2590, 2578, 12, 5918, 9, 2579)),
    ("probabilistic", {"window": 0.2, "p_qos": 0.001}, (2545, 2521, 24, 5850, 9, 2505)),
    ("probabilistic", {"window": 0.2, "p_qos": 0.1}, (2570, 2567, 3, 5968, 6, 2576)),
]


@pytest.mark.parametrize("policy, overrides, counters", PINNED_COUNTERS)
def test_counters_pinned_exactly(policy, overrides, counters):
    stats = run(policy=policy, horizon=60.0, seed=11, **overrides).stats
    names = ("new_requests", "admitted", "blocked", "handoff_attempts",
             "handoff_drops", "completed")
    assert dataclasses.asdict(stats) == {**dict(zip(names, counters)), "extra": {}}


def test_plain_run_event_count_pinned(monkeypatch):
    """Every entry of the first pinned run is one arrival or one residency
    end.  With a process per connection and per arrival stream the same
    run fired 23,640 DES events, its outputs unchanged; on timeout
    callbacks it fired 16,122, the horizon's stop event included."""
    sim = TwoCellSimulator(figure6_config(policy="plain", horizon=60.0, seed=11))
    popped = []
    _pop_hook(monkeypatch, lambda queue: popped.append(queue[0][0]))
    sim.run()
    assert len(popped) == 16121
    assert popped == sorted(popped)
    assert popped[-1] == sim.now < 60.0 <= sim._queue[0][0]


def test_entry_at_the_horizon_does_not_fire():
    """The DES's URGENT stop event sorted before a timeout due exactly at
    the horizon, so such an entry stays queued."""
    sim = TwoCellSimulator(figure6_config(policy="plain", horizon=10.0, warmup=2.0))
    due = (10.0, -1, True, "q", 0)
    heapq.heappush(sim._queue, due)
    sim.run()
    assert sim._queue[0] == due


_POLICIES = [
    ("plain", {}),
    ("static", {"static_reserve": 6.0}),
    ("probabilistic", {"window": 0.05, "p_qos": 0.001}),
]


@pytest.mark.parametrize("policy, overrides", _POLICIES)
def test_twocell_starts_no_process(monkeypatch, policy, overrides):
    """The simulator builds no DES environment at all, so it can start no
    process: its events live on its own heap."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("TwoCellSimulator built a DES environment")

    monkeypatch.setattr(Environment, "__init__", refuse)
    stats = run(policy=policy, horizon=10.0, warmup=2.0, **overrides).stats
    assert stats.new_requests > 0 and stats.handoff_attempts > 0


@pytest.mark.parametrize("policy, overrides", _POLICIES)
def test_zero_rate_type_schedules_no_arrivals(policy, overrides):
    """A type with arrival rate 0 (allowed by ``TypeSpec``) draws no
    interarrival, so the run is the one-type run, counter for counter."""
    busy = (TypeSpec(bandwidth=1.0, arrival_rate=30.0, holding_mean=0.2, handoff_prob=0.7),)
    idle = (TypeSpec(bandwidth=4.0, arrival_rate=0.0, holding_mean=0.25, handoff_prob=0.7),)

    def counters(types):
        config = TwoCellConfig(
            types=types, policy=policy, seed=11, horizon=60.0, **overrides
        )
        return dataclasses.asdict(TwoCellSimulator(config).run().stats)

    alone = counters(busy)
    assert counters(busy + idle) == alone
    assert counters(idle + busy) == alone
    assert alone["new_requests"] > 0


_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

#: Runs a probabilistic replication that misses the pmf memos, then fails
#: if any scipy module was imported along the way.
_NO_SCIPY_SNIPPET = """
import sys
from repro.core import probabilistic
from repro.sim import figure6_config, simulate_twocell_stats
simulate_twocell_stats(
    figure6_config(window=0.02, p_qos=0.01, seed=1, horizon=5.0, warmup=1.0)
)
assert probabilistic._binomial_pmf.cache_info().misses > 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_figure6_path_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SNIPPET],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
