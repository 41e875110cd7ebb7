"""Regression tests: simulation results must not depend on PYTHONHASHSEED.

PR 1 made "parallel is bit-identical to serial" a hard contract, and pool
workers are separate interpreters with their own hash seeds.  Any code path
that lets ``set`` iteration order (hash-randomized for strings) leak into
float accumulation or container insertion order breaks that contract.
These tests re-run small scenarios under several explicit hash seeds in
subprocesses and require bit-identical output.

Each test pins a concrete fix:

* ``compute_advertised_rate`` summed ``recorded[c] for c in restricted``
  (a set) — float addition order varied with the hash seed;
* ``maxmin_allocation`` iterated its ``active`` set while mutating float
  state;
* ``FloorplanSimulator`` built ``neighbor_ledgers`` dicts and the
  cafeteria's ``default_neighbors`` list straight from ``Cell.neighbors``
  (a set), so downstream reservation spreading saw hash-ordered
  containers, and
  ``CellularResourceManager.update_pools`` walked neighbors unsorted.
"""

import os
import pathlib
import subprocess
import sys

HASH_SEEDS = ("0", "1", "31337")

_SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run_snippet(snippet: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _assert_hashseed_invariant(snippet: str) -> None:
    outputs = {_run_snippet(snippet, seed) for seed in HASH_SEEDS}
    assert len(outputs) == 1, (
        "output depends on PYTHONHASHSEED:\n" + "\n---\n".join(sorted(outputs))
    )


# Recorded rates spanning eleven orders of magnitude: summing them in
# different orders rounds differently.  With the pre-fix code (sum over a
# hash-ordered set) this scenario provably returned three distinct
# advertised rates across PYTHONHASHSEED in {0, 1, 7, 99, 31337}.
_RESTRICTED_RATES = [
    1.1910670915023905e-08, 1.547440911328424e-08, 1.6183689966753317e-08,
    1.7197046864039542e-08, 1.8988382879679937e-08, 0.008475399302126417,
    0.009264654264014635, 0.009407120000849237, 0.009705790790018088,
    0.009941398178342898, 0.011372975279455922, 0.011441643263533656,
    0.011500549571783, 0.01191367182004937, 0.013844099648771724,
    0.014646677818384787, 0.014753157498748013, 0.015267448165489928,
    0.10987633446591479, 0.11397457849666788, 0.11838687225385854,
    0.1243910876887132, 0.1444989026275516, 0.15756510141648886,
    0.15833820394550313, 0.17036425461655202, 0.18750872873361457,
    0.19677999949201716, 0.19872592010330128, 128.45403939268607,
    134.7171567960644, 136.91984542727036, 162.49237973613785,
    211.14104666858955, 217.030018769398, 417893.4279975286,
    510591.887658775, 600989.6394741648, 150468685.58173904,
    180317946.927987,
]
_CAPACITY = 582317100.0512879


def test_advertised_rate_bit_identical_across_hash_seeds():
    _assert_hashseed_invariant(
        f"""
from repro.core.adaptation import compute_advertised_rate
small = {_RESTRICTED_RATES!r}
recorded = {{f"conn-{{i}}": v for i, v in enumerate(small)}}
recorded["big"] = 1e12
print(repr(compute_advertised_rate({_CAPACITY!r}, recorded, mu_prev=5e8)))
"""
    )


def test_maxmin_allocation_bit_identical_across_hash_seeds():
    _assert_hashseed_invariant(
        """
from repro.core.maxmin import MaxMinProblem, maxmin_allocation
problem = MaxMinProblem()
for i in range(6):
    problem.add_link(f"link-{i}", capacity=10.0 + 0.1 * i)
for i in range(40):
    problem.add_connection(
        f"conn-{i}",
        demand=0.9 + 0.037 * i,
        path=[f"link-{i % 6}", f"link-{(i + 1) % 6}"],
    )
allocation = maxmin_allocation(problem)
print(sorted((k, repr(v)) for k, v in allocation.items()))
"""
    )


def test_cell_reservations_bit_identical_across_hash_seeds():
    """``CellReservations`` sums targeted/aggregate dicts and syncs the
    result into the link ledger; replaying a scripted operation mix with
    string keys must round identically under every hash seed."""
    _assert_hashseed_invariant(
        """
from repro.core import CellReservations
from repro.network import Link

link = Link("bs", "air", capacity=1600.0)
resv = CellReservations(link, min_pool_fraction=0.05, max_pool_fraction=0.20)
portables = [f"portable-{i}" for i in range(9)]
tags = ["lounge", "cafeteria", "meeting-room", "lecture-hall"]
for i, pid in enumerate(portables):
    resv.reserve_for_portable(pid, 16.0 + 0.37 * i)
for j, tag in enumerate(tags):
    resv.reserve_aggregate(tag, 48.0 + 1.13 * j)
resv.claim_portable("portable-3")
resv.release_portable("portable-5")
resv.draw_aggregate("lounge", 17.3)
resv.draw_aggregate("cafeteria", 200.0)
resv.set_pool(120.0)
resv.draw_pool(33.3)
resv.adapt_pool_for_static_neighbors(max_static_rate=64.0)
print(repr((
    resv.pool,
    resv.targeted_total,
    resv.aggregate_total,
    resv.total,
    link.reserved,
    link.excess_available,
)))
"""
    )


def test_prediction_cascade_bit_identical_across_hash_seeds():
    """The three-level predictor walks neighbor *sets* and per-cell history
    dicts; predictions for a scripted movement history must not depend on
    hash-randomized iteration order."""
    _assert_hashseed_invariant(
        """
from repro.core.prediction import ProfileAwarePredictor
from repro.profiles.records import CellClass
from repro.profiles.server import ProfileServer

server = ProfileServer(zone_id="wing")
cells = {
    "corridor": (CellClass.CORRIDOR, {"office_a", "office_b", "lounge", "lab"}),
    "office_a": (CellClass.OFFICE, {"corridor"}),
    "office_b": (CellClass.OFFICE, {"corridor"}),
    "lounge": (CellClass.MEETING_ROOM, {"corridor", "lab"}),
    "lab": (CellClass.DEFAULT, {"corridor", "lounge"}),
}
for cell_id, (cls, neighbors) in cells.items():
    profile = server.register_cell(cell_id, cls, neighbors=neighbors)
    if cls is CellClass.OFFICE:
        profile.occupants |= {f"owner_{cell_id}"}

moves = [
    ("owner_office_a", "lounge", "corridor"),
    ("owner_office_a", "corridor", "office_a"),
    ("visitor-1", "lab", "corridor"),
    ("visitor-1", "corridor", "lounge"),
    ("visitor-2", "lab", "corridor"),
    ("visitor-2", "corridor", "lounge"),
    ("visitor-3", "office_b", "corridor"),
    ("visitor-3", "corridor", "lab"),
] * 3
for portable, from_cell, to_cell in moves:
    server.report_handoff(portable, from_cell, to_cell)

predictor = ProfileAwarePredictor(server)
out = []
for portable in ("owner_office_a", "owner_office_b", "visitor-1", "stranger"):
    for previous in (None, "lab", "lounge"):
        p = predictor.predict_for(portable, "corridor", previous)
        out.append((portable, str(previous), str(p.cell), p.level.name))
print(out)
"""
    )


def test_cache_eviction_metadata_stable_across_hash_seeds():
    """LRU eviction metadata (content keys, sizes, eviction order) must be
    identical across hash seeds: configs containing sets are canonicalized
    before hashing and recency comes from explicit file timestamps, so a
    prune in one process evicts the same entries any process would."""
    _assert_hashseed_invariant(
        """
import os
import tempfile

from repro.runtime import ResultCache, config_key

root = tempfile.mkdtemp()
cache = ResultCache(root=root)
configs = [
    {"seed": 1, "cells": frozenset({"office_a", "lounge", "lab"})},
    {"seed": 2, "cells": frozenset({"cafeteria", "corridor"})},
    {"seed": 3, "cells": frozenset({"office_b"})},
    {"seed": 4, "cells": frozenset({"office_a", "office_b"})},
]
for rank, config in enumerate(configs):
    path = cache.put("worker.ns", config, sorted(config["cells"]))
    stamp = 1_000_000_000 + 60 * rank
    os.utime(path, (stamp, stamp))

before = [(e.namespace, e.key, e.size) for e in cache.entries()]
evicted, freed = cache.prune(max_entries=2)
after = [(e.namespace, e.key, e.size) for e in cache.entries()]
print((
    [config_key(c) for c in configs],
    before,
    (evicted, freed),
    after,
))
"""
    )


def test_floorplan_simulation_bit_identical_across_hash_seeds():
    _assert_hashseed_invariant(
        """
from repro.core import audio_request
from repro.mobility import campus_floorplan
from repro.sim import FloorplanSimulator

sim = FloorplanSimulator(campus_floorplan(), capacity=1600.0, seed=7)
sim.add_portable("u1", "cor-4")
sim.add_portable("u2", "cor-4")
sim.request_connection("u1", audio_request())
sim.request_connection("u2", audio_request())
sim.run(until=500.0)
sim.move("u1", "lounge")
sim.move("u2", "lounge")
sim.run(until=1000.0)
sim.move("u2", "cor-4")
sim.run(until=1500.0)
import dataclasses
ledgers = {
    str(cid): list(map(str, proc.neighbor_ledgers))
    for cid, proc in sorted(sim.lounge_processes.items(), key=repr)
}
reserved = {
    str(cid): (repr(cell.reservations.pool), repr(cell.reservations.total))
    for cid, cell in sorted(sim.cells.items(), key=repr)
}
stats = dataclasses.asdict(sim.stats)
stats["extra"] = sorted(stats["extra"].items())
print((sorted(stats.items()), ledgers, reserved))
"""
    )


def test_metrics_registry_export_bit_identical_across_hash_seeds():
    """The metrics registry keys instruments by (name, sorted labels) and
    exports in sorted order; the same operations performed in different
    insertion orders must produce byte-identical JSON under any seed."""
    _assert_hashseed_invariant(
        """
from repro.obs import MetricsRegistry

reg = MetricsRegistry()
names = [f"metric-{i % 7}" for i in range(21)]
for i, name in enumerate(names):
    reg.counter(name, cell=f"cell-{i % 3}", kind=f"k{i % 2}").inc(0.1 + i)
for i in range(5):
    reg.gauge("occupancy", cell=f"cell-{i}").set(3.3 * i)
for i in range(9):
    reg.histogram("latency", buckets=(0.1, 1.0, 10.0), hop=f"h{i % 4}").observe(0.07 * i)
print(reg.to_json(indent=2))
"""
    )


def test_traced_simulation_output_bit_identical_across_hash_seeds():
    """A traced run's *simulation output* (and the trace's domain records)
    must not vary with the hash seed: trace fields are built from sorted
    containers, never raw set/dict iteration."""
    _assert_hashseed_invariant(
        """
import dataclasses, json
from repro.obs import RingBufferSink, Tracer, use_tracer
from repro.sim import run_campus_day

sink = RingBufferSink()
with use_tracer(Tracer(sink)):
    result = run_campus_day(seed=11, day_length=3600.0, walkers=2, patrons=5)
assert any(not r["kind"].startswith("des.") for r in sink.records())
domain = [
    json.dumps(r, default=repr)
    for r in sink.records()
    if not r["kind"].startswith("des.")
]
print((dataclasses.astuple(result.stats), len(sink.records()), domain[:50]))
"""
    )
