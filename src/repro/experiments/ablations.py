"""Ablations of the paper's design choices.

* static vs predictive reservation (the closing claim of Section 7.2),
* the ``M(l)`` bottleneck-set refinement vs ADVERTISE flooding (Section 5.3.1),
* prediction-level contributions (Section 6),
* ``B_dyn`` pool sizing vs sudden mobility of static portables (Section 4.3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.adaptation import AdaptationProtocol
from ..core.prediction import ProfileAwarePredictor
from ..core.qos import QoSBounds, QoSRequest
from ..des import Environment
from ..mobility.traces import office_week_trace
from ..network.routing import shortest_path
from ..network.topology import line_topology
from ..profiles.records import CellClass
from ..profiles.server import ProfileServer
from ..runtime import ExperimentRunner, drop_failures
from ..sim.config import figure6_config
from ..sim.simulator import simulate_twocell_stats
from ..stats.counters import TeletrafficStats
from ..traffic.connection import Connection
from ..traffic.flowspec import FlowSpec
from ..wireless.cell import Cell
from ..wireless.handoff import HandoffEngine
from ..wireless.portable import Portable
from .common import format_table

__all__ = [
    "static_vs_predictive",
    "render_static_vs_predictive",
    "mlist_overhead",
    "render_mlist_overhead",
    "prediction_levels",
    "render_prediction_levels",
    "pool_fraction_sweep",
    "render_pool_fraction",
]


# -- ablation 1: static vs predictive reservation ------------------------------------


def _pooled(policy: str, seeds: Sequence[int], horizon: float,
            runner: Optional[ExperimentRunner] = None, **kw) -> TeletrafficStats:
    runner = runner if runner is not None else ExperimentRunner()
    configs = [
        figure6_config(policy=policy, seed=seed, horizon=horizon, **kw)
        for seed in seeds
    ]
    pooled = TeletrafficStats()
    survivors = drop_failures(
        runner.run_many(simulate_twocell_stats, configs, label="ablations"),
        context=f"ablation pooled run ({policy})",
    )
    for stats in survivors:
        pooled = pooled.merge(stats)
    return pooled


def static_vs_predictive(
    static_reserves: Sequence[float] = (0.0, 2.0, 4.0, 6.0, 8.0),
    p_qos_values: Sequence[float] = (0.001, 0.005, 0.02, 0.1, 0.5),
    window: float = 0.05,
    seeds: Sequence[int] = (1, 2, 3),
    horizon: float = 300.0,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, List[Tuple[float, float, float]]]:
    """(knob, P_d, P_b) operating curves for both reservation styles.

    Both knob sweeps flatten into one ``run_many`` batch so a parallel
    runner overlaps the static and predictive replications.
    """
    runner = runner if runner is not None else ExperimentRunner()
    seeds = list(seeds)
    configs = [
        figure6_config(policy="static", seed=seed, horizon=horizon,
                       static_reserve=reserve)
        for reserve in static_reserves
        for seed in seeds
    ] + [
        figure6_config(policy="probabilistic", seed=seed, horizon=horizon,
                       window=window, p_qos=p_qos)
        for p_qos in p_qos_values
        for seed in seeds
    ]
    stats_list = runner.run_many(simulate_twocell_stats, configs,
                                 label="ablations")

    def pooled(group: int) -> TeletrafficStats:
        # Filter failures inside the per-group slice so knob alignment
        # survives a partial sweep.
        merged = TeletrafficStats()
        survivors = drop_failures(
            stats_list[group * len(seeds) : (group + 1) * len(seeds)],
            context=f"static-vs-predictive group {group}",
        )
        for stats in survivors:
            merged = merged.merge(stats)
        return merged

    rows: Dict[str, List[Tuple[float, float, float]]] = {"static": [], "predictive": []}
    for index, reserve in enumerate(static_reserves):
        stats = pooled(index)
        rows["static"].append(
            (reserve, stats.dropping_probability, stats.blocking_probability)
        )
    for index, p_qos in enumerate(p_qos_values, start=len(static_reserves)):
        stats = pooled(index)
        rows["predictive"].append(
            (p_qos, stats.dropping_probability, stats.blocking_probability)
        )
    return rows


def render_static_vs_predictive(rows) -> str:
    table_rows = []
    for reserve, p_d, p_b in rows["static"]:
        table_rows.append(("static", f"reserve={reserve}", p_d, p_b))
    for p_qos, p_d, p_b in rows["predictive"]:
        table_rows.append(("predictive", f"P_QOS={p_qos}", p_d, p_b))
    return format_table(
        ["policy", "knob", "P_d", "P_b"],
        table_rows,
        title="Ablation: static reservation vs probabilistic look-ahead",
    )


# -- ablation 2: M(l) refinement vs flooding ------------------------------------------


def _adaptation_scenario(use_bottleneck_sets: bool, conns: int = 6,
                         switches: int = 6, seed: int = 3, events: int = 6):
    """A line network with random-span connections under capacity churn.

    After the connections settle, a sequence of capacity shrink/restore
    events hits different links — the regime where the refinement's
    selective initiations pay off versus per-event flooding.
    """
    rng = random.Random(seed)
    topo = line_topology(switches, capacity=1000.0, prop_delay=0.001)
    env = Environment()
    protocol = AdaptationProtocol(
        env, topo, use_bottleneck_sets=use_bottleneck_sets
    )
    for i in range(conns):
        a = rng.randrange(switches - 1)
        b = rng.randrange(a + 1, switches)
        qos = QoSRequest(
            flowspec=FlowSpec(sigma=1.0, rho=10.0),
            bounds=QoSBounds(10.0, 10.0 + rng.choice([90.0, 490.0, 5000.0])),
        )
        conn = Connection(src=f"s{a}", dst=f"s{b}", qos=qos, conn_id=f"c{i}")
        conn.activate(shortest_path(topo, f"s{a}", f"s{b}"), 10.0, 0.0)
        protocol.register_connection(conn)
    env.run()

    # Capacity churn: shrink/restore pairs on varying links.  Shrinks are
    # bounded so b'_av stays positive (the paper defers the b'_av < 0 case
    # to end-to-end re-negotiation, outside the adaptation protocol).
    for pair in range(events // 2):
        index = rng.randrange(switches - 1)
        link = topo.link(f"s{index}", f"s{index + 1}")
        headroom = max(0.0, link.excess_available - 50.0)
        shrink = min(rng.choice([300.0, 450.0, 600.0]), headroom)
        if shrink <= 0:
            continue
        link.reserve(shrink)
        protocol.notify_capacity_change(link.key)
        env.run()
        link.unreserve(shrink)
        protocol.notify_capacity_change(link.key)
        env.run()
    return protocol


@dataclass(frozen=True)
class _MlistJob:
    """Picklable sweep point for :func:`mlist_overhead`."""

    conns: int
    switches: int
    seed: int


def _mlist_row(job: _MlistJob) -> Tuple:
    """Worker: run both protocol variants for one seed, return the row."""
    refined = _adaptation_scenario(True, job.conns, job.switches, job.seed)
    flooding = _adaptation_scenario(False, job.conns, job.switches, job.seed)
    ref_alloc = refined.reference_allocation()
    # Both must land on (near) the same allocation.
    err_refined = max(
        abs(refined.rate_of(c) - 10.0 - ref_alloc[c]) for c in ref_alloc
    )
    err_flooding = max(
        abs(flooding.rate_of(c) - 10.0 - ref_alloc[c]) for c in ref_alloc
    )
    return (
        job.seed,
        refined.signaling.messages_sent,
        flooding.signaling.messages_sent,
        err_refined,
        err_flooding,
    )


def mlist_overhead(conns: int = 6, switches: int = 6,
                   seeds: Sequence[int] = (3, 4, 5),
                   runner: Optional[ExperimentRunner] = None) -> List[Tuple]:
    """Message counts with and without the bottleneck-set refinement."""
    runner = runner if runner is not None else ExperimentRunner()
    jobs = [_MlistJob(conns, switches, seed) for seed in seeds]
    return drop_failures(
        runner.run_many(_mlist_row, jobs, label="ablations"),
        context="mlist overhead",
    )


def render_mlist_overhead(rows) -> str:
    return format_table(
        ["seed", "msgs (M(l) refined)", "msgs (flooding)",
         "err refined", "err flooding"],
        rows,
        title="Ablation: ADVERTISE overhead — bottleneck sets vs flooding",
    )


# -- ablation 3: prediction levels ---------------------------------------------------------


@dataclass(frozen=True)
class _PredictionVariantJob:
    """Picklable sweep point for :func:`prediction_levels`."""

    name: str
    enabled: Tuple[str, ...]
    seed: int


def _prediction_variant(job: _PredictionVariantJob) -> Tuple[str, int, float]:
    """Worker: replay the office week with a subset of predictor levels."""
    from ..mobility.floorplan import figure4_floorplan

    plan = figure4_floorplan()
    trace = office_week_trace(seed=job.seed)

    server = ProfileServer()
    for cell_id in plan.cells:
        profile = server.register_cell(
            cell_id,
            plan.cell_class(cell_id),
            neighbors=sorted(plan.neighbors(cell_id), key=repr),
        )
        if plan.cell_class(cell_id) is CellClass.OFFICE:
            profile.occupants |= plan.occupants.get(cell_id, set())

    predictor = ProfileAwarePredictor(server)
    levels = tuple(
        level
        for level, tag in ((1, "portable"), (2, "cell"))
        if tag in job.enabled
    )
    predictions = hits = 0
    for event in trace:
        if event.from_cell == "D":
            previous, _ = server.context_of(event.portable)
            prediction = predictor.predict_for(
                event.portable, "D", previous, levels=levels
            )
            predictions += 1
            if prediction.cell == event.to_cell:
                hits += 1
        server.report_handoff(event.portable, event.from_cell, event.to_cell)
    return (job.name, predictions, hits / predictions if predictions else 0.0)


def prediction_levels(
    seed: int = 1996, runner: Optional[ExperimentRunner] = None
) -> List[Tuple[str, int, float]]:
    """Hit rates of the predictor with levels selectively disabled."""
    runner = runner if runner is not None else ExperimentRunner()
    variants = {
        "level 1 only (portable profile)": ("portable",),
        "level 2 only (cell profile)": ("cell",),
        "full three-level": ("portable", "cell"),
    }
    jobs = [
        _PredictionVariantJob(name, enabled, seed)
        for name, enabled in variants.items()
    ]
    return drop_failures(
        runner.run_many(_prediction_variant, jobs, label="ablations"),
        context="prediction levels",
    )


def render_prediction_levels(rows) -> str:
    return format_table(
        ["variant", "predictions", "hit rate"],
        rows,
        title="Ablation: prediction-level contributions at cell D",
    )


# -- ablation 4: B_dyn pool sizing -----------------------------------------------------------


@dataclass(frozen=True)
class _PoolFractionJob:
    """Picklable sweep point for :func:`pool_fraction_sweep`."""

    fraction: float
    trials: int
    capacity: float
    seed: int


def _pool_fraction_point(job: _PoolFractionJob) -> Tuple[float, int, int, float]:
    """Worker: measure one pool fraction's sudden-handoff drop rate."""
    fraction, trials, capacity, seed = (
        job.fraction, job.trials, job.capacity, job.seed,
    )
    rng = random.Random(seed)
    drops = 0
    for _ in range(trials):
        target = Cell(
            "t",
            capacity=capacity,
            cell_class=CellClass.DEFAULT,
            min_pool_fraction=fraction,
            max_pool_fraction=max(fraction, 0.20),
        )
        target.reservations.set_pool(fraction * capacity)
        origin = Cell("o", capacity=capacity, cell_class=CellClass.DEFAULT)
        origin.add_neighbor("t")
        target.add_neighbor("o")
        cells = {"t": target, "o": origin}
        engine = HandoffEngine(get_cell=cells.__getitem__)

        # Background load: fine-grained connections fill the non-pool
        # capacity to 95-100%, so the pool is the only slack left when
        # the unforeseen handoff arrives.
        target_load = (capacity - target.reservations.pool) * rng.uniform(
            0.95, 1.0
        )
        i = 0
        while target.link.min_committed + 4.0 <= target_load:
            target.link.admit(f"bg-{i}", 4.0)
            i += 1

        portable = Portable(f"p-{seed}")
        portable.move_to("o", 0.0)
        origin.enter(portable.portable_id, 0.0)
        qos = QoSRequest(
            flowspec=FlowSpec(sigma=1.0, rho=16.0),
            bounds=QoSBounds(16.0, 16.0),
        )
        conn = Connection(src="o", dst="net", qos=qos)
        conn.activate(["o", "net"], 16.0, 0.0)
        portable.attach(conn)
        origin.link.admit(conn.conn_id, 16.0)

        outcome = engine.execute(portable, "t", 1.0)
        drops += len(outcome.dropped)
    return (fraction, trials, drops, drops / trials)


def pool_fraction_sweep(
    fractions: Sequence[float] = (0.0, 0.05, 0.10, 0.20),
    trials: int = 200,
    capacity: float = 160.0,
    seed: int = 9,
    runner: Optional[ExperimentRunner] = None,
) -> List[Tuple[float, int, int, float]]:
    """Sudden movement of static portables vs the ``B_dyn`` pool size.

    Each trial loads the target cell to a random high utilization, then a
    static portable (no advance reservation anywhere, per Section 3.4.2)
    suddenly hands in with a 16-unit connection.  The pool is the only slack
    that can absorb it.  Returns (fraction, attempts, drops, drop rate).
    """
    runner = runner if runner is not None else ExperimentRunner()
    jobs = [
        _PoolFractionJob(fraction, trials, capacity, seed)
        for fraction in fractions
    ]
    return drop_failures(
        runner.run_many(_pool_fraction_point, jobs, label="ablations"),
        context="pool fraction",
    )


def render_pool_fraction(rows) -> str:
    return format_table(
        ["pool fraction", "sudden moves", "drops", "drop rate"],
        rows,
        title="Ablation: B_dyn pool size vs sudden static-portable mobility",
    )
