"""Ablation: the value of QoS adaptation under wireless channel error.

Section 2.1's motivation made measurable: on a fading wireless hop
(Gilbert–Elliott channel halving the effective capacity during fades), we
compare

* a **fixed** allocation policy — every video stays at its admitted rate
  regardless of channel state (classic hard reservation), and
* the paper's **adaptive** policy — fades trigger the distributed
  adaptation protocol, sources downshift their encoding ladder, and
  recoveries upgrade them again within their QoS bounds.

Both policies push actual packets through the SCFQ MAC; the fixed policy
oversubscribes the faded channel (queueing delay explodes and goodput is
capped by the fade), while the adaptive policy keeps offered load inside
the effective capacity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.adaptation import AdaptationProtocol
from ..core.qos import QoSBounds, QoSRequest
from ..des import Environment
from ..network.topology import Topology
from ..runtime import ExperimentRunner, drop_failures
from ..traffic.connection import Connection
from ..traffic.sources import AdaptiveVideoSource
from ..wireless.channel import GilbertElliottChannel
from ..wireless.mac import CellMac
from .common import format_table

__all__ = [
    "AdaptationValueConfig",
    "AdaptationValueResult",
    "run_adaptation_value",
    "render_adaptation_value",
]


@dataclass(frozen=True)
class AdaptationValueConfig:
    """Picklable parameters of one policy run (fixed or adaptive)."""

    adaptive: bool
    seed: int = 23
    duration: float = 300.0
    n_videos: int = 3
    capacity: float = 1600.0
    mean_good: float = 30.0
    mean_bad: float = 15.0


@dataclass
class AdaptationValueResult:
    policy: str
    goodput: float            # delivered bits per second
    mean_delay: float         # mean packet delay (seconds)
    p95_delay: float
    loss_rate: float
    layer_switches: int


def simulate_adaptation_policy(
    config: AdaptationValueConfig,
) -> AdaptationValueResult:
    """Module-level worker: run one policy on its own channel realization."""
    adaptive = config.adaptive
    seed, duration = config.seed, config.duration
    n_videos, capacity = config.n_videos, config.capacity
    mean_good, mean_bad = config.mean_good, config.mean_bad
    env = Environment()
    rng = random.Random(seed)

    topo = Topology()
    wireless = topo.add_link("bs", "air", capacity=capacity, prop_delay=0.001)
    topo.add_link("air", "bs", capacity=capacity, prop_delay=0.001)

    channel = GilbertElliottChannel(
        rng,
        mean_good=mean_good,
        mean_bad=mean_bad,
        loss_good=0.001,
        loss_bad=0.02,
        capacity_factor_bad=0.5,
    )
    # on_flip folds the fade into link.capacity; tell the MAC not to
    # apply the factor a second time.
    mac = CellMac(env, wireless, channel=channel, apply_capacity_factor=False)
    protocol = AdaptationProtocol(env, topo, delta=1.0)

    sources: Dict[str, AdaptiveVideoSource] = {}
    for i in range(n_videos):
        name = f"video-{i}"
        source = AdaptiveVideoSource()
        qos = QoSRequest(
            flowspec=source.flowspec(),
            bounds=QoSBounds(source.b_min, source.b_max),
        )
        conn = Connection(src="bs", dst="air", qos=qos, conn_id=name)
        conn.activate(["bs", "air"], source.b_min, 0.0)
        protocol.register_connection(conn)
        sources[name] = source

    nominal = wireless.capacity

    def on_flip(state, now):
        wireless.capacity = nominal * channel.capacity_factor()
        if adaptive:
            protocol.notify_capacity_change(wireless.key)

    env.process(channel.run(env, on_flip))

    if not adaptive:
        # Fixed policy: everyone locked at the clear-sky fair share
        # (let the registration rounds converge before snapshotting).
        env.run(until=1.0)
        fixed_rates = {name: protocol.rate_of(name) for name in sources}

    def sender(name: str, source: AdaptiveVideoSource):
        size = source.packet_size
        while True:
            if adaptive:
                source.on_rate_granted(protocol.rate_of(name), env.now)
                rate = source.rate
            else:
                rate = min(fixed_rates[name], source.b_max)
            mac.submit(name, size)
            yield env.timeout(size / rate)

    for name, source in sources.items():
        env.process(sender(name, source))

    env.run(until=duration)

    delays = sorted(
        record.delay
        for stats in mac.stats.values()
        for record in stats.records
        if record.delay is not None
    )
    delivered = sum(s.delivered for s in mac.stats.values())
    lost = sum(s.lost for s in mac.stats.values())
    return AdaptationValueResult(
        policy="adaptive" if adaptive else "fixed",
        goodput=mac.total_delivered_bits() / duration,
        mean_delay=sum(delays) / len(delays) if delays else 0.0,
        p95_delay=delays[int(0.95 * len(delays))] if delays else 0.0,
        loss_rate=lost / (delivered + lost) if delivered + lost else 0.0,
        layer_switches=sum(len(s.switches) for s in sources.values()),
    )


def run_adaptation_value(
    seed: int = 23,
    duration: float = 300.0,
    n_videos: int = 3,
    capacity: float = 1600.0,
    mean_good: float = 30.0,
    mean_bad: float = 15.0,
    runner: Optional[ExperimentRunner] = None,
) -> List[AdaptationValueResult]:
    """Run both policies on the identical channel realization (same seed)."""
    runner = runner if runner is not None else ExperimentRunner()
    configs = [
        AdaptationValueConfig(adaptive, seed, duration, n_videos, capacity,
                              mean_good, mean_bad)
        for adaptive in (False, True)
    ]
    return drop_failures(
        runner.run_many(simulate_adaptation_policy, configs,
                        label="adaptation-value"),
        context="adaptation value",
    )


def render_adaptation_value(results: List[AdaptationValueResult]) -> str:
    return format_table(
        ["policy", "goodput (kbps)", "mean delay (s)", "p95 delay (s)",
         "loss rate", "layer switches"],
        [
            (r.policy, r.goodput, r.mean_delay, r.p95_delay, r.loss_rate,
             r.layer_switches)
            for r in results
        ],
        title="Ablation: QoS adaptation vs fixed allocation on a fading link",
    )
