"""Packet-level traffic sources.

Section 3.2's application model: periodic multimedia traffic (CBR /
adaptive-rate video).  These sources generate packet emission timestamps
used by the wireless channel model and the examples; the
resource-management algorithms themselves operate on the ``(sigma, rho)``
abstractions.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from .flowspec import FlowSpec

__all__ = ["cbr_packets", "AdaptiveVideoSource"]


def cbr_packets(
    rate: float, packet_size: float, duration: float, start: float = 0.0
) -> Iterator[Tuple[float, float]]:
    """Constant-bit-rate emission: yields (timestamp, size) pairs.

    ``rate`` in bits per time unit, ``packet_size`` in bits.
    """
    if rate <= 0 or packet_size <= 0:
        raise ValueError("rate and packet_size must be positive")
    interval = packet_size / rate
    end = start + duration
    index = 0
    while True:
        # Index-based timestamps avoid cumulative float drift.
        t = start + index * interval
        if t >= end - 1e-12:
            return
        yield (t, packet_size)
        index += 1


class AdaptiveVideoSource:
    """A layered video encoder that tracks network-granted bandwidth.

    Models the Section 3.2 hardware "adaptively deliver[ing] digital video at
    rates between 60K bps and 600K bps": the source holds a discrete ladder
    of encoding rates and snaps to the highest layer not exceeding the
    granted rate.
    """

    def __init__(self, ladder: List[float] = None, packet_size: float = 8.0):
        if ladder is None:
            ladder = [60.0, 120.0, 240.0, 400.0, 600.0]
        if not ladder:
            raise ValueError("ladder must not be empty")
        self.ladder = sorted(ladder)
        if any(r <= 0 for r in self.ladder):
            raise ValueError("ladder rates must be positive")
        self.packet_size = packet_size
        self._rate = self.ladder[0]
        #: (time, rate) history of layer switches, for inspection.
        self.switches: List[Tuple[float, float]] = []

    @property
    def rate(self) -> float:
        """Current encoding rate."""
        return self._rate

    @property
    def b_min(self) -> float:
        return self.ladder[0]

    @property
    def b_max(self) -> float:
        return self.ladder[-1]

    def flowspec(self, sigma: float = None) -> FlowSpec:
        """The (sigma, rho) envelope at the *minimum* layer (what is reserved)."""
        return FlowSpec(
            sigma=sigma if sigma is not None else 4 * self.packet_size,
            rho=self.b_min,
            l_max=self.packet_size,
        )

    def on_rate_granted(self, granted: float, now: float = 0.0) -> float:
        """React to an adaptation UPDATE: pick the best layer <= granted.

        Returns the new encoding rate.  If even the bottom layer exceeds the
        grant the source stays at the bottom layer (the network guaranteed
        ``b_min``, so this only happens transiently).
        """
        candidates = [r for r in self.ladder if r <= granted + 1e-9]
        new_rate = candidates[-1] if candidates else self.ladder[0]
        if new_rate != self._rate:
            self._rate = new_rate
            self.switches.append((now, new_rate))
        return self._rate

    def packets(self, duration: float, start: float = 0.0):
        """CBR emission at the current layer rate."""
        return cbr_packets(self._rate, self.packet_size, duration, start)
