"""Loose QoS bounds — the paper's central service abstraction.

A connection negotiates a *range* ``[b_min, b_max]`` of acceptable bandwidth
plus hard end-to-end bounds on delay, delay-jitter, and packet loss.  The
network guarantees ``b_min`` and adapts the actual allocation within the
range (Section 2.1: "the guaranteed service and the best-effort service can
be unified in a single framework").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..traffic.flowspec import FlowSpec

__all__ = ["QoSBounds", "QoSRequest", "ServiceClass", "audio_request", "video_request"]


@dataclass(frozen=True)
class QoSBounds:
    """The negotiated bandwidth range ``[b_min, b_max]``.

    ``b_min`` is the guaranteed floor (what admission control commits to and
    what advance reservation books in the next-predicted cell); ``b_max``
    caps how far adaptation may upgrade the connection.
    """

    b_min: float
    b_max: float

    def __post_init__(self):
        if not (self.b_min > 0):
            raise ValueError(f"b_min must be positive, got {self.b_min}")
        if not (self.b_max >= self.b_min):
            raise ValueError(
                f"b_max ({self.b_max}) must be >= b_min ({self.b_min})"
            )

    @property
    def span(self) -> float:
        """The adaptable headroom ``b_max - b_min``."""
        return self.b_max - self.b_min

    @property
    def is_fixed(self) -> bool:
        """True when the connection cannot adapt (b_min == b_max)."""
        return self.span == 0.0

    def clamp(self, rate: float) -> float:
        """Project ``rate`` into the negotiated range."""
        return min(self.b_max, max(self.b_min, rate))

    def contains(self, rate: float) -> bool:
        return self.b_min - 1e-9 <= rate <= self.b_max + 1e-9


class ServiceClass:
    """Marker constants for connection service classes."""

    GUARANTEED = "guaranteed"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class QoSRequest:
    """Full end-to-end QoS specification presented at connection setup.

    Section 5.1's parameter list: bandwidth bounds, an upper bound ``d`` on
    end-to-end delay, an upper bound ``jitter_bound`` on delay-jitter, and a
    maximum packet loss probability ``loss_bound``; the flowspec carries the
    ``(sigma, rho)`` envelope and ``L_max``.

    A ``None`` ``bounds`` means no QoS parameters were specified and the
    network serves the connection best-effort (Section 4).
    """

    flowspec: FlowSpec
    bounds: Optional[QoSBounds]
    delay_bound: float = float("inf")
    jitter_bound: float = float("inf")
    loss_bound: float = 1.0
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self):
        if self.delay_bound <= 0:
            raise ValueError(f"delay_bound must be positive, got {self.delay_bound}")
        if self.jitter_bound <= 0:
            raise ValueError(
                f"jitter_bound must be positive, got {self.jitter_bound}"
            )
        if not 0.0 < self.loss_bound <= 1.0:
            raise ValueError(f"loss_bound must be in (0, 1], got {self.loss_bound}")

    @property
    def service_class(self) -> str:
        return ServiceClass.BEST_EFFORT if self.bounds is None else ServiceClass.GUARANTEED

    @property
    def b_min(self) -> float:
        if self.bounds is None:
            raise ValueError("best-effort request has no bandwidth floor")
        return self.bounds.b_min

    @property
    def b_max(self) -> float:
        if self.bounds is None:
            raise ValueError("best-effort request has no bandwidth ceiling")
        return self.bounds.b_max


def audio_request(
    b_min: float = 16.0,
    b_max: float = 64.0,
    delay_bound: float = 1.0,
    jitter_bound: float = 0.6,
    loss_bound: float = 0.01,
    sigma: float = 4.0,
    l_max: float = 1.0,
) -> QoSRequest:
    """A CD-quality-degradable audio connection (Section 3.2's 16–64 kbps).

    Defaults mirror the Section 7.1 workload: most users open a 16 kbps
    connection; rates in kbps, times in seconds, sizes in kilobits.
    """
    return QoSRequest(
        flowspec=FlowSpec(sigma=sigma, rho=b_min, l_max=l_max),
        bounds=QoSBounds(b_min, b_max),
        delay_bound=delay_bound,
        jitter_bound=jitter_bound,
        loss_bound=loss_bound,
    )


def video_request(
    b_min: float = 60.0,
    b_max: float = 600.0,
    delay_bound: float = 1.5,
    jitter_bound: float = 1.0,
    loss_bound: float = 0.05,
    sigma: float = 30.0,
    l_max: float = 8.0,
) -> QoSRequest:
    """An adaptive wireless video connection (Section 3.2's 60–600 kbps)."""
    return QoSRequest(
        flowspec=FlowSpec(sigma=sigma, rho=b_min, l_max=l_max),
        bounds=QoSBounds(b_min, b_max),
        delay_bound=delay_bound,
        jitter_bound=jitter_bound,
        loss_bound=loss_bound,
    )
