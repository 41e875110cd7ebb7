"""Per-type workload parameters for the Figure 6 teletraffic model.

The Figure 6 workload: Poisson connection-request arrivals per cell with
exponentially distributed holding times, per connection type.  The
two-cell simulator draws those arrivals itself; this module holds the
parameters of each type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["TypeSpec"]


@dataclass(frozen=True)
class TypeSpec:
    """Workload parameters for one connection type (Figure 6's two rows).

    Attributes
    ----------
    bandwidth:
        Per-connection bandwidth requirement ``b_min`` (type 1: 1, type 2: 4).
    arrival_rate:
        Poisson rate of new-connection requests ``lambda``.
    holding_mean:
        Mean connection duration ``1/mu``.
    handoff_prob:
        Probability ``h`` that a departing mobile hands off (vs terminates).
    b_max:
        Optional adaptive ceiling; defaults to ``bandwidth`` (fixed-rate).
    """

    bandwidth: float
    arrival_rate: float
    holding_mean: float
    handoff_prob: float = 0.0
    b_max: Optional[float] = None

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.arrival_rate < 0:
            raise ValueError(f"arrival_rate must be >= 0, got {self.arrival_rate}")
        if self.holding_mean <= 0:
            raise ValueError(f"holding_mean must be positive, got {self.holding_mean}")
        if not 0.0 <= self.handoff_prob <= 1.0:
            raise ValueError(f"handoff_prob must be in [0,1], got {self.handoff_prob}")

    @property
    def mu(self) -> float:
        """Service rate ``mu = 1 / holding_mean``."""
        return 1.0 / self.holding_mean

    @property
    def offered_load(self) -> float:
        """Erlang load in bandwidth units: ``lambda / mu * bandwidth``."""
        return self.arrival_rate * self.holding_mean * self.bandwidth
