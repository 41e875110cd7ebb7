"""Next-cell prediction (Section 6) and handoff-count predictors.

Three-level next-cell prediction for a mobile portable:

1. **Portable profile** — look up the (previous, current) triplet in the
   portable's own aggregated history.
2. **Cell profile** — if a neighboring office lists the portable as a
   regular occupant, nominate that office; otherwise use the cell's
   aggregate handoff history.
3. **Default** — no per-portable prediction; the cell falls back to the
   probabilistic advance-reservation algorithm (Section 6.3).

Handoff-*count* predictors for lounges:

* cafeteria — least-squares linear extrapolation over the last 3 slots,
* default — one-step memory (tomorrow equals today).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Optional, Sequence

from ..profiles.records import CellClass

__all__ = [
    "PredictionLevel",
    "Prediction",
    "ProfileAwarePredictor",
    "linear_ls_fit",
    "linear_ls_predict",
    "paper_printed_predict",
    "one_step_memory_predict",
]


class PredictionLevel(Enum):
    """Which of the three levels produced the prediction."""

    PORTABLE_PROFILE = 1
    CELL_PROFILE = 2
    DEFAULT = 3


@dataclass(frozen=True)
class Prediction:
    """A next-cell prediction with its provenance.

    ``cell`` is None at level DEFAULT (no specific cell nominated; the
    default advance-reservation algorithm takes over).
    """

    cell: Optional[Hashable]
    level: PredictionLevel


class ProfileAwarePredictor:
    """The three-level next-cell predictor over a profile server's profiles."""

    def __init__(self, server):
        self.server = server

    def predict_for(
        self,
        portable_id: Hashable,
        current_cell: Hashable,
        previous_cell: Optional[Hashable] = None,
        levels: tuple = (1, 2),
    ) -> Prediction:
        """Run the cascade; ``levels`` selectively disables stages (ablation)."""
        portable_profile = self.server.portables.get(portable_id)
        cell_profile = self.server.cells.get(current_cell)
        if previous_cell is None:
            previous_cell, _cur = self.server.context_of(portable_id)

        # Level 1.
        if 1 in levels and portable_profile is not None:
            nxt = portable_profile.next_predicted(previous_cell, current_cell)
            if nxt is not None:
                return Prediction(nxt, PredictionLevel.PORTABLE_PROFILE)

        # Level 2: occupant rule with real neighbor profiles.
        if 2 in levels and cell_profile is not None:
            for neighbor in sorted(cell_profile.neighbors, key=repr):
                neighbor_profile = self.server.cells.get(neighbor)
                if (
                    neighbor_profile is not None
                    and neighbor_profile.cell_class is CellClass.OFFICE
                    and neighbor_profile.is_occupant(portable_id)
                ):
                    return Prediction(neighbor, PredictionLevel.CELL_PROFILE)
            nxt = cell_profile.predict_next(previous_cell)
            if nxt is not None:
                return Prediction(nxt, PredictionLevel.CELL_PROFILE)

        return Prediction(None, PredictionLevel.DEFAULT)


# -- handoff-count predictors -----------------------------------------------------


def linear_ls_fit(samples: Sequence[float], t: float = 0.0):
    """Least-squares line through the last 3 slot counts.

    ``samples`` are ``(n_{t-2}, n_{t-1}, n_t)``, observed at times
    ``t-2, t-1, t``.  Returns ``(a, m)`` of the model ``n = a*x + m``.

    The slope matches the paper: ``a = (n_t - n_{t-2}) / 2``.  The printed
    intercept formula ``m = ((5+3t) n_{t-2} + 2 n_{t-1} - (3t+1) n_t) / 6``
    is a typo — substituting it into ``a*(t+1) + m`` collapses the
    "prediction" to the 3-point mean, which contradicts the stated linear
    model.  We use the correct LS intercept ``m = mean - a*(t-1)``; the
    printed version is available as :func:`paper_printed_predict` for
    comparison.
    """
    if len(samples) != 3:
        raise ValueError(f"need exactly 3 samples, got {len(samples)}")
    n_tm2, n_tm1, n_t = samples
    a = (n_t - n_tm2) / 2.0
    mean = (n_tm2 + n_tm1 + n_t) / 3.0
    m = mean - a * (t - 1.0)
    return a, m


def linear_ls_predict(samples: Sequence[float], t: float = 0.0) -> float:
    """Cafeteria predictor: ``N_handoff(t+1) = a*(t+1) + m`` (clamped >= 0)."""
    a, m = linear_ls_fit(samples, t)
    return max(0.0, a * (t + 1.0) + m)


def paper_printed_predict(samples: Sequence[float], t: float = 0.0) -> float:
    """The intercept formula exactly as printed in Section 6.2.2.

    Provided for fidelity checks; algebraically this always returns the
    mean of the three samples (see :func:`linear_ls_fit`).
    """
    if len(samples) != 3:
        raise ValueError(f"need exactly 3 samples, got {len(samples)}")
    n_tm2, n_tm1, n_t = samples
    a = (n_t - n_tm2) / 2.0
    m = ((5 + 3 * t) * n_tm2 + 2 * n_tm1 - (3 * t + 1) * n_t) / 6.0
    return max(0.0, a * (t + 1.0) + m)


def one_step_memory_predict(current_count: float) -> float:
    """Default-lounge predictor: ``N_handoff(t+1) = N_handoff(t)``."""
    if current_count < 0:
        raise ValueError(f"count must be non-negative, got {current_count}")
    return float(current_count)
