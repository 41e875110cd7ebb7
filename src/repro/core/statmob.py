"""Static/mobile portable classification (Section 3.4.2).

A portable is *static* once it has stayed in the same cell for the threshold
period ``T_th``, and *mobile* otherwise.  The classification drives both
adaptation eligibility (only static portables' connections are upgraded
beyond ``b_min``) and advance reservation (only mobile portables get
reservations in the next-predicted cell).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

__all__ = ["PortableState", "StaticMobileClassifier"]


class PortableState(Enum):
    STATIC = "static"
    MOBILE = "mobile"


class StaticMobileClassifier:
    """Tracks residence times and classifies portables.

    Transitions to STATIC are reported via the optional ``on_static``
    callback, which the resource manager uses to (a) upgrade the portable's
    QoS to the maximum the network can provide and (b) cancel its advance
    reservations (Section 3.4.2); ``on_mobile`` fires on every cell change.
    """

    def __init__(
        self,
        threshold: float,
        on_static: Optional[Callable[[Hashable, float], None]] = None,
        on_mobile: Optional[Callable[[Hashable, float], None]] = None,
    ):
        if not (threshold > 0):
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self.on_static = on_static
        self.on_mobile = on_mobile
        #: ``(cell, since)`` per tracked portable.
        self._residence: Dict[Hashable, Tuple[Hashable, float]] = {}
        #: Portables whose current residence has fired ``on_static``.
        self._notified_static: Set[Hashable] = set()

    def observe(self, portable_id: Hashable, cell: Hashable, now: float) -> PortableState:
        """Record the portable's current cell at time ``now``.

        Call on entry to a cell and whenever a fresh classification is
        needed; returns the state as of ``now``.
        """
        res = self._residence.get(portable_id)
        if res is None or res[0] != cell:
            self._residence[portable_id] = (cell, now)
            if res is not None:
                self._notified_static.discard(portable_id)
                if self.on_mobile is not None:
                    self.on_mobile(portable_id, now)
            return PortableState.MOBILE
        return self.classify(portable_id, now)

    def classify(self, portable_id: Hashable, now: float) -> PortableState:
        """STATIC iff resident in the current cell for >= threshold."""
        res = self._residence.get(portable_id)
        if res is None:
            return PortableState.MOBILE
        if now - res[1] >= self.threshold:
            if portable_id not in self._notified_static and self.on_static:
                self._notified_static.add(portable_id)
                self.on_static(portable_id, now)
            return PortableState.STATIC
        return PortableState.MOBILE

    def is_static(self, portable_id: Hashable, now: float) -> bool:
        return self.classify(portable_id, now) is PortableState.STATIC

    def residence(self, portable_id: Hashable) -> Optional[Tuple[Hashable, float]]:
        """(cell, since) for a tracked portable, else None."""
        return self._residence.get(portable_id)

    def static_portables(self, now: float) -> List[Hashable]:
        """All portables classified static at ``now``."""
        return [
            pid
            for pid in self._residence
            if self.classify(pid, now) is PortableState.STATIC
        ]

    def forget(self, portable_id: Hashable) -> None:
        self._residence.pop(portable_id, None)
        self._notified_static.discard(portable_id)
