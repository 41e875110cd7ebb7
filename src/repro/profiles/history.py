"""Bounded handoff histories and their aggregation.

The profile server keeps "the last N_pP handoffs" per portable and "the last
N_pC handoffs" per cell (Section 3.4.3); predictions are computed by
aggregating these windows.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Hashable, Optional, Tuple, Union

__all__ = ["HandoffRecord", "HandoffHistory"]


class HandoffRecord(tuple):
    """A (previous_cell, current_cell, next_cell) handoff triple.

    ``previous_cell`` may be ``None`` for a portable's first observed move.
    """

    def __new__(cls, previous: Optional[Hashable], current: Hashable, next_: Hashable):
        return super().__new__(cls, (previous, current, next_))

    @property
    def previous(self):
        return self[0]

    @property
    def current(self):
        return self[1]

    @property
    def next(self):
        return self[2]


class HandoffHistory:
    """A sliding window of handoff records with aggregation queries.

    The window's deque is allocated on the first :meth:`record`.  Most
    portables never hand off, and until then the empty tuple answers every
    query exactly as an empty deque would.
    """

    __slots__ = ("window", "_records")

    def __init__(self, window: int = 200):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._records: Union[Deque[HandoffRecord], Tuple[()]] = ()

    def record(
        self, previous: Optional[Hashable], current: Hashable, next_: Hashable
    ) -> None:
        records = self._records
        if isinstance(records, tuple):
            records = self._records = deque(maxlen=self.window)
        records.append(HandoffRecord(previous, current, next_))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    # -- aggregation -----------------------------------------------------------

    def transition_counts(
        self, current: Hashable, previous: Optional[Hashable] = None
    ) -> Counter:
        """Counts of next-cells observed from ``current`` (optionally
        conditioned on ``previous``)."""
        counts: Counter = Counter()
        for rec in self._records:
            if rec.current != current:
                continue
            if previous is not None and rec.previous != previous:
                continue
            counts[rec.next] += 1
        return counts

    def transition_probabilities(
        self, current: Hashable, previous: Optional[Hashable] = None
    ) -> Dict[Hashable, float]:
        """Empirical handoff distribution ``{next_cell: probability}``."""
        counts = self.transition_counts(current, previous)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {cell: n / total for cell, n in counts.items()}

    def most_likely_next(
        self, current: Hashable, previous: Optional[Hashable] = None
    ) -> Optional[Hashable]:
        """The modal next cell, or None with no observations.

        Ties break deterministically by (count desc, cell-id repr asc).
        """
        counts = self.transition_counts(current, previous)
        if not counts:
            return None
        return min(counts, key=lambda c: (-counts[c], repr(c)))

    def conditioned_triplets(self) -> Dict[Tuple[Hashable, Hashable], Hashable]:
        """Table 1's portable-profile content: (prev, cur) -> next-predicted.

        The prediction for each (prev, cur) context is the modal next cell
        within the window.
        """
        by_context: Dict[Tuple[Hashable, Hashable], Counter] = {}
        for rec in self._records:
            by_context.setdefault((rec.previous, rec.current), Counter())[
                rec.next
            ] += 1
        return {
            ctx: min(counts, key=lambda c: (-counts[c], repr(c)))
            for ctx, counts in by_context.items()
        }
