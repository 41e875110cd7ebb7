"""Bounded handoff histories and their aggregation.

The profile server keeps "the last N_pP handoffs" per portable and "the last
N_pC handoffs" per cell (Section 3.4.3); predictions are computed by
aggregating these windows.  A portable's window is scanned when queried; a
cell's keeps its aggregate as counts (:class:`CountedHandoffHistory`).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Deque, Dict, Hashable, List, Optional, Tuple

__all__ = ["HandoffRecord", "HandoffHistory", "CountedHandoffHistory"]


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
    """A sliding window of handoff records with aggregation queries."""

    __slots__ = ("window", "_records")

    def __init__(self, window: int = 200):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._records: Deque[HandoffRecord] = deque(maxlen=window)

    def record(
        self, previous: Optional[Hashable], current: Hashable, next_: Hashable
    ) -> None:
        self._records.append(HandoffRecord(previous, current, next_))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    # -- aggregation -----------------------------------------------------------

    def transition_counts(
        self, current: Hashable, previous: Optional[Hashable] = None
    ) -> Counter:
        """Counts of next-cells observed from ``current`` (optionally
        conditioned on ``previous``), keyed in order of first occurrence in
        the window.

        Every aggregation query goes through this method, and
        ``perfbench/tracing.py`` times it by name on this class, so
        subclasses change how the counts are found (:meth:`_count_next`),
        never this method.
        """
        return self._count_next(current, previous)

    def _count_next(
        self, current: Hashable, previous: Optional[Hashable]
    ) -> Counter:
        counts: Counter = Counter()
        if previous is None:
            for _, cur, nxt in self._records:
                if cur == current:
                    counts[nxt] += 1
        else:
            for prev, cur, nxt in self._records:
                if cur == current and prev == previous:
                    counts[nxt] += 1
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


def _contexts_of(
    previous: Optional[Hashable], current: Hashable
) -> Tuple[Tuple[Optional[Hashable], Hashable], ...]:
    """The ``(previous, current)`` query contexts a record counts towards:
    the unconditioned ``(None, current)``, and its own when it has a
    previous cell."""
    if previous is None:
        return ((None, current),)
    return ((None, current), (previous, current))


def _first_seq(item: Tuple[Hashable, List[int]]) -> int:
    return item[1][0]


class CountedHandoffHistory(HandoffHistory):
    """A cell profile's window, with its aggregate kept up to date.

    Table 1's cell profile is, per previous cell, the number of handoffs to
    each neighbour over the last N_pC handoffs, and every prediction reads
    it.  So besides the window, each query context (see
    :func:`_contexts_of`) keeps, per next cell, the sequence numbers of its
    records in the window.  :meth:`record` appends the new record's number
    and drops the evicted record's, which is always the oldest; a query
    costs O(neighbours) instead of O(window), and ordering the next cells
    by their oldest number reproduces the scan's first-occurrence order.

    Portable profiles keep the plain scan: there are many more of them, and
    most are never queried.
    """

    __slots__ = ("_seq", "_contexts")

    def __init__(self, window: int = 200):
        super().__init__(window)
        self._seq = 0
        self._contexts: Dict[
            Tuple[Optional[Hashable], Hashable], Dict[Hashable, List[int]]
        ] = {}

    def record(
        self, previous: Optional[Hashable], current: Hashable, next_: Hashable
    ) -> None:
        contexts = self._contexts
        if len(self._records) == self.window:
            old_previous, old_current, old_next = self._records[0]
            for key in _contexts_of(old_previous, old_current):
                by_next = contexts[key]
                seqs = by_next[old_next]
                del seqs[0]
                if not seqs:
                    del by_next[old_next]
                    if not by_next:
                        del contexts[key]
        super().record(previous, current, next_)
        seq = self._seq
        self._seq = seq + 1
        for key in _contexts_of(previous, current):
            contexts.setdefault(key, {}).setdefault(next_, []).append(seq)

    def _count_next(
        self, current: Hashable, previous: Optional[Hashable]
    ) -> Counter:
        counts: Counter = Counter()
        by_next = self._contexts.get((previous, current))
        if by_next:
            for nxt, seqs in sorted(by_next.items(), key=_first_seq):
                counts[nxt] = len(seqs)
        return counts
