"""Tests for handoff histories and their aggregation."""

from collections import Counter, deque

import pytest
from hypothesis import example, given, strategies as st

from repro.profiles import (
    CellProfile,
    CountedHandoffHistory,
    HandoffHistory,
    HandoffRecord,
    PortableProfile,
    ProfileServer,
)


def test_record_accessors():
    rec = HandoffRecord("a", "b", "c")
    assert rec.previous == "a"
    assert rec.current == "b"
    assert rec.next == "c"
    assert rec == ("a", "b", "c")


def test_window_bounds_enforced():
    with pytest.raises(ValueError):
        HandoffHistory(window=0)


def test_sliding_window_evicts_oldest():
    history = HandoffHistory(window=3)
    for i in range(5):
        history.record(None, "cell", f"n{i}")
    assert len(history) == 3
    assert [r.next for r in history] == ["n2", "n3", "n4"]


def test_transition_counts_and_probabilities():
    history = HandoffHistory(window=10)
    for _ in range(3):
        history.record("p", "c", "x")
    history.record("p", "c", "y")
    history.record("q", "c", "y")
    counts = history.transition_counts("c")
    assert counts == {"x": 3, "y": 2}
    probs = history.transition_probabilities("c")
    assert probs["x"] == pytest.approx(0.6)
    assert probs["y"] == pytest.approx(0.4)


def test_conditioning_on_previous_cell():
    history = HandoffHistory(window=10)
    history.record("p", "c", "x")
    history.record("q", "c", "y")
    assert history.transition_counts("c", previous="p") == {"x": 1}
    assert history.most_likely_next("c", previous="q") == "y"


def test_most_likely_next_empty_is_none():
    assert HandoffHistory().most_likely_next("c") is None


def test_most_likely_next_tie_break_deterministic():
    h1 = HandoffHistory()
    h2 = HandoffHistory()
    h1.record(None, "c", "x")
    h1.record(None, "c", "y")
    h2.record(None, "c", "y")
    h2.record(None, "c", "x")
    assert h1.most_likely_next("c") == h2.most_likely_next("c")


def test_conditioned_triplets():
    history = HandoffHistory(window=20)
    for _ in range(3):
        history.record("C", "D", "A")
    history.record("C", "D", "E")
    history.record("E", "D", "C")
    triplets = history.conditioned_triplets()
    assert triplets[("C", "D")] == "A"
    assert triplets[("E", "D")] == "C"


@given(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("de"), st.sampled_from("xyz")),
        min_size=1,
        max_size=50,
    )
)
def test_probabilities_sum_to_one(records):
    history = HandoffHistory(window=100)
    for prev, cur, nxt in records:
        history.record(prev, cur, nxt)
    for cur in "de":
        probs = history.transition_probabilities(cur)
        if probs:
            assert sum(probs.values()) == pytest.approx(1.0)


# -- both history kinds == eager window ---------------------------------------


class _EagerHistory:
    """Reference model: the window is a plain ``deque(maxlen=window)`` of
    ``(previous, current, next)`` triples from construction on, and every
    query is spelled out over it."""

    def __init__(self, window):
        self.records = deque(maxlen=window)

    def record(self, previous, current, next_):
        self.records.append((previous, current, next_))

    def transition_counts(self, current, previous=None):
        counts = Counter()
        for prev, cur, nxt in self.records:
            if cur == current and (previous is None or prev == previous):
                counts[nxt] += 1
        return counts

    def transition_probabilities(self, current, previous=None):
        counts = self.transition_counts(current, previous)
        total = sum(counts.values())
        return {cell: n / total for cell, n in counts.items()} if total else {}

    def most_likely_next(self, current, previous=None):
        counts = self.transition_counts(current, previous)
        if not counts:
            return None
        return min(counts, key=lambda c: (-counts[c], repr(c)))

    def conditioned_triplets(self):
        by_context = {}
        for prev, cur, nxt in self.records:
            by_context.setdefault((prev, cur), Counter())[nxt] += 1
        return {
            ctx: min(counts, key=lambda c: (-counts[c], repr(c)))
            for ctx, counts in by_context.items()
        }


_CELLS = ("a", "b", "c")


@st.composite
def _windows_and_records(draw):
    window = draw(st.sampled_from([1, 2, 5, 50]))
    records = draw(
        st.lists(
            st.tuples(
                st.none() | st.sampled_from(_CELLS),
                st.sampled_from(_CELLS),
                st.sampled_from(_CELLS),
            ),
            max_size=3 * window,
        )
    )
    return window, records


def _assert_answers_like(history, reference):
    assert len(history) == len(reference.records)
    assert list(history) == list(reference.records)
    for current in _CELLS:
        for previous in (None,) + _CELLS:
            assert list(history.transition_counts(current, previous).items()) == list(
                reference.transition_counts(current, previous).items()
            )
            assert list(
                history.transition_probabilities(current, previous).items()
            ) == list(reference.transition_probabilities(current, previous).items())
            assert history.most_likely_next(current, previous) == (
                reference.most_likely_next(current, previous)
            )
    assert list(history.conditioned_triplets().items()) == list(
        reference.conditioned_triplets().items()
    )


@given(_windows_and_records())
@example((1, []))
@example((50, []))
# The last record evicts the oldest a->b, so b's first occurrence in the
# window moves behind c's.
@example((5, [("c", "a", "b"), (None, "a", "c"), ("c", "a", "b")] + [("b", "a", "a")] * 3))
def test_lazy_window_answers_like_an_eager_deque(case):
    """Both kinds of history, a portable profile's (window scan) and a cell
    profile's (counts kept per context), must answer every query like the
    plain ``deque(maxlen=window)`` reference, item order included: before
    the first record, while the window fills, and while it evicts.  (The
    name dates from when a portable's window was allocated on its first
    record; both kinds now allocate it at construction.)"""
    window, records = case
    histories = [
        ProfileServer(portable_window=window).register_portable("p").history,
        ProfileServer(cell_window=window).register_cell("a").history,
    ]
    reference = _EagerHistory(window)
    for history in histories:
        _assert_answers_like(history, reference)
    for prev, cur, nxt in records:
        reference.record(prev, cur, nxt)
        for history in histories:
            history.record(prev, cur, nxt)
            _assert_answers_like(history, reference)


def test_cell_profiles_count_and_portable_profiles_scan():
    """The owning profile decides the kind; ``transition_counts`` itself is
    defined once, on the base class, so every query passes through it."""
    server = ProfileServer(portable_window=7, cell_window=150)
    cell_history = server.register_cell("a", neighbors=["b"]).history
    assert type(cell_history) is CountedHandoffHistory
    assert cell_history.window == 150
    assert type(server.cell_profile("b").history) is CountedHandoffHistory
    assert type(CellProfile(cell_id="c").history) is CountedHandoffHistory
    assert CellProfile(cell_id="c").history.window == 500

    portable_history = server.register_portable("p").history
    assert type(portable_history) is HandoffHistory
    assert portable_history.window == 7
    assert type(PortableProfile(portable_id="q").history) is HandoffHistory

    assert "transition_counts" not in vars(CountedHandoffHistory)
    assert HandoffHistory.__slots__ == ("window", "_records")
