"""Tests for static/mobile classification (T_th)."""

import pytest

from repro.core import PortableState, StaticMobileClassifier


def test_threshold_validation():
    with pytest.raises(ValueError):
        StaticMobileClassifier(threshold=0.0)
    with pytest.raises(ValueError):
        StaticMobileClassifier(threshold=float("nan"))


def test_new_portable_is_mobile():
    clf = StaticMobileClassifier(threshold=100.0)
    assert clf.observe("p", "A", now=0.0) is PortableState.MOBILE
    assert clf.classify("p", 50.0) is PortableState.MOBILE


def test_becomes_static_after_threshold():
    clf = StaticMobileClassifier(threshold=100.0)
    clf.observe("p", "A", now=0.0)
    assert clf.classify("p", 99.9) is PortableState.MOBILE
    assert clf.classify("p", 100.0) is PortableState.STATIC
    assert clf.is_static("p", 200.0)


def test_cell_change_resets_clock():
    clf = StaticMobileClassifier(threshold=100.0)
    clf.observe("p", "A", now=0.0)
    assert clf.classify("p", 150.0) is PortableState.STATIC
    clf.observe("p", "B", now=150.0)
    assert clf.classify("p", 200.0) is PortableState.MOBILE
    assert clf.classify("p", 250.0) is PortableState.STATIC


def test_unknown_portable_is_mobile():
    clf = StaticMobileClassifier(threshold=10.0)
    assert clf.classify("ghost", 1000.0) is PortableState.MOBILE


def test_on_static_fires_once_per_residence():
    events = []
    clf = StaticMobileClassifier(
        threshold=10.0, on_static=lambda pid, now: events.append((pid, now))
    )
    clf.observe("p", "A", 0.0)
    clf.classify("p", 15.0)
    clf.classify("p", 20.0)
    assert events == [("p", 15.0)]
    clf.observe("p", "B", 25.0)
    clf.classify("p", 40.0)
    assert events == [("p", 15.0), ("p", 40.0)]


def test_on_mobile_fires_on_cell_change_only():
    events = []
    clf = StaticMobileClassifier(
        threshold=10.0, on_mobile=lambda pid, now: events.append((pid, now))
    )
    clf.observe("p", "A", 0.0)  # first sighting: no move event
    clf.observe("p", "A", 5.0)  # same cell: no event
    clf.observe("p", "B", 8.0)
    assert events == [("p", 8.0)]


def test_residence_and_forget():
    clf = StaticMobileClassifier(threshold=10.0)
    clf.observe("p", "A", 3.0)
    assert clf.residence("p") == ("A", 3.0)
    clf.forget("p")
    assert clf.residence("p") is None


def test_static_portables_listing():
    clf = StaticMobileClassifier(threshold=10.0)
    clf.observe("a", "A", 0.0)
    clf.observe("b", "B", 5.0)
    assert clf.static_portables(12.0) == ["a"]
    assert set(clf.static_portables(20.0)) == {"a", "b"}
