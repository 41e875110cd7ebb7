"""Tests for Link bandwidth/buffer bookkeeping."""

import pytest

from repro.network import Link


@pytest.fixture
def link():
    return Link("a", "b", capacity=100.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Link("a", "b", capacity=0)
    with pytest.raises(ValueError):
        Link("a", "b", capacity=10, error_prob=1.0)
    with pytest.raises(ValueError):
        Link("a", "b", capacity=10, prop_delay=-1)
    with pytest.raises(ValueError):
        Link("a", "b", capacity=10, buffer_capacity=0)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        lambda link: Link("a", "b", capacity=_NAN),
        lambda link: link.admit("c1", _NAN),
        lambda link: link.admit("c1", 10.0, excess=_NAN),
        lambda link: link.set_excess("c0", _NAN),
        lambda link: link.reserve(_NAN),
        lambda link: link.unreserve(_NAN),
        lambda link: link.reserve_buffer("c0", _NAN),
    ],
    ids=[
        "capacity", "admit-minimum", "admit-excess", "set_excess", "reserve",
        "unreserve", "reserve_buffer",
    ],
)
def test_bandwidth_guards_reject_nan(link, call):
    link.admit("c0", 10.0)
    with pytest.raises(ValueError):
        call(link)
    assert link.allocated == 10.0
    assert link.reserved == 0.0
    assert link.buffer_committed == 0.0


def test_key_is_endpoint_pair(link):
    assert link.key == ("a", "b")


def test_admit_tracks_minimum_and_excess(link):
    link.admit("c1", minimum=30.0, excess=10.0)
    assert link.min_committed == 30.0
    assert link.allocated == 40.0
    assert link.rate_of("c1") == 40.0


def test_excess_available_formula(link):
    """b'_av = C - b_resv - sum(b_min) per Section 5.2."""
    link.reserve(20.0)
    link.admit("c1", minimum=30.0, excess=15.0)
    assert link.excess_available == pytest.approx(100.0 - 20.0 - 30.0)
    # Excess grants do not reduce the floor-level headroom.
    assert link.unassigned == pytest.approx(100.0 - 20.0 - 45.0)


def test_double_admit_rejected(link):
    link.admit("c1", 10.0)
    with pytest.raises(KeyError):
        link.admit("c1", 10.0)


def test_release_returns_allocation_and_frees_buffer(link):
    link.admit("c1", 10.0, excess=5.0)
    link.reserve_buffer("c1", 42.0)
    allocation = link.release("c1")
    assert allocation.total == 15.0
    assert link.buffer_committed == 0.0


def test_release_unknown_raises(link):
    with pytest.raises(KeyError):
        link.release("ghost")


def test_set_excess_updates_rate(link):
    link.admit("c1", 10.0)
    link.set_excess("c1", 25.0)
    assert link.rate_of("c1") == 35.0
    with pytest.raises(ValueError):
        link.set_excess("c1", -5.0)


def test_set_excess_clamps_tiny_negative(link):
    link.admit("c1", 10.0)
    link.set_excess("c1", -1e-15)  # numerical dust from maxmin
    assert link.rate_of("c1") == 10.0


def test_reserve_unreserve_cycle(link):
    link.reserve(30.0)
    assert link.reserved == 30.0
    link.unreserve(10.0)
    assert link.reserved == 20.0
    link.unreserve(100.0)  # clamped at zero
    assert link.reserved == 0.0
    with pytest.raises(ValueError):
        link.reserve(-1.0)
    with pytest.raises(ValueError):
        link.unreserve(-1.0)


def test_utilization(link):
    link.reserve(10.0)
    link.admit("c1", 40.0)
    assert link.utilization == pytest.approx(0.5)


def test_buffer_accounting(link):
    assert link.buffer_available == float("inf")
    bounded = Link("a", "b", capacity=10.0, buffer_capacity=100.0)
    bounded.reserve_buffer("c1", 60.0)
    assert bounded.buffer_available == 40.0
    bounded.reserve_buffer("c1", 30.0)  # replacement, not accumulation
    assert bounded.buffer_committed == 30.0
    assert bounded.release_buffer("c1") == 30.0
    assert bounded.release_buffer("ghost") == 0.0
    with pytest.raises(ValueError):
        bounded.reserve_buffer("c2", -1.0)
