"""Tests for the cell reservation ledger and B_dyn pool."""

import pytest

from repro.core import CellReservations
from repro.network import Link


def make():
    link = Link("bs", "air", capacity=100.0)
    return link, CellReservations(link, min_pool_fraction=0.05, max_pool_fraction=0.20)


def test_initial_pool_at_minimum_fraction():
    link, ledger = make()
    assert ledger.pool == pytest.approx(5.0)
    assert link.reserved == pytest.approx(5.0)


def test_fraction_band_validation():
    link = Link("a", "b", capacity=10.0)
    with pytest.raises(ValueError):
        CellReservations(link, min_pool_fraction=0.3, max_pool_fraction=0.2)
    with pytest.raises(ValueError):
        CellReservations(link, min_pool_fraction=-0.1)


def test_targeted_reservation_syncs_link():
    link, ledger = make()
    ledger.reserve_for_portable("p", 16.0)
    assert ledger.targeted_for("p") == 16.0
    assert link.reserved == pytest.approx(21.0)
    ledger.reserve_for_portable("p", 32.0)  # replacement
    assert link.reserved == pytest.approx(37.0)
    assert ledger.release_portable("p") == 32.0
    assert link.reserved == pytest.approx(5.0)


def test_claim_consumes_reservation():
    link, ledger = make()
    ledger.reserve_for_portable("p", 16.0)
    assert ledger.claim_portable("p") == 16.0
    assert ledger.targeted_for("p") == 0.0
    assert ledger.claim_portable("p") == 0.0  # idempotent


def test_aggregate_pools():
    link, ledger = make()
    ledger.reserve_aggregate(("meeting", "x"), 48.0)
    assert ledger.aggregate_for(("meeting", "x")) == 48.0
    assert link.reserved == pytest.approx(53.0)
    ledger.reserve_aggregate(("meeting", "x"), 0.0)  # zero removes
    assert ledger.aggregate_for(("meeting", "x")) == 0.0


def test_draw_aggregate_partial_and_exhausting():
    _, ledger = make()
    ledger.reserve_aggregate("tag", 30.0)
    assert ledger.draw_aggregate("tag", 12.0) == 12.0
    assert ledger.aggregate_for("tag") == pytest.approx(18.0)
    assert ledger.draw_aggregate("tag", 100.0) == pytest.approx(18.0)
    assert ledger.aggregate_for("tag") == 0.0


def test_pool_clamped_to_band():
    link, ledger = make()
    assert ledger.set_pool(50.0) == pytest.approx(20.0)  # max 20%
    assert ledger.set_pool(0.0) == pytest.approx(5.0)    # min 5%
    assert ledger.adapt_pool_for_static_neighbors(12.0) == pytest.approx(12.0)


def test_draw_pool():
    link, ledger = make()
    ledger.set_pool(20.0)
    assert ledger.draw_pool(8.0) == 8.0
    assert ledger.pool == pytest.approx(12.0)
    assert ledger.draw_pool(100.0) == pytest.approx(12.0)
    assert ledger.pool == 0.0
    assert link.reserved == 0.0


def test_total_combines_all_categories():
    link, ledger = make()
    ledger.reserve_for_portable("p", 10.0)
    ledger.reserve_aggregate("tag", 20.0)
    ledger.set_pool(15.0)
    assert ledger.total == pytest.approx(45.0)
    assert link.reserved == pytest.approx(45.0)


@pytest.mark.parametrize(
    "method, args",
    [
        ("reserve_for_portable", ("p",)),
        ("reserve_aggregate", ("t",)),
        ("draw_aggregate", ("t",)),
        ("adapt_pool_for_static_neighbors", ()),
        ("draw_pool", ()),
    ],
)
def test_nan_amounts_rejected(method, args):
    link, ledger = make()
    ledger.reserve_aggregate("t", 10.0)
    with pytest.raises(ValueError):
        getattr(ledger, method)(*args, float("nan"))
    assert link.reserved == pytest.approx(15.0)


def test_negative_amounts_rejected():
    _, ledger = make()
    with pytest.raises(ValueError):
        ledger.reserve_for_portable("p", -1.0)
    with pytest.raises(ValueError):
        ledger.reserve_aggregate("t", -1.0)
    with pytest.raises(ValueError):
        ledger.draw_aggregate("t", -1.0)
    with pytest.raises(ValueError):
        ledger.draw_pool(-1.0)
    with pytest.raises(ValueError):
        ledger.adapt_pool_for_static_neighbors(-1.0)
