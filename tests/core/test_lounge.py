"""Tests for cafeteria and default-lounge slot-based reservation."""

import pytest

from repro.core import (
    CafeteriaReservation,
    CellReservations,
    DefaultLoungeReservation,
    SlotCounter,
)
from repro.des import Environment
from repro.network import Link


def build(cls, distribution=None, **kwargs):
    env = Environment()
    own = CellReservations(Link("a", "b", capacity=1600.0))
    n1 = CellReservations(Link("c", "d", capacity=1600.0))
    n2 = CellReservations(Link("e", "f", capacity=1600.0))
    process = cls(
        env,
        "cafe",
        own,
        {"n1": n1, "n2": n2},
        handoff_distribution=lambda: distribution or {},
        per_user_bandwidth=16.0,
        slot_duration=kwargs.pop("slot_duration", 60.0),
        **kwargs,
    )
    env.process(process.run())
    return env, process, own, n1, n2


# -- SlotCounter ------------------------------------------------------------------


def test_slot_counter_roll_cycle():
    counter = SlotCounter()
    counter.count()
    counter.count(2)
    assert counter.current == 3
    assert counter.roll() == 3
    assert counter.current == 0
    assert counter.history == [3]


def test_slot_counter_last_needs_enough_history():
    counter = SlotCounter()
    counter.roll()
    counter.roll()
    assert counter.last(3) is None
    counter.roll()
    assert counter.last(3) == [0, 0, 0]


def test_slot_counter_bounded_history():
    counter = SlotCounter(history=3)
    for i in range(6):
        counter.count(i)
        counter.roll()
    assert counter.history == [3, 4, 5]
    with pytest.raises(ValueError):
        SlotCounter(history=2)


# -- CafeteriaReservation --------------------------------------------------------------


def test_cafeteria_warms_up_with_one_step_memory():
    env, process, own, n1, n2 = build(
        CafeteriaReservation, distribution={"n1": 1.0}
    )
    for _ in range(4):
        process.handoff_out()
    env.run(until=61.0)  # one closed slot: count 4, <3 slots of history
    assert process.predicted_out == pytest.approx(4.0)
    assert n1.aggregate_for(process.tag) == pytest.approx(4 * 16.0)


def test_cafeteria_linear_extrapolation_after_three_slots():
    env, process, own, n1, n2 = build(
        CafeteriaReservation, distribution={"n1": 1.0}
    )

    def feed():
        # Slot counts 2, 4, 6 -> LS predicts 8.
        for count in (2, 4, 6):
            for _ in range(count):
                process.handoff_out()
            yield env.timeout(60.0)

    env.process(feed())
    env.run(until=185.0)
    assert process.predicted_out == pytest.approx(8.0)
    assert n1.aggregate_for(process.tag) == pytest.approx(8 * 16.0)


def test_cafeteria_distribution_split():
    env, process, own, n1, n2 = build(
        CafeteriaReservation, distribution={"n1": 0.25, "n2": 0.75}
    )
    for _ in range(4):
        process.handoff_out()
    env.run(until=61.0)
    assert n1.aggregate_for(process.tag) == pytest.approx(4 * 0.25 * 16.0)
    assert n2.aggregate_for(process.tag) == pytest.approx(4 * 0.75 * 16.0)


def test_cafeteria_reserves_locally_against_default_neighbor():
    env, process, own, n1, n2 = build(
        CafeteriaReservation,
        distribution={"n1": 1.0},
        default_neighbors=["n2"],
    )
    for _ in range(5):
        process.handoff_in()
    env.run(until=61.0)
    assert process.predicted_in == pytest.approx(5.0)
    assert own.aggregate_for(("cafeteria-in", "cafe")) == pytest.approx(5 * 16.0)


def test_cafeteria_no_local_reservation_without_default_neighbor():
    env, process, own, n1, n2 = build(CafeteriaReservation, distribution={"n1": 1.0})
    for _ in range(5):
        process.handoff_in()
    env.run(until=61.0)
    assert own.aggregate_for(("cafeteria-in", "cafe")) == 0.0


def test_slot_duration_validation():
    with pytest.raises(ValueError):
        build(CafeteriaReservation, slot_duration=0.0)


# -- DefaultLoungeReservation ---------------------------------------------------------------


def test_default_lounge_one_step_memory():
    env, process, own, n1, n2 = build(
        DefaultLoungeReservation, distribution={"n1": 1.0}
    )

    def feed():
        for count in (3, 7):
            for _ in range(count):
                process.handoff_out()
            yield env.timeout(60.0)

    env.process(feed())
    env.run(until=125.0)
    # One-step memory: prediction equals the last closed slot (7).
    assert process.predicted_out == pytest.approx(7.0)
    assert n1.aggregate_for(process.tag) == pytest.approx(7 * 16.0)


def test_default_lounge_uniform_fallback_without_distribution():
    env, process, own, n1, n2 = build(DefaultLoungeReservation)
    for _ in range(4):
        process.handoff_out()
    env.run(until=61.0)
    assert n1.aggregate_for(process.tag) == pytest.approx(2 * 16.0)
    assert n2.aggregate_for(process.tag) == pytest.approx(2 * 16.0)
