"""Tests for event-queue ordering guarantees (URGENT vs NORMAL, ties)."""

from repro.des import NORMAL, URGENT, Environment, Event, Timeout
from repro.obs import RingBufferSink, Tracer


def test_urgent_events_precede_normal_at_same_time():
    env = Environment()
    order = []

    normal = Event(env)
    normal._ok = True
    normal._value = None
    normal.callbacks.append(lambda _e: order.append("normal"))
    env.schedule(normal, priority=NORMAL, delay=1.0)

    urgent = Event(env)
    urgent._ok = True
    urgent._value = None
    urgent.callbacks.append(lambda _e: order.append("urgent"))
    env.schedule(urgent, priority=URGENT, delay=1.0)

    env.run()
    assert order == ["urgent", "normal"]


def test_insertion_order_breaks_ties_within_priority():
    env = Environment()
    order = []
    for name in ("first", "second", "third"):
        event = Event(env)
        event._ok = True
        event._value = None
        event.callbacks.append(lambda _e, n=name: order.append(n))
        env.schedule(event, delay=2.0)
    env.run()
    assert order == ["first", "second", "third"]


def _schedule_three_ways(env, order):
    """Schedule two rounds of (schedule, env.timeout, Timeout) events, all
    due at t=1, each logging its name when it fires; returns the names in
    creation order."""
    names = []
    for round_ in range(2):
        event = Event(env)
        event._ok = True
        event._value = None
        env.schedule(event, delay=1.0)
        made = [
            (f"schedule-{round_}", event),
            (f"env.timeout-{round_}", env.timeout(1.0)),
            (f"Timeout-{round_}", Timeout(env, 1.0)),
        ]
        for name, ev in made:
            ev.callbacks.append(lambda _e, n=name: order.append(n))
            names.append(name)
    return names


def test_schedule_and_both_timeout_paths_share_one_insertion_order():
    env = Environment()
    order = []
    names = _schedule_three_ways(env, order)
    env.run()
    assert order == names


def test_traced_environment_records_one_schedule_per_timeout():
    sink = RingBufferSink()
    env = Environment()
    env.set_tracer(Tracer(sink))
    order = []
    names = _schedule_three_ways(env, order)
    schedules = [r for r in sink.records() if r["kind"] == "des.schedule"]
    assert [r["event"] for r in schedules] == ["Event", "Timeout", "Timeout"] * 2
    assert {(r["at"], r["prio"]) for r in schedules} == {(1.0, NORMAL)}
    env.run()
    assert order == names


def test_run_until_event_already_processed_returns_value():
    env = Environment()
    ev = env.event()
    ev.succeed("answer")
    env.run()  # processes the event
    assert ev.processed
    assert env.run(until=ev) == "answer"


def test_clock_never_goes_backwards():
    env = Environment()
    stamps = []

    def proc(env, delays):
        for d in delays:
            yield env.timeout(d)
            stamps.append(env.now)

    env.process(proc(env, [3, 0, 2, 0, 1]))
    env.process(proc(env, [1, 1, 1, 1, 1]))
    env.run()
    assert stamps == sorted(stamps)
