"""Tests for event primitives: succeed/fail and process failure."""

import pytest

from repro.des import Environment


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()
    got = []

    def proc(env):
        got.append((yield ev))

    env.process(proc(env))
    ev.succeed("payload")
    env.run()
    assert got == ["payload"]


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(ValueError):
        env.event().fail("not an exception")


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    caught = []

    def proc(env, ev):
        try:
            yield ev
        except KeyError as exc:
            caught.append(exc)

    ev = env.event()
    env.process(proc(env, ev))
    ev.fail(KeyError("boom"))
    env.run()
    assert len(caught) == 1


def test_unhandled_failed_event_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value
    with pytest.raises(AttributeError):
        _ = ev.ok


def test_process_failure_propagates_to_waiter():
    env = Environment()
    caught = []

    def failing(env):
        yield env.timeout(1)
        raise KeyError("inner")

    def waiter(env):
        try:
            yield env.process(failing(env))
        except KeyError:
            caught.append(env.now)

    env.process(waiter(env))
    env.run()
    assert caught == [1.0]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_is_alive_transitions():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive
