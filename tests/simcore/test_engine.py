"""Unit tests for the DES engine: clock, run loop, processes."""

import pytest

from repro.simcore import (
    Environment,
    EventNotTriggered,
    Interrupt,
    SimulationDeadlock,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5.0]


def test_timeout_value_passed_to_process():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="hello")
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env):
        while True:
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3.0)
        return "result"

    p = env.process(proc(env))
    assert env.run(until=p) == "result"
    assert env.now == 3.0


def test_run_until_event_reraises_failure():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    p = env.process(proc(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=p)


def test_run_until_unreachable_event_deadlocks():
    env = Environment()
    ev = env.event()  # nobody will ever trigger this
    with pytest.raises(SimulationDeadlock):
        env.run(until=ev)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 3.0, "c"))
    env.process(proc(env, 1.0, "a"))
    env.process(proc(env, 2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        env.process(proc(env, tag))
    env.run()
    assert order == list("abcd")


def test_nested_process_waits_for_child():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2.0)
        log.append(("child", env.now))
        return 99

    def parent(env):
        result = yield env.process(child(env))
        log.append(("parent", env.now, result))

    env.process(parent(env))
    env.run()
    assert log == [("child", 2.0), ("parent", 2.0, 99)]


def test_process_value_readable_after_completion():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 7

    p = env.process(proc(env))
    with pytest.raises(EventNotTriggered):
        _ = p.value
    env.run()
    assert p.value == 7
    assert not p.is_alive


def test_process_exception_propagates_to_parent():
    env = Environment()
    caught = []

    def child(env):
        yield env.timeout(1.0)
        raise ValueError("child died")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(parent(env))
    env.run()
    assert caught == ["child died"]


def test_unhandled_process_failure_surfaces():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_interrupt_wakes_waiting_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(5.0, "wake up")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)

    p = env.process(proc(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_yield_non_event_fails_process():
    env = Environment()

    def proc(env):
        yield 42  # not an Event

    env.process(proc(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_manual_event_trigger():
    env = Environment()
    ev = env.event()
    seen = []

    def waiter(env, ev):
        v = yield ev
        seen.append((env.now, v))

    def trigger(env, ev):
        yield env.timeout(4.0)
        ev.succeed("go")

    env.process(waiter(env, ev))
    env.process(trigger(env, ev))
    env.run()
    assert seen == [(4.0, "go")]


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7.0)
    # The timeout's trigger is queued at t=7 (timeouts self-queue).
    assert env.peek() == 7.0


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def proc(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(5.0, value="b")
        results = yield env.all_of([t1, t2])
        times.append(env.now)
        assert set(results.values()) == {"a", "b"}

    env.process(proc(env))
    env.run()
    assert times == [5.0]


def test_and_operator():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(1.0) & env.timeout(2.0)
        log.append(env.now)

    env.process(proc(env))
    env.run(until=20)
    assert log == [2.0]


def test_empty_all_of_fires_immediately():
    env = Environment()
    log = []

    def proc(env):
        yield env.all_of([])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    from repro.simcore import EventAlreadyTriggered
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(float(i % 17) + 0.1)
        done.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert sorted(done) == list(range(500))


# ------------------------------------------------------ end-of-timestamp flush


def _at(env, t, fn):
    """Call ``fn()`` when the clock reaches ``t``."""
    env.timeout(t - env.now).callbacks.append(lambda _ev: fn())


def _deferred_after_cascade(env, log, note):
    # (a) A flush deferred at t runs after every event at t, including
    # the same-time cascade, and before any later event.
    def x():
        note("x")()
        env.defer(note("flush"))
        _at(env, env.now, note("x-cascade"))
    _at(env, 1.0, x)
    _at(env, 1.0, note("y"))
    _at(env, 2.0, note("z"))
    return 2.0, [("x", 1.0), ("y", 1.0), ("x-cascade", 1.0),
                 ("flush", 1.0), ("z", 2.0)]


def _redefer_moves_to_back(env, log, note):
    # (b) Flush order follows each callback's last touch.
    a, b = note("a"), note("b")

    def touch():
        env.defer(a)
        env.defer(b)
        env.defer(a)
    _at(env, 1.0, touch)
    return 1.0, [("b", 1.0), ("a", 1.0)]


def _flush_defers_flush(env, log, note):
    # (c) A flush that defers another callback drains it in the same pass.
    def a():
        note("a")()
        env.defer(note("b"))
    _at(env, 1.0, lambda: env.defer(a))
    _at(env, 2.0, note("z"))
    return 2.0, [("a", 1.0), ("b", 1.0), ("z", 2.0)]


def _flush_at_deadline(env, log, note):
    # (d) Events at exactly the deadline are processed, and so are the
    # flushes due there and the same-time events those flushes schedule.
    def flush():
        note("flush")()
        _at(env, env.now, note("cascade"))

    def x():
        note("x")()
        env.defer(flush)
    _at(env, 5.0, x)
    _at(env, 6.0, note("later"))
    return 5.0, [("x", 5.0), ("flush", 5.0), ("cascade", 5.0),
                 ("later", 6.0)]


def _flush_on_empty_queue(env, log, note):
    # (e) Pending flushes run when the queue empties, and the events
    # they schedule are then processed.
    def flush():
        note("flush")()
        _at(env, env.now + 2.0, note("y"))

    def x():
        note("x")()
        env.defer(flush)
    _at(env, 3.0, x)
    return 3.0, [("x", 3.0), ("flush", 3.0), ("y", 5.0)]


@pytest.mark.parametrize("mode", ["run", "until_t", "until_ev"])
@pytest.mark.parametrize("scenario", [
    _deferred_after_cascade,
    _redefer_moves_to_back,
    _flush_defers_flush,
    _flush_at_deadline,
    _flush_on_empty_queue,
], ids=lambda fn: fn.__name__.lstrip("_"))
def test_defer_semantics(scenario, mode):
    """Each scenario logs ``(tag, now)``; ``horizon`` is its last
    scheduled time.  ``run(until=horizon)`` and ``run(until=ev)`` with
    ``ev`` half a unit later must stop after everything due by then, a
    plain ``run()`` after everything; a second ``run()`` drains the
    rest, so all three modes see the same log around the stop marker.
    """
    env = Environment()
    log = []

    def note(tag):
        return lambda *_: log.append((tag, env.now))

    horizon, expected = scenario(env, log, note)
    if mode == "run":
        env.run()
        stop = expected[-1][1]
    elif mode == "until_t":
        env.run(until=horizon)
        stop = horizon
    else:
        stop = horizon + 0.5
        env.run(until=env.timeout(stop))
    assert env.now == stop
    log.append(("return", env.now))
    env.run()
    assert log == ([e for e in expected if e[1] <= stop] + [("return", stop)]
                   + [e for e in expected if e[1] > stop])


@pytest.mark.parametrize("ok", [True, False], ids=["ok", "failed"])
def test_run_until_processed_event_leaves_queue_alone(ok):
    # (f) An already-processed sentinel returns or re-raises at once.
    env = Environment()
    ev = env.event()

    def run_until_ev():
        if ok:
            assert env.run(until=ev) == "value"
        else:
            with pytest.raises(RuntimeError, match="boom"):
                env.run(until=ev)

    if ok:
        ev.succeed("value")
    else:
        ev.fail(RuntimeError("boom"))
    run_until_ev()
    env.timeout(5.0)
    env.defer(lambda: pytest.fail("flush ran"))
    queued = len(env._queue)
    run_until_ev()
    assert len(env._queue) == queued
    assert env.now == 0.0
