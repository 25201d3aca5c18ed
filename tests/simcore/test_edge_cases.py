"""Edge-case tests for the kernel: condition failures, interrupts
during waits, channel/network corner cases."""

import pytest

from repro.simcore import (
    AllOf,
    Container,
    Environment,
    FairShareChannel,
    FlowNetwork,
    Interrupt,
    Link,
)


def test_allof_fails_fast_on_subevent_failure():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1.0)
        raise ValueError("sub died")

    def waiter(env):
        p1 = env.process(failer(env))
        p2 = env.timeout(100.0)
        try:
            yield env.all_of([p1, p2])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    env.process(waiter(env))
    env.run()
    assert caught == [(1.0, "sub died")]


def test_condition_with_already_processed_events():
    env = Environment()
    log = []

    def proc(env):
        t = env.timeout(1.0, value="early")
        yield t                      # process it fully
        combined = env.all_of([t, env.timeout(1.0, value="late")])
        results = yield combined
        log.append(sorted(results.values()))

    env.process(proc(env))
    env.run()
    assert log == [["early", "late"]]


def test_interrupt_while_waiting_on_channel():
    env = Environment()
    ch = FairShareChannel(env)
    log = []

    def worker(env):
        try:
            yield ch.submit(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def killer(env, victim):
        yield env.timeout(5.0)
        victim.interrupt(cause="preempted")

    victim = env.process(worker(env))
    env.process(killer(env, victim))
    env.run()
    assert log == [(5.0, "preempted")]


def test_interrupt_while_queued_on_resource():
    env = Environment()
    memory = Container(env, capacity=1.0, init=1.0)
    log = []

    def holder(env):
        yield memory.get(1.0)
        yield env.timeout(100.0)
        yield memory.put(1.0)

    def waiter(env):
        get = memory.get(1.0)
        try:
            yield get
        except Interrupt:
            memory.cancel_get(get)
            log.append(env.now)

    def killer(env, victim):
        yield env.timeout(3.0)
        victim.interrupt()

    env.process(holder(env))
    victim = env.process(waiter(env))
    env.process(killer(env, victim))
    env.run(until=10.0)
    assert log == [3.0]
    assert memory._getters == []


def test_mixed_events_and_processes_in_conditions():
    env = Environment()
    done = []

    def child(env):
        yield env.timeout(2.0)
        return "child-result"

    def parent(env):
        results = yield env.all_of([
            env.process(child(env)),
            env.timeout(1.0, value="timer"),
        ])
        done.append(sorted(str(v) for v in results.values()))

    env.process(parent(env))
    env.run()
    assert done == [["child-result", "timer"]]


def test_flow_to_same_endpoints_many_times():
    env = Environment()
    net = FlowNetwork(env)
    a, b = Link("a", 100.0), Link("b", 100.0)
    count = [0]

    def proc(env):
        for _ in range(50):
            yield net.transfer([a, b], 10.0)
            count[0] += 1

    env.process(proc(env))
    env.run()
    assert count[0] == 50
    assert env.now == pytest.approx(5.0)


def test_channel_burst_of_zero_and_nonzero_work():
    env = Environment()
    ch = FairShareChannel(env)
    done = []

    def proc(env, w):
        yield ch.submit(w)
        done.append(w)

    for w in (0.0, 1.0, 0.0, 2.0, 0.0):
        env.process(proc(env, w))
    env.run()
    assert sorted(done) == [0.0, 0.0, 0.0, 1.0, 2.0]


def test_nested_interrupt_handler_continues_working():
    env = Environment()
    log = []

    def resilient(env):
        for attempt in range(3):
            try:
                yield env.timeout(10.0)
                log.append(("slept", env.now))
                return
            except Interrupt:
                log.append(("interrupted", env.now))

    def pest(env, victim):
        for _ in range(2):
            yield env.timeout(1.0)
            victim.interrupt()

    victim = env.process(resilient(env))
    env.process(pest(env, victim))
    env.run()
    assert log == [("interrupted", 1.0), ("interrupted", 2.0),
                   ("slept", 12.0)]
