"""Unit tests for Container and Store."""

import pytest

from repro.simcore import (
    Container,
    Environment,
    Store,
)


# --------------------------------------------------------------- Container

def test_container_put_get():
    env = Environment()
    c = Container(env, capacity=100.0, init=10.0)
    log = []

    def getter(env):
        yield c.get(30.0)
        log.append(("got", env.now, c.level))

    def putter(env):
        yield env.timeout(2.0)
        yield c.put(25.0)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert log == [("got", 2.0, 5.0)]


def test_container_put_blocks_at_capacity():
    env = Environment()
    c = Container(env, capacity=10.0, init=10.0)
    log = []

    def putter(env):
        yield c.put(5.0)
        log.append(env.now)

    def getter(env):
        yield env.timeout(3.0)
        yield c.get(5.0)

    env.process(putter(env))
    env.process(getter(env))
    env.run()
    assert log == [3.0]
    assert c.level == 10.0


def test_container_memory_gate_pattern():
    """Models Broadband memory limiting: 7 GB node, 2 GB tasks -> 3 at once."""
    env = Environment()
    mem = Container(env, capacity=7.0, init=7.0)
    concurrency = []
    running = [0]

    def task(env):
        yield mem.get(2.0)
        running[0] += 1
        concurrency.append(running[0])
        yield env.timeout(10.0)
        running[0] -= 1
        yield mem.put(2.0)

    for _ in range(6):
        env.process(task(env))
    env.run()
    assert max(concurrency) == 3


def test_container_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Container(env, capacity=-1.0)
    with pytest.raises(ValueError):
        Container(env, capacity=5.0, init=6.0)
    c = Container(env, capacity=5.0)
    with pytest.raises(ValueError):
        c.put(-1.0)
    with pytest.raises(ValueError):
        c.get(-1.0)


# ------------------------------------------------------------------- Store

def test_store_fifo_order():
    env = Environment()
    s = Store(env)
    received = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1.0)
            yield s.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield s.get()
            received.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert received == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_put():
    env = Environment()
    s = Store(env)
    log = []

    def consumer(env):
        item = yield s.get()
        log.append((env.now, item))

    def producer(env):
        yield env.timeout(7.0)
        yield s.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [(7.0, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    s = Store(env, capacity=1)
    log = []

    def producer(env):
        yield s.put("a")
        log.append(("a", env.now))
        yield s.put("b")
        log.append(("b", env.now))

    def consumer(env):
        yield env.timeout(5.0)
        yield s.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert log == [("a", 0.0), ("b", 5.0)]
