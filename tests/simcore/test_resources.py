"""Unit tests for Resource, Container, Store."""

import pytest

from repro.simcore import (
    Container,
    Environment,
    NotPending,
    Resource,
    Store,
)


# ---------------------------------------------------------------- Resource

def test_resource_basic_acquire_release():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(env, res, tag, hold):
        req = res.request()
        yield req
        log.append((tag, "got", env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(user(env, res, "a", 5.0))
    env.process(user(env, res, "b", 5.0))
    env.run()
    assert log == [("a", "got", 0.0), ("b", "got", 5.0)]


def test_resource_capacity_allows_concurrency():
    env = Environment()
    res = Resource(env, capacity=3)
    got_times = []

    def user(env):
        req = res.request()
        yield req
        got_times.append(env.now)
        yield env.timeout(10.0)
        res.release(req)

    for _ in range(5):
        env.process(user(env))
    env.run()
    assert got_times == [0.0, 0.0, 0.0, 10.0, 10.0]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=4)

    def user(env):
        req = res.request(2)
        yield req
        yield env.timeout(1.0)
        res.release(req)

    env.process(user(env))
    env.process(user(env))
    env.process(user(env))
    env.run(until=0.5)
    assert res.in_use == 4
    assert res.available == 0
    assert res.queue_length == 1
    env.run()
    assert res.in_use == 0


def test_resource_invalid_amounts():
    env = Environment()
    res = Resource(env, capacity=2)
    with pytest.raises(ValueError):
        res.request(0)
    with pytest.raises(ValueError):
        res.request(3)
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_release_ungranted_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()  # take the unit
    waiting = res.request()
    with pytest.raises(NotPending):
        res.release(waiting)


def test_resource_cancel_pending_request():
    env = Environment()
    res = Resource(env, capacity=1)
    held = res.request()
    env.run()
    assert held.triggered
    waiting = res.request()
    waiting.cancel()
    assert res.queue_length == 0


def test_resource_no_overtaking():
    """A large request at the head blocks later small ones (FIFO)."""
    env = Environment()
    res = Resource(env, capacity=2)
    order = []

    def holder(env):
        req = res.request(2)
        yield req
        order.append("holder")
        yield env.timeout(10.0)
        res.release(req)

    def big(env):
        yield env.timeout(1.0)
        req = res.request(2)
        yield req
        order.append("big")
        yield env.timeout(1.0)
        res.release(req)

    def small(env):
        yield env.timeout(2.0)  # arrives after big
        req = res.request(1)
        yield req
        order.append("small")
        res.release(req)

    env.process(holder(env))
    env.process(big(env))
    env.process(small(env))
    env.run()
    assert order == ["holder", "big", "small"]


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
