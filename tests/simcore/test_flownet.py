"""Unit tests for the max-min fair flow network."""

import pytest

from repro.simcore import Environment, FlowNetwork, Link


def test_single_flow_single_link():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    done = []

    def proc(env):
        yield net.transfer([link], 1000.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_two_flows_share_one_link():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    finish = []

    def proc(env):
        yield net.transfer([link], 1000.0)
        finish.append(env.now)

    env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert finish == [pytest.approx(20.0), pytest.approx(20.0)]


def test_flows_on_disjoint_links_do_not_interact():
    env = Environment()
    net = FlowNetwork(env)
    l1, l2 = Link("a", 100.0), Link("b", 50.0)
    finish = {}

    def proc(env, link, tag):
        yield net.transfer([link], 1000.0)
        finish[tag] = env.now

    env.process(proc(env, l1, "fast"))
    env.process(proc(env, l2, "slow"))
    env.run()
    assert finish["fast"] == pytest.approx(10.0)
    assert finish["slow"] == pytest.approx(20.0)


def test_multi_link_flow_bottlenecked_by_slowest():
    env = Environment()
    net = FlowNetwork(env)
    fast, slow = Link("fast", 1000.0), Link("slow", 10.0)
    done = []

    def proc(env):
        yield net.transfer([fast, slow], 100.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_max_min_fairness_redistributes_spare():
    """Two flows through a shared link; one also crosses a narrow private
    link.  The capped flow gets its narrow rate, the other takes the rest."""
    env = Environment()
    net = FlowNetwork(env)
    shared = Link("shared", 100.0)
    narrow = Link("narrow", 20.0)
    finish = {}

    def capped(env):
        yield net.transfer([shared, narrow], 200.0)
        finish["capped"] = env.now

    def free(env):
        yield net.transfer([shared], 800.0)
        finish["free"] = env.now

    env.process(capped(env))
    env.process(free(env))
    env.run()
    # capped flow: 20 B/s -> 10 s.  free flow: 80 B/s -> 800/80 = 10 s.
    assert finish["capped"] == pytest.approx(10.0)
    assert finish["free"] == pytest.approx(10.0)


def test_departure_triggers_reallocation():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    finish = {}

    def proc(env, tag, nbytes):
        yield net.transfer([link], nbytes)
        finish[tag] = env.now

    env.process(proc(env, "small", 500.0))
    env.process(proc(env, "big", 1500.0))
    env.run()
    # Shared at 50 each until small done at t=10 (500 B); big has 1000 B
    # left, now at 100 B/s -> finishes at t=20.
    assert finish["small"] == pytest.approx(10.0)
    assert finish["big"] == pytest.approx(20.0)


def test_per_flow_rate_cap():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 1000.0)
    done = []

    def proc(env):
        yield net.transfer([link], 100.0, max_rate=10.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_rate_cap_spare_goes_to_other_flow():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    finish = {}

    def capped(env):
        yield net.transfer([link], 100.0, max_rate=10.0)
        finish["capped"] = env.now

    def free(env):
        yield net.transfer([link], 900.0)
        finish["free"] = env.now

    env.process(capped(env))
    env.process(free(env))
    env.run()
    assert finish["capped"] == pytest.approx(10.0)
    assert finish["free"] == pytest.approx(10.0)


def test_zero_bytes_completes_immediately():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    done = []

    def proc(env):
        yield net.transfer([link], 0.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_invalid_arguments_rejected():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    with pytest.raises(ValueError):
        net.transfer([link], -1.0)
    with pytest.raises(ValueError):
        net.transfer([link], 100.0, max_rate=0.0)
    with pytest.raises(ValueError):
        net.transfer([link], 100.0, max_rate=float("nan"))
    with pytest.raises(ValueError):
        Link("bad", 0.0)
    with pytest.raises(ValueError):
        Link("bad", float("inf"))


def test_link_flow_counts():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)

    def proc(env):
        yield net.transfer([link], 1000.0)

    env.process(proc(env))
    env.process(proc(env))
    env.run(until=1.0)
    assert link.active_flows == 2
    assert net.active_flows == 2
    env.run()
    assert link.active_flows == 0
    assert net.total_bytes_moved == pytest.approx(2000.0)


def test_star_topology_many_clients_one_server():
    """N clients each with 100 B/s NIC pulling from a server NIC of
    100 B/s total: server is the bottleneck, each gets 100/N."""
    env = Environment()
    net = FlowNetwork(env)
    server_tx = Link("server-tx", 100.0)
    finish = []

    def client(env, i):
        nic = Link(f"client{i}-rx", 100.0)
        yield net.transfer([server_tx, nic], 100.0)
        finish.append(env.now)

    for i in range(4):
        env.process(client(env, i))
    env.run()
    # Each flow gets 25 B/s -> all finish at t=4*100/100 = 4... i.e. 100B/25 = 4s.
    assert finish == [pytest.approx(4.0)] * 4


def test_work_conservation_on_shared_link():
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 10.0)
    last = []

    def proc(env, nbytes, delay):
        yield env.timeout(delay)
        yield net.transfer([link], nbytes)
        last.append(env.now)

    sizes = [100.0, 50.0, 25.0, 25.0]
    for s in sizes:
        env.process(proc(env, s, 0.0))
    env.run()
    # Link busy the whole time -> last completion = total bytes / capacity.
    assert max(last) == pytest.approx(sum(sizes) / 10.0)


def test_finished_flow_keeps_its_last_rate():
    """A completed flow's ``rate`` is its last live rate, and reading it
    runs the reallocation its completion left pending."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("l", 100.0)
    short = net.transfer([link], 100.0)
    net.transfer([link], 1000.0)
    short_flow, long_flow = net._flows
    env.run(until=short)
    assert env.now == pytest.approx(2.0)
    assert net._dirty  # the completion's refill is still deferred
    assert short_flow.rate == 50.0
    assert not net._dirty
    assert long_flow.rate == 100.0
    assert short_flow.rate == 50.0
