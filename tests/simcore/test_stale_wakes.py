"""The kernels count the wakes a later reschedule superseded.

A kernel arms one wake for its soonest completion.  Each arrival while
it is busy moves that completion, arms a new wake, and leaves the old
one in the heap, where it pops later and does nothing but count.
"""

import pytest

from repro.simcore import Environment, FairShareChannel, FlowNetwork, Link


def _run(env, script):
    """Call each ``start()`` at its ``at``; return the finish times."""
    finish = [None] * len(script)

    def job(i, at, start):
        yield env.timeout(at)
        yield start()
        finish[i] = env.now

    for i, (at, start) in enumerate(script):
        env.process(job(i, at, start))
    env.run()
    return finish


def test_channel_counts_superseded_wakes():
    """Jobs of 4 s arriving at 0, 1 and 2: the arrivals at 1 and 2 each
    supersede an armed wake; the three completions supersede none."""
    env = Environment()
    channel = FairShareChannel(env)
    finish = _run(env, [(at, lambda: channel.submit(4.0))
                        for at in (0.0, 1.0, 2.0)])
    assert finish == [pytest.approx(t) for t in (9.5, 11.5, 12.0)]
    assert channel.stale_wakes == 2


def test_network_counts_superseded_wakes():
    """The same script as 400-byte flows on a 100 B/s link, plus a flow
    at 0.5 on a link of its own.  It shares no link with the others,
    but the network has one wake, so its arrival supersedes one too."""
    env = Environment()
    net = FlowNetwork(env)
    shared, own = Link("shared", 100.0), Link("own", 1000.0)
    script = [(at, lambda: net.transfer([shared], 400.0))
              for at in (0.0, 1.0, 2.0)]
    script.append((0.5, lambda: net.transfer([own], 5000.0)))
    finish = _run(env, script)
    assert finish == [pytest.approx(t) for t in (9.5, 11.5, 12.0, 5.5)]
    assert net.stale_wakes == 3
