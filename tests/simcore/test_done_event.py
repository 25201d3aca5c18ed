"""Kernels complete the caller's event.

``FairShareChannel.submit`` and ``FlowNetwork.transfer`` take an
optional ``done`` event: they return it and succeed it when the
operation completes, exactly when the event they would have made
themselves fires.  ``Environment.start_after`` relies on this to put a
latency in front of a kernel operation without a proxy event.
"""

import pytest

from repro.simcore import Environment, FairShareChannel, FlowNetwork, Link


def _channel(env, size, done=None):
    ch = FairShareChannel(env, contention_beta=0.2)
    ch.submit(3.0)                    # background load shares the device
    return ch.submit(size, done=done)


def _flownet(env, size, done=None):
    net = FlowNetwork(env)
    shared, slow = Link("shared", 10.0), Link("slow", 4.0)
    net.transfer([shared], 25.0)      # background load on the shared link
    return net.transfer([shared, slow], size, done=done)


#: kernel -> (start, a nonzero size)
KERNELS = {"channel": (_channel, 5.0), "flownet": (_flownet, 40.0)}


def _run(kernel, size, with_done):
    """Start the kernel op; return (done passed in, event returned,
    times at which the returned event fired)."""
    start, _ = KERNELS[kernel]
    env = Environment()
    done = env.event() if with_done else None
    got = start(env, size, done=done)
    fired = []
    got.callbacks.append(lambda _ev: fired.append(env.now))
    env.run()
    return done, got, fired


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_kernel_returns_and_succeeds_the_callers_event(kernel):
    size = KERNELS[kernel][1]
    done, got, fired = _run(kernel, size, with_done=True)
    assert got is done
    assert done.processed and done.ok
    _, _, fired_plain = _run(kernel, size, with_done=False)
    assert len(fired) == 1
    assert fired == fired_plain


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_zero_size_succeeds_the_callers_event(kernel):
    done, got, fired = _run(kernel, 0.0, with_done=True)
    assert got is done
    assert done.processed and done.ok
    assert fired == [0.0]


def test_start_after_hands_its_event_to_the_kernel():
    env = Environment()
    ch = FairShareChannel(env)
    done = env.start_after(1.0, ch.submit, 2.0)
    fired = []
    done.callbacks.append(lambda _ev: fired.append(env.now))
    env.run()
    assert fired == [pytest.approx(3.0)]
    # One latency timeout, the channel's wakeup and ``done`` itself.
    assert env._seq == 3
