"""Randomized invariants for the incremental max-min reallocator.

The fast path in :mod:`repro.simcore.flownet` refills only the link
component touched by an arriving/finishing flow instead of the whole
network.  These tests pin its correctness against an independent
brute-force progressive-filling reference:

* after any sequence of arrivals, live rates equal a from-scratch
  water-filling of the full network;
* no link ever carries more than its capacity;
* per-flow ``max_rate`` ceilings are always honored;
* ``total_bytes_moved`` equals the sum of payload sizes once all
  transfers complete (regression for the final-wake overshoot clamp).
"""

import random

import pytest

from repro.simcore import Environment, FlowNetwork, Link

#: Huge payload so no flow finishes while we inspect steady-state rates.
_NEVER_FINISH = 1e18


def reference_fill(specs):
    """Brute-force max-min progressive filling, independent of the kernel.

    ``specs`` is a list of ``(links, max_rate)`` tuples; returns the
    fair rate for each flow, in order.  Every round raises all active
    flows uniformly until a link saturates or a flow hits its ceiling,
    freezes the constrained flows, and repeats — O(flows * links) per
    round, no incremental tricks.
    """
    n = len(specs)
    rates = [0.0] * n
    active = set(range(n))
    members = {}
    for idx, (links, _cap) in enumerate(specs):
        for link in links:
            members.setdefault(link, []).append(idx)

    while active:
        delta = float("inf")
        for link, flows_on in members.items():
            n_active = sum(1 for i in flows_on if i in active)
            if n_active:
                residual = link.capacity - sum(rates[i] for i in flows_on)
                delta = min(delta, residual / n_active)
        for i in active:
            cap = specs[i][1]
            if cap is not None:
                delta = min(delta, cap - rates[i])
        if delta == float("inf"):  # pragma: no cover - flows without links
            break
        for i in active:
            rates[i] += delta

        frozen = set()
        for i in active:
            cap = specs[i][1]
            if cap is not None and rates[i] >= cap * (1 - 1e-12):
                frozen.add(i)
        for link, flows_on in members.items():
            used = sum(rates[i] for i in flows_on)
            if used >= link.capacity * (1 - 1e-12):
                frozen.update(i for i in flows_on if i in active)
        if not frozen:  # pragma: no cover - numerical safety valve
            break
        active -= frozen
    return rates


def _random_network(rng):
    """A random topology plus flow specs routed over it."""
    n_links = rng.randint(2, 8)
    links = [Link(f"l{i}", rng.choice([1e6, 5e6, 2.5e7, 1e8]))
             for i in range(n_links)]
    specs = []
    for _ in range(rng.randint(1, 14)):
        path = rng.sample(links, rng.randint(1, min(3, n_links)))
        cap = rng.choice([None, None, None, 2e5, 1.5e6, 8e6])
        specs.append((tuple(path), cap))
    return links, specs


def _assert_invariants(net, links, specs):
    flows = list(net._flows)
    assert len(flows) == len(specs)
    for link in links:
        carried = sum(f.rate for f in link._flows)
        assert carried <= link.capacity * (1 + 1e-9), link
    for flow, (_path, cap) in zip(flows, specs):
        if cap is not None:
            assert flow.rate <= cap * (1 + 1e-9)


@pytest.mark.parametrize("trial", range(25))
def test_random_topology_matches_reference(trial):
    """Steady-state rates equal an independent water-filling."""
    rng = random.Random(9000 + trial)
    env = Environment()
    net = FlowNetwork(env)
    links, specs = _random_network(rng)
    for path, cap in specs:
        net.transfer(path, _NEVER_FINISH, max_rate=cap)

    _assert_invariants(net, links, specs)
    want = reference_fill(specs)
    for flow, expected in zip(net._flows, want):
        assert flow.rate == pytest.approx(expected, rel=1e-6, abs=1e-3)


@pytest.mark.parametrize("trial", range(10))
def test_incremental_arrivals_match_full_refill(trial):
    """After *every* arrival the (component-restricted) fill must equal
    a from-scratch fill of the whole network — the core claim of the
    incremental reallocator."""
    rng = random.Random(4100 + trial)
    env = Environment()
    net = FlowNetwork(env)
    links, specs = _random_network(rng)
    for step in range(len(specs)):
        path, cap = specs[step]
        net.transfer(path, _NEVER_FINISH, max_rate=cap)
        want = reference_fill(specs[:step + 1])
        for flow, expected in zip(net._flows, want):
            assert flow.rate == pytest.approx(expected, rel=1e-6, abs=1e-3)
    _assert_invariants(net, links, specs)


@pytest.mark.parametrize("trial", range(10))
def test_completion_churn_preserves_invariants(trial):
    """Finite flows arriving in waves: survivors stay max-min fair and
    capacity-respecting as earlier flows drain out."""
    rng = random.Random(7300 + trial)
    env = Environment()
    net = FlowNetwork(env)
    n_links = rng.randint(2, 6)
    links = [Link(f"l{i}", rng.choice([1e6, 1e7])) for i in range(n_links)]
    sizes = []

    def driver():
        pending = []
        for _ in range(rng.randint(5, 20)):
            path = rng.sample(links, rng.randint(1, 2))
            nbytes = rng.uniform(1e5, 5e7)
            sizes.append(nbytes)
            pending.append(net.transfer(path, nbytes))
            # Live mid-churn invariants after each arrival.
            for link in links:
                carried = sum(f.rate for f in link._flows)
                assert carried <= link.capacity * (1 + 1e-9)
            if rng.random() < 0.4:
                yield env.timeout(rng.uniform(0.01, 2.0))
        yield env.all_of(pending)

    env.process(driver())
    env.run()
    assert not net._flows
    assert net.total_bytes_moved == pytest.approx(sum(sizes), rel=1e-9)


def test_total_bytes_moved_is_clamped_to_payload():
    """The final wake lands a hair past the true finish; the delivered
    counter must clamp to the payload instead of overshooting."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("lan", 1.25e8)
    sizes = [3e9, 1.7e9, 9e8, 5.5e8]

    def driver():
        yield env.all_of([net.transfer((link,), size) for size in sizes])

    env.process(driver())
    env.run()
    assert net.total_bytes_moved == pytest.approx(sum(sizes), rel=1e-12)


def test_max_rate_cap_respected_under_churn():
    """A capped flow never exceeds its ceiling even as competitors
    come and go and spare bandwidth opens up."""
    env = Environment()
    net = FlowNetwork(env)
    link = Link("wan", 1e8)
    observed = []

    def sampler():
        while True:
            flows = list(net._flows)
            if not flows:
                return
            observed.append(flows[0].rate)
            yield env.timeout(0.05)

    def driver():
        # 2e7 bytes at <= 2e6 B/s outlives the 1.66 s driver.
        net.transfer((link,), 2e7, max_rate=2e6)
        for _ in range(6):
            net.transfer((link,), 1e7)
            yield env.timeout(0.11)
        # Only the capped flow remains; spare capacity is huge but the
        # ceiling must still bind.
        yield env.timeout(1.0)
        flow = next(iter(net._flows))
        assert flow.rate == pytest.approx(2e6)

    env.process(driver())
    env.process(sampler())
    env.run()
    assert observed, "sampler never saw the capped flow"
    assert max(observed) <= 2e6 * (1 + 1e-9)
    # The cap bound the whole way: 2e7 bytes at 2e6 B/s.
    assert env.now == pytest.approx(10.0)
