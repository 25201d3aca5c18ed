"""Completion-time oracles for both bandwidth kernels.

Each kernel is checked against a small event-by-event simulator written
here in exact rational arithmetic (:class:`fractions.Fraction`).  The
oracles share no code with :mod:`repro.simcore`: they read only the
arrival script and the model's stated laws, and the kernels are driven
through their public API alone.

* :func:`ps_oracle` — processor sharing.  With ``n`` jobs in service
  the channel delivers ``max(1/(1+beta*(n-1)**gamma), min_efficiency)``
  dedicated seconds per second, split equally among the jobs.
* :func:`maxmin_oracle` — max-min fair sharing of capacitated links,
  with per-flow rate caps, recomputed from scratch by progressive
  filling at every arrival and departure.

Both honour the kernels' completion tolerance: a job with at most
``1e-9`` dedicated seconds left, or a flow with at most
``max(1e-9, 1e-9 * size)`` bytes left, counts as done; zero-size and
sub-tolerance work therefore completes on arrival.  Every completion
time must agree within ``1e-9 * max(1, t)``.
"""

import random
from fractions import Fraction

import pytest

from repro.simcore import Environment, FairShareChannel, FlowNetwork, Link

#: Dedicated seconds at or below which a channel job counts as done.
JOB_EPS = Fraction(1e-9)


def _assert_times_match(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        w = float(w)
        assert abs(g - w) <= 1e-9 * max(1.0, w), (i, g, w)


def _run_script(env, start, script):
    """Call ``start(*args)`` at each scripted ``(arrival, args)``; return
    the completion time of every entry, in script order."""
    finish = [None] * len(script)

    def job(i, at, args):
        yield env.timeout(at)
        yield start(*args)
        finish[i] = env.now

    for i, (at, args) in enumerate(script):
        env.process(job(i, at, args))
    env.run()
    return finish


def _arrival_times(rng, count):
    """Arrival times with same-timestamp waves mixed in."""
    times = []
    for _ in range(count):
        if times and rng.random() < 0.3:
            times.append(rng.choice(times))
        else:
            times.append(rng.uniform(0.0, 20.0))
    return times


# -- processor sharing ----------------------------------------------------


def ps_oracle(script, beta, gamma, min_efficiency):
    """Completion times of ``[(arrival, work), ...]`` on one channel."""

    def per_job_rate(n):
        total = max(1.0 / (1.0 + beta * (n - 1) ** gamma), min_efficiency)
        return Fraction(total) / n

    order = sorted(range(len(script)), key=lambda i: script[i][0])
    finish = [None] * len(script)
    left = {}
    now = Fraction(0)
    k = 0
    while k < len(order) or left:
        candidates = []
        if k < len(order):
            candidates.append(Fraction(script[order[k]][0]))
        if left:
            rate = per_job_rate(len(left))
            candidates.append(now + min(left.values()) / rate)
        t = min(candidates)
        if left:
            served = (t - now) * rate
            for j in left:
                left[j] -= served
        now = t
        for j in [j for j, w in left.items() if w <= JOB_EPS]:
            del left[j]
            finish[j] = now
        while k < len(order) and Fraction(script[order[k]][0]) == now:
            j = order[k]
            k += 1
            work = Fraction(script[j][1])
            if work <= JOB_EPS:
                finish[j] = now
            else:
                left[j] = work
    return finish


def _ps_case(seed):
    rng = random.Random(seed)
    beta = rng.choice([0.0, 0.15, 0.4])
    gamma = rng.choice([1.0, 1.5, 2.0])
    min_efficiency = rng.choice([0.0, 0.25])
    count = rng.randint(20, 50)
    script = [
        (at, rng.choice([0.0, 1e-10, 1e-9, rng.uniform(0.01, 0.5),
                         rng.uniform(0.5, 8.0), rng.uniform(0.5, 8.0)]))
        for at in _arrival_times(rng, count)
    ]
    return (beta, gamma, min_efficiency), script


@pytest.mark.parametrize("trial", range(10))
def test_channel_completion_times_match_ps_oracle(trial):
    law, script = _ps_case(71000 + trial)
    env = Environment()
    channel = FairShareChannel(env, "oracle", *law)
    got = _run_script(env, channel.submit, [(at, (w,)) for at, w in script])
    _assert_times_match(got, ps_oracle(script, *law))


# -- max-min fair flows ---------------------------------------------------


def maxmin_rates(flows, capacities):
    """Max-min fair rates of ``{id: (link indices, cap or None)}``.

    Progressive filling: raise every unfrozen flow by the largest common
    increment no link or cap forbids, freeze the flows on saturated
    links and those at their cap, and repeat.
    """
    rate = {f: Fraction(0) for f in flows}
    users = {link: [f for f, (path, _) in flows.items() if link in path]
             for link in range(len(capacities))}
    active = set(flows)
    while active:
        step = None
        for link, on in users.items():
            n_active = sum(1 for f in on if f in active)
            if n_active:
                spare = capacities[link] - sum(rate[f] for f in on)
                share = spare / n_active
                step = share if step is None else min(step, share)
        for f in active:
            cap = flows[f][1]
            if cap is not None:
                step = min(step, cap - rate[f])
        for f in active:
            rate[f] += step
        frozen = {f for f in active if flows[f][1] == rate[f]}
        for link, on in users.items():
            if sum(rate[f] for f in on) == capacities[link]:
                frozen.update(f for f in on if f in active)
        active -= frozen
    return rate


def maxmin_oracle(capacities, script):
    """Completion times of ``[(arrival, path, nbytes, cap), ...]``."""
    capacities = [Fraction(c) for c in capacities]
    order = sorted(range(len(script)), key=lambda i: script[i][0])
    finish = [None] * len(script)
    live = {}  # id -> [bytes left, tolerance]
    routes = {}
    now = Fraction(0)
    rate = {}
    k = 0
    while k < len(order) or live:
        candidates = []
        if k < len(order):
            candidates.append(Fraction(script[order[k]][0]))
        if live:
            candidates.append(now + min(left / rate[f]
                                        for f, (left, _) in live.items()))
        t = min(candidates)
        for f, state in live.items():
            state[0] -= (t - now) * rate[f]
        now = t
        for f in [f for f, (left, tol) in live.items() if left <= tol]:
            del live[f]
            finish[f] = now
        while k < len(order) and Fraction(script[order[k]][0]) == now:
            f = order[k]
            k += 1
            _, path, nbytes, cap = script[f]
            tol = Fraction(max(1e-9, nbytes * 1e-9))
            if nbytes <= tol:
                finish[f] = now
            else:
                live[f] = [Fraction(nbytes), tol]
                routes[f] = (path, None if cap is None else Fraction(cap))
        rate = maxmin_rates({f: routes[f] for f in live}, capacities)
    return finish


def _flow_case(seed):
    rng = random.Random(seed)
    capacities = [rng.choice([1e6, 4e6, 2.5e7, 1e8])
                  for _ in range(rng.randint(2, 6))]
    script = []
    for at in _arrival_times(rng, rng.randint(20, 50)):
        path = tuple(sorted(rng.sample(range(len(capacities)),
                                       rng.randint(1, min(3, len(capacities))))))
        nbytes = rng.choice([0.0, 1e-12, 1e-9, rng.uniform(1e3, 1e5),
                             rng.uniform(1e5, 5e7), rng.uniform(1e5, 5e7)])
        cap = rng.choice([None, None, 2e5, 1.5e6, rng.uniform(1e5, 2e7)])
        script.append((at, path, nbytes, cap))
    return capacities, script


@pytest.mark.parametrize("trial", range(10))
def test_flow_completion_times_match_maxmin_oracle(trial):
    capacities, script = _flow_case(72000 + trial)
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(capacities)]

    def start(path, nbytes, cap):
        return net.transfer([links[i] for i in path], nbytes, max_rate=cap)

    got = _run_script(env, start,
                      [(at, (path, nbytes, cap))
                       for at, path, nbytes, cap in script])
    _assert_times_match(got, maxmin_oracle(capacities, script))


# -- the oracles themselves -----------------------------------------------


def test_ps_oracle_textbook_case():
    """Two jobs of 5 and 10 from t=0 on an ideal channel: the short one
    leaves at 10, the long one runs alone and leaves at 15."""
    assert ps_oracle([(0.0, 5.0), (0.0, 10.0)], 0.0, 1.0, 0.0) == [10, 15]


def test_maxmin_oracle_textbook_case():
    """Link 0 (10 B/s) carries flows a and b; b is capped at 2 B/s and
    flow c shares link 1 (4 B/s) with b: a gets 8, b 2, c 2."""
    rates = maxmin_rates({"a": ((0,), None), "b": ((0, 1), Fraction(2)),
                          "c": ((1,), None)},
                         [Fraction(10), Fraction(4)])
    assert rates == {"a": 8, "b": 2, "c": 2}
