"""Differential tests for the flow-network kernel.

The kernel in :mod:`repro.simcore.flownet` claims *bit identity*
between its scalar and vectorized code paths, and with committed
goldens.  These tests pin that claim three independent ways:

* randomized topologies — steady-state rates and churn completion
  times must agree exactly (``==``, not approx) between the scalar and
  vectorized fills (the threshold pinned low to force the vector fill
  on small components) and hash to the committed digests; steady rates
  must also match an independent brute-force water-filler
  approximately;
* the 20 golden end-to-end scenarios must reproduce their committed
  telemetry hash-chains;
* serial vs parallel sweeps must agree cell for cell.

The digests were recorded while the retired object-graph kernel still
ran side by side with this one; both produced every one of them.
"""

import hashlib
import random

import pytest

from repro.experiments import run_sweep
from repro.simcore import Environment, FlowNetwork, Link
from tests.simcore.test_flownet_invariants import reference_fill
from tests.test_observability_invariance import (
    GOLDEN_CHAINS,
    SCENARIOS,
    _config,
    _hash_chain,
    small_workflow,
)

#: Huge payload so no flow finishes while steady-state rates are read.
_NEVER_FINISH = 1e18

#: sha256 of ``repr`` of each trial's steady-rate list.
STEADY_DIGESTS = [
    "114c71b76be1b921c080069ea360f12a3269d7f2df13459be7bb08c71e9ab4b5",
    "4e3402c03a9864d85406256d6421020e854090d9153e9a0f3f3ba7fdbfb8747b",
    "84d9320b41b9de89be352afd647ed334904816cf692c38b645dd4295c60c6cc4",
    "aa80e0be287801507cd1d6a5429a786ef78254fc66a0b39793e569fe79602c73",
    "e0e916870d2b4aa52aa0189bc7e945e52f48fc5b048174bbaeecbcfea64538a8",
    "c833a089eb455d5f546fef4281cdcd523ab03bbc50b5310df7afbc4127e81857",
    "7caabb803c3a7f3a4e8eee927b9840aa7c0ddd5daffadac36c5641e6a58cf940",
    "51da1c90c48001719e63655ef7d443b408566dd229dc2798755a17b92e8b2cd9",
    "635c1a03ffba5b866bd7151f9f5b0950596fd0b5024ec648a86a83aa3569b2da",
    "8e8324eef2ffb4eb09f195a016ca4e217424c626e169dfd36d53c0cdb74dc1f0",
    "715441599735fe89c1bf300e36bcdf5717890a363adfbe6ea4cb39030786ed47",
    "ef49a81890ead6d91573f9ebd1fc5de255548a00c98d6461462794baac2c6386",
    "ca172b1399f725be0dd0d999478c305bd79eac11d106714d444c64bd1b26b123",
    "0427a66e3214a990abe6856fb8e8eac50f496f0fd0da6010edc2c4887a5e2536",
    "4f5b8df6699862c985128a905573718f2a518e1b9f526a7f52b00af248a1c148",
]

#: sha256 of ``repr`` of each trial's ``(log, total_bytes_moved,
#: total_flows)`` churn outcome.
CHURN_DIGESTS = [
    "0c464047bf893079b9bebfd2b79ec710898155487c1d67158abb242c81bd5505",
    "7ff5a6a4821f5f51dcf7cadba20296c75691f551715fa405b7c51680ec4c48f1",
    "5618ace25c9166e15b2452b299803b65b92626339ff87611b5291640559e787c",
    "755a6a2f4b080b7e90469c10581cf92cffd6e15aadb77a2229498f4a7f228c51",
    "846d333b7c67aa35c13dbbabaec1f7ba72397e4efa88b484b57e5c87aaed1df6",
    "7396be1e5dcaec96110879cacc29c7bde07dd206c6999d1c062dd699491bdba1",
    "144ced18a41e80a5d4df1d00e6684f65f1002c631da9523a698f8bda1942ea59",
    "2c3b485900c1da5a1aafc5e73bf64c5a1ec72df5d88e447b8ea3af1d5921048f",
    "600cbb8652eb87f3592b6d7f3a9b7bb507b472b9687239f6a01c40037d91185a",
    "78c6486b01efb0ea9a8930af718fabf335c762fad9d2b5e1ee8ec5b17ed0a131",
]


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _scalar_and_vector(run, monkeypatch):
    """``run()`` with the default threshold, then with it pinned so even
    tiny components take the vectorized fill; the two results must be
    bit-identical."""
    scalar = run()
    monkeypatch.setattr(FlowNetwork, "VEC_FILL_MIN", 1)
    vector = run()
    monkeypatch.undo()
    assert scalar == vector
    return scalar


def _random_specs(rng):
    """Uneven capacities, shared-link components, capped flows."""
    n_links = rng.randint(2, 9)
    caps = [rng.choice([1e6, 3.7e6, 2.5e7, 1e8, rng.uniform(1e5, 1e9)])
            for _ in range(n_links)]
    specs = []
    for _ in range(rng.randint(2, 24)):
        k = rng.randint(1, min(3, n_links))
        path = tuple(sorted(rng.sample(range(n_links), k)))
        cap = rng.choice([None, None, None, 2e5, 1.5e6,
                          rng.uniform(1e4, 1e8)])
        specs.append((path, cap))
    return caps, specs


def _steady_rates(caps, specs):
    """Rates after all flows joined, in arrival order, plus the net."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    for path, cap in specs:
        net.transfer([links[i] for i in path], _NEVER_FINISH, max_rate=cap)
    return [flow.rate for flow in net._flows]


@pytest.mark.parametrize("trial", range(15))
def test_steady_rates_bit_identical_across_kernels(trial, monkeypatch):
    """Scalar == vector == committed digest, and all ≈ brute force."""
    rng = random.Random(52000 + trial)
    caps, specs = _random_specs(rng)

    rates = _scalar_and_vector(lambda: _steady_rates(caps, specs),
                               monkeypatch)
    assert _digest(rates) == STEADY_DIGESTS[trial]

    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    ref_specs = [([links[i] for i in path], cap) for path, cap in specs]
    want = reference_fill(ref_specs)
    for got, expected in zip(rates, want):
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-3)


def _churn_script(rng):
    """A reproducible arrival script with the nasty cases mixed in:
    zero-byte transfers, sub-epsilon payloads, shared-link components,
    synchronized same-timestamp waves."""
    caps, _ = _random_specs(rng)
    script = []
    for _ in range(rng.randint(10, 30)):
        k = rng.randint(1, min(3, len(caps)))
        path = tuple(sorted(rng.sample(range(len(caps)), k)))
        nbytes = rng.choice([
            0.0, 1e-12, rng.uniform(1e5, 5e7), rng.uniform(1e5, 5e7),
            rng.uniform(1e3, 1e5), rng.uniform(1e7, 2e8),
        ])
        cap = rng.choice([None, None, 2e5, rng.uniform(1e4, 1e7)])
        # delay 0.0 builds same-timestamp waves (the batched-cascade path).
        delay = rng.choice([0.0, 0.0, rng.uniform(0.01, 2.0)])
        script.append((path, nbytes, cap, delay))
    return caps, script


def _run_churn(caps, script):
    """Completion log [(flow index, finish time)] in event order."""
    env = Environment()
    net = FlowNetwork(env)
    links = [Link(f"l{i}", c) for i, c in enumerate(caps)]
    log = []

    def driver():
        pending = []
        for idx, (path, nbytes, cap, delay) in enumerate(script):
            done = net.transfer([links[i] for i in path], nbytes,
                                max_rate=cap)
            done.callbacks.append(
                lambda _ev, idx=idx: log.append((idx, env.now)))
            pending.append(done)
            if delay:
                yield env.timeout(delay)
        yield env.all_of(pending)

    env.process(driver())
    env.run()
    return log, net.total_bytes_moved, net.total_flows


@pytest.mark.parametrize("trial", range(10))
def test_churn_completions_bit_identical_across_kernels(trial, monkeypatch):
    """Completion order, completion times, and byte totals all match
    exactly under churn — including zero-byte and sub-epsilon payloads
    arriving inside same-timestamp waves."""
    caps, script = _churn_script(random.Random(61000 + trial))
    outcome = _scalar_and_vector(lambda: _run_churn(caps, script),
                                 monkeypatch)
    assert _digest(outcome) == CHURN_DIGESTS[trial]


def test_zero_byte_transfer_is_immediate_in_both_kernels(monkeypatch):
    """A zero-byte transfer succeeds synchronously, counts in
    ``total_flows``, and moves no bytes — on the scalar and the
    vectorized paths alike."""
    def run():
        env = Environment()
        net = FlowNetwork(env)
        link = Link("l", 10.0)
        done = net.transfer((link,), 0.0)
        assert done.triggered
        assert not net._flows
        assert not link._flows
        return net.total_flows, net.total_bytes_moved

    assert _scalar_and_vector(run, monkeypatch) == (1, 0.0)


# -- golden end-to-end scenarios ------------------------------------------


@pytest.mark.parametrize(
    "scenario", SCENARIOS,
    ids=["{}-{}-n{}-s{}".format(*s) for s in SCENARIOS])
def test_golden_scenarios_bit_identical_to_legacy(scenario):
    """Every golden scenario reproduces its committed telemetry
    hash-chain (trace, makespan, and cost)."""
    app, storage, nodes, seed = scenario
    (result,) = run_sweep([_config(app, storage, nodes, seed)],
                          workflow=small_workflow(app))
    assert _hash_chain(result) == GOLDEN_CHAINS[scenario]


def test_sweep_digest_serial_vs_parallel_under_soa_kernel():
    """The SoA kernel's results are independent of worker scheduling:
    the same sweep run serially and with two worker processes yields
    identical hash-chains cell for cell."""
    cells = [
        ("synthetic", "nfs", 2, 0),
        ("montage", "s3", 2, 0),
        ("synthetic", "pvfs", 4, 5),
        ("broadband", "nfs", 2, 23),
    ]
    configs = [_config(*cell) for cell in cells]
    serial = run_sweep(configs, workflow_factory=small_workflow)
    parallel = run_sweep(configs, workflow_factory=small_workflow, jobs=2)
    assert ([_hash_chain(r) for r in serial]
            == [_hash_chain(r) for r in parallel])
