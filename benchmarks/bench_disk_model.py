"""In-text §III.C — the ephemeral-disk measurements.

Paper numbers: a single uninitialised ephemeral disk writes at ~20 MB/s
the first time and at the expected rate afterwards, reads peak ~110
MB/s; the 4-disk RAID0 array gives 80-100 MB/s first writes, 350-400
MB/s re-writes, ~310 MB/s reads; zero-filling 50 GB takes ~42 minutes.
"""

import pytest

from repro.cloud import EPHEMERAL_DISK, MB, BlockDevice, make_node_disk, raid0
from repro.experiments.paper import TEXT_ANCHORS
from repro.simcore import Environment

from conftest import publish


def _measure(device_factory, op, nbytes=200 * MB, repeat_key=None):
    """Measured bandwidth (MB/s) of one operation on a fresh device."""
    env = Environment()
    disk = device_factory(env)

    def proc():
        if repeat_key is not None:   # touch first so the op is a re-write
            yield disk.write(repeat_key, nbytes)
        t0 = env.now
        if op == "read":
            yield disk.read(nbytes)
        elif op == "write":
            yield disk.write(repeat_key or "x", nbytes)
        else:
            yield disk.zero_fill(nbytes)
        return nbytes / (env.now - t0) / MB

    return env.run(until=env.process(proc()))


def _all_measurements():
    single = lambda env: BlockDevice(env, EPHEMERAL_DISK)  # noqa: E731
    array = lambda env: make_node_disk(env, ndisks=4)      # noqa: E731
    rows = {
        "disk.single.first_write_mbs": _measure(single, "write"),
        "disk.single.read_mbs": _measure(single, "read"),
        "disk.raid0.first_write_mbs": _measure(array, "write"),
        "disk.raid0.rewrite_mbs": _measure(array, "write", repeat_key="k"),
        "disk.raid0.read_mbs": _measure(array, "read"),
    }
    # Zero-fill of 50 GB, in minutes.
    env = Environment()
    disk = make_node_disk(env, ndisks=4)

    def fill():
        yield disk.zero_fill(50_000 * MB)

    env.run(until=env.process(fill()))
    rows["disk.zero_fill_50gb_minutes"] = env.now / 60.0
    return rows


def test_ephemeral_disk_measurements(benchmark, output_dir):
    rows = benchmark.pedantic(_all_measurements, rounds=1, iterations=1)
    lines = ["PAPER SECTION III.C - ephemeral disk model vs measurements",
             f"{'metric':<36}{'paper range':>18}{'measured':>12}"]
    for key, measured in rows.items():
        lo, hi = TEXT_ANCHORS[key]
        lines.append(f"{key:<36}{f'{lo:g}-{hi:g}':>18}{measured:>12.1f}")
        assert lo <= measured <= hi, f"{key}: {measured} not in [{lo},{hi}]"
    publish(output_dir, "disk_model.txt", "\n".join(lines))
