"""Unit tests for the ephemeral-disk model (paper §III.C)."""

import pytest

from repro.cloud import (
    EPHEMERAL_DISK,
    INITIALIZED_DISK,
    MB,
    BlockDevice,
    DiskProfile,
    make_node_disk,
    raid0,
)
from repro.simcore import Environment, TraceCollector


def run(env, gen):
    return env.run(until=env.process(gen))


def test_first_write_is_slow():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        t0 = env.now
        yield disk.write("f", 100 * MB)
        return env.now - t0

    elapsed = run(env, proc())
    # 100 MB at 20 MB/s = 5 s (+ op latency).
    assert elapsed == pytest.approx(5.0, rel=0.01)


def test_rewrite_is_fast():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        yield disk.write("f", 100 * MB)
        t0 = env.now
        yield disk.write("f", 100 * MB)
        return env.now - t0

    elapsed = run(env, proc())
    # 100 MB at 95 MB/s.
    assert elapsed == pytest.approx(100 / 95, rel=0.01)


def test_different_keys_each_pay_penalty():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        yield disk.write("a", 20 * MB)
        t0 = env.now
        yield disk.write("b", 20 * MB)
        return env.now - t0

    elapsed = run(env, proc())
    assert elapsed == pytest.approx(1.0, rel=0.01)  # still first-write rate


def test_read_bandwidth():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        t0 = env.now
        yield disk.read(110 * MB)
        return env.now - t0

    assert run(env, proc()) == pytest.approx(1.0, rel=0.01)


def test_initialized_disk_has_no_penalty():
    env = Environment()
    disk = BlockDevice(env, INITIALIZED_DISK)

    def proc():
        t0 = env.now
        yield disk.write("f", 95 * MB)
        return env.now - t0

    assert run(env, proc()) == pytest.approx(1.0, rel=0.01)


def test_raid0_matches_paper_measurements():
    """Paper: 4-disk RAID0 gives 80-100 MB/s first write, 350-400 MB/s
    subsequent writes, ~310 MB/s reads."""
    profile = raid0(EPHEMERAL_DISK, 4)
    assert 80 * MB <= profile.first_write_bw <= 100 * MB
    assert 350 * MB <= profile.rewrite_bw <= 400 * MB
    assert 290 * MB <= profile.read_bw <= 330 * MB


def test_raid0_single_disk_identity():
    assert raid0(EPHEMERAL_DISK, 1) is EPHEMERAL_DISK


def test_raid0_rejects_zero_disks():
    with pytest.raises(ValueError):
        raid0(EPHEMERAL_DISK, 0)


def test_zero_fill_50gb_takes_about_42_minutes():
    """Paper: initializing 50 GB takes ~42 minutes (at first-write speed
    of the RAID array)."""
    env = Environment()
    disk = make_node_disk(env, ndisks=4)

    def proc():
        t0 = env.now
        yield disk.zero_fill(50_000 * MB)
        return env.now - t0

    elapsed = run(env, proc())
    minutes = elapsed / 60.0
    assert 35 <= minutes <= 50  # paper: "almost ... 42 minutes"


def test_concurrent_io_shares_device():
    env = Environment()
    disk = BlockDevice(env, DiskProfile(10 * MB, 10 * MB, 10 * MB, op_latency=0.0,
                                        contention_beta=0.0))
    finish = []

    def proc():
        yield disk.read(10 * MB)
        finish.append(env.now)

    env.process(proc())
    env.process(proc())
    env.run()
    # Two 1-second reads sharing the device -> both at t=2.
    assert finish == [pytest.approx(2.0), pytest.approx(2.0)]


def test_counters():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        yield disk.write("f", 10 * MB)
        yield disk.read(5 * MB)

    run(env, proc())
    assert disk.writes == 1 and disk.reads == 1
    assert disk.bytes_written == 10 * MB
    assert disk.bytes_read == 5 * MB


def test_forget_restores_first_write():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        yield disk.write("f", 20 * MB)
        disk.forget("f")
        t0 = env.now
        yield disk.write("f", 20 * MB)
        return env.now - t0

    assert run(env, proc()) == pytest.approx(1.0, rel=0.01)
    assert disk.is_touched("f")


def test_profile_validation():
    with pytest.raises(ValueError):
        DiskProfile(first_write_bw=0, rewrite_bw=1, read_bw=1)
    with pytest.raises(ValueError):
        DiskProfile(first_write_bw=1, rewrite_bw=1, read_bw=1, op_latency=-1)


def test_negative_io_rejected():
    env = Environment()
    disk = BlockDevice(env, EPHEMERAL_DISK)

    def proc():
        yield disk.read(-5)

    with pytest.raises(ValueError):
        run(env, proc())


@pytest.mark.parametrize("nbytes", [-5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("op", ["read", "write", "zero_fill"])
def test_bad_size_rejected_at_call_time(op, nbytes):
    env = Environment()
    trace = TraceCollector()
    disk = BlockDevice(env, EPHEMERAL_DISK, trace=trace)
    call = {"read": lambda: disk.read(nbytes),
            "write": lambda: disk.write("f", nbytes),
            "zero_fill": lambda: disk.zero_fill(nbytes)}[op]
    with pytest.raises(ValueError, match="finite and >= 0"):
        call()
    # Nothing was counted, traced, touched or queued.
    assert (disk.reads, disk.writes) == (0, 0)
    assert (disk.bytes_read, disk.bytes_written) == (0.0, 0.0)
    assert not disk.is_touched("f")
    assert trace.records == []
    assert env.peek() == float("inf")
