"""Unit tests for the cluster network fabric and VM instances."""

import pytest

from repro.cloud import MB, GB, ClusterNetwork, VMInstance, get_instance_type
from repro.simcore import Environment, TraceCollector


def test_attach_and_lookup():
    env = Environment()
    net = ClusterNetwork(env)
    ep = net.attach("n0", 125 * MB)
    assert net.endpoint("n0") is ep
    assert len(net.endpoints) == 1


def test_duplicate_attach_rejected():
    env = Environment()
    net = ClusterNetwork(env)
    net.attach("n0", 125 * MB)
    with pytest.raises(ValueError):
        net.attach("n0", 125 * MB)


def test_transfer_bandwidth():
    env = Environment()
    net = ClusterNetwork(env)
    a = net.attach("a", 100 * MB)
    b = net.attach("b", 100 * MB)

    def proc():
        t0 = env.now
        yield net.transfer(a, b, 100 * MB)
        return env.now - t0

    elapsed = env.run(until=env.process(proc()))
    assert elapsed == pytest.approx(1.0, rel=0.01)
    assert net.bytes_transferred == 100 * MB


@pytest.mark.parametrize("nbytes", [-5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("loopback", [False, True])
def test_bad_transfer_size_rejected_at_call_time(nbytes, loopback):
    env = Environment()
    trace = TraceCollector()
    net = ClusterNetwork(env, trace=trace)
    a = net.attach("a", 100 * MB)
    b = a if loopback else net.attach("b", 100 * MB)
    with pytest.raises(ValueError, match="finite and >= 0"):
        net.transfer(a, b, nbytes)
    # Nothing was counted, traced or queued.
    assert net.bytes_transferred == 0.0
    assert trace.records == []
    assert env.peek() == float("inf")


def test_loopback_is_free():
    env = Environment()
    net = ClusterNetwork(env)
    a = net.attach("a", 100 * MB)

    def proc():
        t0 = env.now
        yield net.transfer(a, a, 1000 * MB)
        return env.now - t0

    assert env.run(until=env.process(proc())) == 0.0


def test_full_duplex_nic():
    """Simultaneous send and receive on one NIC don't contend."""
    env = Environment()
    net = ClusterNetwork(env)
    a = net.attach("a", 100 * MB)
    b = net.attach("b", 100 * MB)
    finish = {}

    def send(env):
        yield net.transfer(a, b, 100 * MB)
        finish["a->b"] = env.now

    def recv(env):
        yield net.transfer(b, a, 100 * MB)
        finish["b->a"] = env.now

    env.process(send(env))
    env.process(recv(env))
    env.run()
    assert finish["a->b"] == pytest.approx(1.0, rel=0.01)
    assert finish["b->a"] == pytest.approx(1.0, rel=0.01)


def test_server_tx_is_shared_by_clients():
    """Four clients pulling from one server share its transmit link."""
    env = Environment()
    net = ClusterNetwork(env)
    server = net.attach("server", 100 * MB)
    clients = [net.attach(f"c{i}", 100 * MB) for i in range(4)]
    finish = []

    def pull(env, c):
        yield net.transfer(server, c, 100 * MB)
        finish.append(env.now)

    for c in clients:
        env.process(pull(env, c))
    env.run()
    assert all(t == pytest.approx(4.0, rel=0.01) for t in finish)


# ------------------------------------------------------------ VMInstance

def test_vm_resources_match_type():
    env = Environment()
    net = ClusterNetwork(env)
    itype = get_instance_type("c1.xlarge")
    vm = VMInstance(env, itype, net, name="w0")
    assert vm.memory.capacity == pytest.approx(7.0 * GB)
    assert vm.slots_free == 8
    assert vm.memory_free == pytest.approx(7.0 * GB)
    assert vm.is_running
    # RAID0 of the 4 ephemeral disks.
    assert vm.disk.profile.first_write_bw == pytest.approx(80 * MB)


def test_vm_terminate_detaches_nic():
    env = Environment()
    net = ClusterNetwork(env)
    vm = VMInstance(env, get_instance_type("m1.small"), net, name="x")
    vm.terminate()
    assert not vm.is_running
    with pytest.raises(KeyError):
        net.endpoint("x")
    vm.terminate()  # idempotent


def test_unknown_instance_type():
    with pytest.raises(KeyError, match="unknown instance type"):
        get_instance_type("z9.mega")


def test_catalog_paper_types():
    c1 = get_instance_type("c1.xlarge")
    m1 = get_instance_type("m1.xlarge")
    m2 = get_instance_type("m2.4xlarge")
    assert (c1.cores, c1.memory_gb, c1.ephemeral_disks) == (8, 7.0, 4)
    assert c1.price_per_hour == 0.68
    assert m1.price_per_hour == 0.68   # NFS extra node = $0.68/workflow
    assert m1.memory_gb == 16.0
    assert (m2.cores, m2.memory_gb, m2.price_per_hour) == (8, 64.0, 2.40)
