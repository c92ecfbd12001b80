"""Unit tests for topology builders and the RPC layer."""

import pytest

from repro.net.rpc import ChannelKind, RpcChannel, RpcEndpoint, RpcError
from repro.net.topology import (
    GRID5000_CLUSTERS,
    cluster_topology,
    dsl_lab_topology,
    grid5000_testbed,
)
from repro.sim.rng import RandomStreams


class TestClusterTopology:
    def test_basic_structure(self, env):
        topo = cluster_topology(env, n_workers=5)
        assert topo.service_host.stable
        assert len(topo.worker_hosts) == 5
        assert len(topo.all_hosts) == 6
        assert all(not w.stable for w in topo.worker_hosts)
        assert all(w.cluster == "gdx" for w in topo.worker_hosts)

    def test_negative_workers_rejected(self, env):
        with pytest.raises(ValueError):
            cluster_topology(env, n_workers=-1)

    def test_zero_workers_allowed(self, env):
        topo = cluster_topology(env, n_workers=0)
        assert topo.worker_hosts == []

    def test_workers_in_cluster(self, env):
        topo = cluster_topology(env, n_workers=3, cluster="grelon")
        assert len(topo.workers_in_cluster("grelon")) == 3
        assert topo.workers_in_cluster("gdx") == []


class TestGrid5000Testbed:
    def test_table1_cluster_catalogue(self):
        assert set(GRID5000_CLUSTERS) == {"gdx", "grelon", "grillon", "sagittaire"}
        assert GRID5000_CLUSTERS["gdx"]["cpus"] == 312
        assert GRID5000_CLUSTERS["grelon"]["cpus"] == 120
        assert GRID5000_CLUSTERS["grillon"]["cpus"] == 47
        assert GRID5000_CLUSTERS["sagittaire"]["cpus"] == 65
        assert GRID5000_CLUSTERS["gdx"]["location"] == "Orsay"
        assert GRID5000_CLUSTERS["sagittaire"]["location"] == "Lyon"

    def test_default_node_split_proportional(self, env):
        topo = grid5000_testbed(env, total_nodes=400)
        counts = {name: len(topo.workers_in_cluster(name))
                  for name in GRID5000_CLUSTERS}
        assert sum(counts.values()) == pytest.approx(400, abs=4)
        # gdx is the biggest cluster and must get the largest share.
        assert counts["gdx"] == max(counts.values())
        assert counts["grillon"] == min(counts.values())

    def test_explicit_node_split(self, env):
        topo = grid5000_testbed(env, nodes_per_cluster={"gdx": 3, "sagittaire": 2})
        assert len(topo.worker_hosts) == 5

    def test_unknown_cluster_rejected(self, env):
        with pytest.raises(ValueError):
            grid5000_testbed(env, nodes_per_cluster={"nonexistent": 2})

    def test_cpu_factors_follow_table1(self, env):
        topo = grid5000_testbed(env, nodes_per_cluster={name: 1 for name in GRID5000_CLUSTERS})
        by_cluster = {h.cluster: h for h in topo.worker_hosts}
        assert by_cluster["sagittaire"].cpu_factor > by_cluster["grelon"].cpu_factor


class TestDslLab:
    def test_structure_and_asymmetry(self, env):
        topo = dsl_lab_topology(env, n_workers=12, rng=RandomStreams(5))
        assert len(topo.worker_hosts) == 12
        for host in topo.worker_hosts:
            assert host.uplink_mbps < host.downlink_mbps
            assert 0.05 <= host.downlink_mbps <= 0.50
            assert host.cpu_factor < 1.0
            assert host.disk_mb == pytest.approx(2048.0)

    def test_heterogeneous_bandwidths(self, env):
        topo = dsl_lab_topology(env, n_workers=12, rng=RandomStreams(5))
        downs = {round(h.downlink_mbps, 4) for h in topo.worker_hosts}
        assert len(downs) > 6  # lines differ from each other

    def test_reproducible_under_seed(self, env):
        t1 = dsl_lab_topology(env, rng=RandomStreams(9))
        from repro.sim.kernel import Environment
        t2 = dsl_lab_topology(Environment(), rng=RandomStreams(9))
        assert [h.downlink_mbps for h in t1.worker_hosts] == \
               [h.downlink_mbps for h in t2.worker_hosts]


class _EchoService:
    def __init__(self):
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        return value

    def fail(self):
        raise ValueError("service-side error")

    def generator_method(self, env, value):
        yield env.timeout(0.5)
        return value * 2


class TestRpcChannel:
    def test_local_channel_has_no_latency(self, env, drive):
        service = _EchoService()
        channel = RpcChannel(env, ChannelKind.LOCAL)
        endpoint = RpcEndpoint(service)
        result = drive(env, channel.invoke(endpoint, "echo", 42))
        assert result == 42
        assert env.now == 0.0

    def test_remote_channel_charges_round_trip(self, env, drive):
        service = _EchoService()
        channel = RpcChannel(env, ChannelKind.RMI_REMOTE)
        endpoint = RpcEndpoint(service)
        drive(env, channel.invoke(endpoint, "echo", 1))
        assert env.now == pytest.approx(channel.call_cost(1.0), rel=1e-6)
        assert channel.calls == 1

    def test_rmi_local_cheaper_than_remote(self, env):
        local = RpcChannel(env, ChannelKind.RMI_LOCAL)
        remote = RpcChannel(env, ChannelKind.RMI_REMOTE)
        assert local.call_cost() < remote.call_cost()

    def test_payload_size_increases_cost(self, env):
        channel = RpcChannel(env, ChannelKind.RMI_REMOTE)
        assert channel.call_cost(100) > channel.call_cost(1)

    def test_generator_methods_run_as_subprocesses(self, env, drive):
        service = _EchoService()
        channel = RpcChannel(env, ChannelKind.LOCAL)
        endpoint = RpcEndpoint(service)
        result = drive(env, channel.invoke(endpoint, "generator_method", env, 21))
        assert result == 42
        assert env.now == pytest.approx(0.5)

    def test_service_exception_propagates(self, env):
        service = _EchoService()
        channel = RpcChannel(env, ChannelKind.LOCAL)
        endpoint = RpcEndpoint(service)
        process = env.process(channel.invoke(endpoint, "fail"))
        with pytest.raises(ValueError, match="service-side error"):
            env.run(until=process)

    def test_offline_host_raises_rpc_error(self, env, simple_network, drive):
        _, server, _ = simple_network
        service = _EchoService()
        channel = RpcChannel(env, ChannelKind.RMI_REMOTE)
        endpoint = RpcEndpoint(service, host=server)
        server.fail()
        process = env.process(channel.invoke(endpoint, "echo", 1))
        with pytest.raises(RpcError):
            env.run(until=process)

    def test_endpoint_label(self):
        service = _EchoService()
        assert RpcEndpoint(service).label() == "_EchoService"
        assert RpcEndpoint(service, name="DC").label() == "DC"
