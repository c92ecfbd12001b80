"""Unit tests for the Data Transfer service and the service container."""

import pytest

from repro.core.data import Data
from repro.core.exceptions import TransferAbortedError
from repro.net.flows import Network
from repro.net.host import Host
from repro.net.rpc import ChannelKind
from repro.net.topology import cluster_topology
from repro.services.container import ServiceContainer
from repro.services.data_transfer import DataTransferService
from repro.sim.kernel import Environment
from repro.storage.database import NetworkedSQLEngine
from repro.storage.filesystem import FileContent, LocalFileSystem
from repro.transfer.oob import TransferEndpoint, TransferState
from repro.transfer.registry import default_registry


def make_dt_platform(env, monitor_period_s=0.5):
    network = Network(env, default_latency_s=0.001)
    server = network.add_host(Host("server", uplink_mbps=100, downlink_mbps=100,
                                   stable=True))
    worker = network.add_host(Host("worker", uplink_mbps=100, downlink_mbps=100))
    registry = default_registry(env, network)
    dt = DataTransferService(env, server, network, registry,
                             monitor_period_s=monitor_period_s)
    server_fs = LocalFileSystem(owner="server")
    content = FileContent.from_seed("file.bin", 20)
    server_fs.write("file.bin", content)
    data = Data.from_content(content)
    source = TransferEndpoint(server, server_fs, "file.bin")
    destination = TransferEndpoint(worker, LocalFileSystem(owner="worker"),
                                   "cache/file.bin")
    return dt, data, source, destination, worker, network


@pytest.fixture
def dt_platform(env):
    return make_dt_platform(env)


class TestDataTransferService:
    def test_submit_completes_and_reports(self, env, dt_platform, drive):
        dt, data, source, destination, worker, network = dt_platform
        record = drive(env, dt.submit(data, "ftp", source, destination))
        assert record.completed_at is not None
        assert record.attempts == 1
        assert destination.read().verify(source.read())
        assert dt.total_mb_moved == pytest.approx(20)
        assert dt.monitor_messages >= 2
        report = dt.bandwidth_report()
        assert report["transfers"] == 1
        assert report["mean_throughput_mbps"] > 0
        assert dt.pending_transfers() == []

    def test_completion_detected_at_monitor_granularity(self, env, dt_platform, drive):
        dt, data, source, destination, worker, network = dt_platform
        drive(env, dt.submit(data, "ftp", source, destination))
        # 20 MB at 100 MB/s is ~0.2 s + overheads, but the DT only notices at
        # a monitor poll (every 0.5 s): completion time is a poll multiple.
        assert env.now >= 0.5

    def test_register_then_start(self, env, dt_platform, drive):
        dt, data, source, destination, worker, network = dt_platform
        record = dt.register_transfer(data, "http", source, destination)
        assert record in dt.pending_transfers()
        drive(env, dt.start(record))
        assert record.completed_at is not None

    @pytest.mark.parametrize("period", [0, -1.0])
    def test_monitor_period_must_be_positive(self, env, dt_platform, period):
        dt, *_ = dt_platform
        with pytest.raises(ValueError,
                           match="^monitor_period_s must be positive"):
            DataTransferService(env, dt.host, dt.network, dt.registry,
                                monitor_period_s=period)

    def test_failure_after_retries_raises(self, env, dt_platform):
        dt, data, source, destination, worker, network = dt_platform
        bogus_source = TransferEndpoint(source.host, LocalFileSystem(), "missing.bin")
        record = dt.register_transfer(data, "ftp", bogus_source, destination)
        process = env.process(dt.start(record))
        with pytest.raises(TransferAbortedError):
            env.run(until=process)
        assert record.failed

    def test_receiver_crash_cancels_without_retry_storm(self, env, dt_platform):
        dt, data, source, destination, worker, network = dt_platform
        record = dt.register_transfer(data, "ftp", source, destination)
        process = env.process(dt.start(record))

        def crash():
            yield env.timeout(0.05)
            worker.fail()

        env.process(crash())
        with pytest.raises(TransferAbortedError):
            env.run(until=process)
        assert record.failed
        assert record.attempts <= 2

    def test_monitor_bandwidth_reserved_and_released(self, env, dt_platform):
        dt, data, source, destination, worker, network = dt_platform
        assert network._background == {}
        process = env.process(dt.submit(data, "ftp", source, destination))
        env.run(until=0.1)
        # Monitoring traffic holds both directions of the DT's link.
        assert network._background == {
            ("host-up", dt.host.uid): dt._monitor_rate_mbps,
            ("host-down", dt.host.uid): dt._monitor_rate_mbps}
        env.run(until=process)
        # All reservations released after completion.
        assert network._background == {}

    def test_enum_lookups_follow_transfers_not_polls(self, monkeypatch):
        """A monitoring poll reads liveness and transfer states through
        plain names: the attribute lookups on Enum classes (each a trip
        through ``EnumType.__getattr__`` on CPython 3.11) are those of the
        transfer's life cycle, however often it is polled."""
        lookups = 0

        def counting(cls, name):
            nonlocal lookups
            lookups += 1
            return type.__getattribute__(cls, name)

        polls_and_lookups = []
        for period in (0.5, 0.01):
            env = Environment()
            dt, data, source, destination, *_ = make_dt_platform(env, period)
            process = env.process(dt.submit(data, "ftp", source, destination))
            lookups = 0
            with monkeypatch.context() as patch:
                patch.setattr(type(TransferState), "__getattribute__",
                              counting, raising=False)
                env.run(until=process)
            assert process.value.completed_at is not None
            polls_and_lookups.append((dt.monitor_messages // 2, lookups))
        (slow_polls, slow), (fast_polls, fast) = polls_and_lookups
        assert fast_polls >= slow_polls + 20
        assert 0 < fast == slow


class TestServiceContainer:
    def test_builds_all_services(self, env):
        topo = cluster_topology(env, n_workers=2)
        container = ServiceContainer(env, topo.service_host, topo.network)
        endpoints = container.endpoints()
        assert set(endpoints) == {"dc", "dr", "dt", "ds"}
        assert endpoints["dc"].host is topo.service_host
        assert container.database is container.data_catalog.database
        container.start()
        container.start()  # idempotent
        container.stop()

    def test_requires_stable_host(self, env):
        topo = cluster_topology(env, n_workers=1)
        with pytest.raises(ValueError):
            ServiceContainer(env, topo.worker_hosts[0], topo.network)

    def test_engine_and_pool_configuration(self, env):
        topo = cluster_topology(env, n_workers=1)
        container = ServiceContainer(env, topo.service_host, topo.network,
                                     engine=NetworkedSQLEngine())
        assert container.database.engine.name == "mysql"
        assert container.database.pool.engine is container.database.engine

    def test_channel_factory(self, env):
        topo = cluster_topology(env, n_workers=1)
        container = ServiceContainer(env, topo.service_host, topo.network)
        channel = container.channel(ChannelKind.RMI_LOCAL)
        assert channel.kind is ChannelKind.RMI_LOCAL
