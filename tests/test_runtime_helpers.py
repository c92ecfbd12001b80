"""Unit tests for runtime helpers: stats, sync views, reports, agent wiring."""

import pytest

from repro.apps.master_worker import MasterWorkerReport, TaskRecord
from repro.core.attributes import Attribute, DEFAULT_ATTRIBUTE
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment, DataTransferStats
from repro.net.topology import cluster_topology
from repro.storage.filesystem import FileContent


class TestDataTransferStats:
    def test_empty_timeline(self):
        stats = DataTransferStats(data_uid="u", data_name="d")
        assert stats.wait_time_s is None
        assert stats.download_time_s is None
        assert stats.bandwidth_mbps is None

    def test_complete_timeline(self):
        stats = DataTransferStats(data_uid="u", data_name="d", size_mb=100,
                                  assigned_at=10.0, download_started_at=13.0,
                                  download_completed_at=23.0)
        assert stats.wait_time_s == pytest.approx(3.0)
        assert stats.download_time_s == pytest.approx(10.0)
        assert stats.bandwidth_mbps == pytest.approx(10.0)

    def test_zero_duration_bandwidth_is_none(self):
        stats = DataTransferStats(data_uid="u", data_name="d", size_mb=1,
                                  download_started_at=5.0,
                                  download_completed_at=5.0)
        assert stats.bandwidth_mbps is None


class TestPeriods:
    """A period of zero or less stalled the pull loop at one instant (0) or
    failed deep in a draw (< 0): each is rejected when it is given."""

    @pytest.mark.parametrize("value", [0, -0.5])
    @pytest.mark.parametrize("name", ["sync_period_s", "monitor_period_s"])
    def test_runtime_rejects_a_period_of_zero_or_less(self, env, name, value):
        topo = cluster_topology(env, n_workers=2)
        with pytest.raises(ValueError,
                           match=f"^{name} must be positive, got {value}$"):
            BitDewEnvironment(topo, **{name: value})

    def test_host_override_of_the_sync_period_is_checked(self, env):
        topo = cluster_topology(env, n_workers=2)
        runtime = BitDewEnvironment(topo)
        with pytest.raises(ValueError, match="^sync_period_s must be positive"):
            runtime.attach(topo.worker_hosts[0], sync_period_s=0)
        assert runtime.agents == {}


class TestHostAgentHelpers:
    @pytest.fixture
    def runtime(self, env):
        topo = cluster_topology(env, n_workers=2)
        return topo, BitDewEnvironment(topo)

    def test_cache_paths_are_per_datum(self, runtime):
        topo, rt = runtime
        agent = rt.attach(topo.worker_hosts[0], auto_sync=False)
        a, b = Data(name="same-name"), Data(name="same-name")
        assert agent.cache_path(a) != agent.cache_path(b)

    def test_attribute_of_defaults(self, runtime):
        topo, rt = runtime
        agent = rt.attach(topo.worker_hosts[0], auto_sync=False)
        data = Data(name="x")
        assert agent.attribute_of(data) is DEFAULT_ATTRIBUTE
        attr = Attribute(name="custom", replica=3)
        agent.set_attribute(data, attr)
        assert agent.attribute_of(data).name == "custom"

    def test_sync_view_reservoir_vs_client(self, runtime):
        topo, rt = runtime
        reservoir = rt.attach(topo.worker_hosts[0], auto_sync=False, reservoir=True)
        client = rt.attach(topo.worker_hosts[1], auto_sync=False, reservoir=False)
        data = Data(name="locally-created")
        content = FileContent.from_seed("locally-created", 1)
        for agent in (reservoir, client):
            agent.filesystem.write(agent.cache_path(data), content)
            agent.register_local(data, content_present=True)
        # A reservoir host advertises everything in its cache; a client host
        # only advertises scheduler-managed data.
        assert data.uid in reservoir.sync_view()
        assert data.uid not in client.sync_view()
        client.mark_managed(data.uid)
        assert data.uid in client.sync_view()

    def test_local_content_roundtrip_and_removal(self, runtime):
        topo, rt = runtime
        agent = rt.attach(topo.worker_hosts[0], auto_sync=False)
        data = Data(name="thing")
        content = FileContent.from_seed("thing", 2)
        assert agent.local_content(data.uid) is None
        agent.filesystem.write(agent.cache_path(data), content)
        agent.register_local(data, content_present=True)
        assert agent.local_content(data.uid).verify(content)
        assert agent.remove_local(data.uid)
        assert not agent.remove_local(data.uid)
        assert agent.local_content(data.uid) is None

    def test_max_data_schedule_override_reaches_scheduler(self, runtime, env, drive):
        topo, rt = runtime
        greedy = rt.attach(topo.worker_hosts[0], auto_sync=False,
                           max_data_schedule=64)
        modest = rt.attach(topo.worker_hosts[1], auto_sync=False)
        master = rt.attach(topo.service_host, auto_sync=False)

        def publish():
            for i in range(40):
                content = FileContent.from_seed(f"item-{i}", 0.01)
                data = yield from master.bitdew.create_data(f"item-{i}",
                                                            content=content)
                yield from master.bitdew.put(data, content)
                yield from master.active_data.schedule(
                    data, Attribute(name=f"a{i}", replica=2, protocol="http"))

        drive(env, publish())
        greedy_result = drive(env, greedy.sync_once())
        modest_result = drive(env, modest.sync_once())
        assert len(greedy_result.to_download) == 40
        assert len(modest_result.to_download) == rt.data_scheduler.max_data_schedule


class TestMasterWorkerReport:
    def _record(self, cluster, transfer, unzip, execution):
        return TaskRecord(task_id=0, host_name="h", cluster=cluster,
                          started_at=0.0, transfer_s=transfer, unzip_s=unzip,
                          execution_s=execution, completed_at=1.0)

    def test_breakdowns(self):
        report = MasterWorkerReport(
            makespan_s=100.0, tasks_submitted=3, tasks_executed=3,
            results_collected=3,
            records=[self._record("a", 10, 2, 5), self._record("a", 20, 4, 7),
                     self._record("b", 30, 6, 9)])
        by_cluster = report.breakdown_by_cluster()
        assert by_cluster["a"]["transfer_s"] == pytest.approx(15)
        assert by_cluster["a"]["tasks"] == 2
        assert by_cluster["b"]["execution_s"] == pytest.approx(9)
        mean = report.mean_breakdown()
        assert mean["transfer_s"] == pytest.approx(20)
        assert mean["unzip_s"] == pytest.approx(4)

    def test_empty_report(self):
        report = MasterWorkerReport(makespan_s=0, tasks_submitted=0,
                                    tasks_executed=0, results_collected=0)
        assert report.mean_breakdown()["tasks"] == 0
        assert report.breakdown_by_cluster() == {}
