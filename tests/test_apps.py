"""Integration tests for the applications built on BitDew."""

import inspect
from collections import Counter

import pytest

from repro.apps import master_worker
from repro.apps.blast import BlastParameters, build_blast_application
from repro.apps.master_worker import (
    MasterWorkerApplication,
    SharedInput,
    TaskSpec,
)
from repro.apps.updater import UpdaterApplication
from repro.core import runtime as core_runtime
from repro.core.runtime import BitDewEnvironment
from repro.net.topology import cluster_topology, grid5000_testbed
from repro.sim.kernel import Environment
from repro.transfer.registry import default_registry
from tests.conftest import count_calls


def small_runtime(env, n_workers, **kwargs):
    topo = cluster_topology(env, n_workers=n_workers)
    registry = default_registry(env, topo.network, bittorrent_mode="fluid")
    kwargs.setdefault("sync_period_s", 2.0)
    kwargs.setdefault("monitor_period_s", 0.5)
    kwargs.setdefault("max_data_schedule", 4)
    runtime = BitDewEnvironment(topo, registry=registry, **kwargs)
    return topo, runtime


class TestUpdaterApplication:
    def test_update_reaches_all_nodes_and_reports_back(self, env):
        topo, runtime = small_runtime(env, n_workers=4)
        app = UpdaterApplication(runtime, master_host=topo.service_host,
                                 update_size_mb=8, protocol="ftp")
        app.register_updatees()
        env.process(app.start())
        env.run(until=120)
        assert app.update_data is not None
        worker_names = {h.name for h in topo.worker_hosts}
        assert set(app.updatees) == worker_names
        assert app.all_updated()
        # Every updatee holds the update content.
        for host in topo.worker_hosts:
            agent = runtime.agent(host)
            assert agent.has_content(app.update_data.uid)

    def test_lifetime_bound_update_is_cleaned_up(self, env):
        topo, runtime = small_runtime(env, n_workers=2)
        app = UpdaterApplication(runtime, master_host=topo.service_host,
                                 update_size_mb=2, protocol="http",
                                 lifetime_s=30.0)
        app.register_updatees()
        env.process(app.start())
        env.run(until=200)
        assert len(app.deletions) == 2
        for host in topo.worker_hosts:
            assert not runtime.agent(host).has_local(app.update_data.uid)


class TestMasterWorkerFramework:
    def _build(self, env, n_workers=4, n_tasks=4, reference_compute_s=20.0,
               **app_kwargs):
        topo, runtime = small_runtime(env, n_workers=n_workers)
        shared = [SharedInput(name="binary", size_mb=4, replica=-1),
                  SharedInput(name="dataset", size_mb=32, affinity_to_tasks=True,
                              compressed=True, unzip_reference_s=5.0)]
        tasks = [TaskSpec(task_id=i, input_name=f"in-{i}", input_size_mb=0.01,
                          reference_compute_s=reference_compute_s, result_size_mb=0.1)
                 for i in range(n_tasks)]
        app = MasterWorkerApplication(
            runtime, master_host=topo.service_host, shared_inputs=shared,
            tasks=tasks, shared_protocol="ftp", **app_kwargs)
        app.register_workers()
        return topo, runtime, app

    def test_all_tasks_execute_and_results_collected(self, env):
        topo, runtime, app = self._build(env, n_workers=4, n_tasks=4)
        report = app.run(deadline_s=2000, poll_s=5)
        assert report.tasks_executed == 4
        assert report.results_collected == 4
        assert report.makespan_s > 0
        assert app.all_results_collected()
        # Execution happened on workers, never on the master.
        assert all(r.host_name != topo.service_host.name for r in report.records)

    def test_breakdown_contains_all_components(self, env):
        topo, runtime, app = self._build(env, n_workers=3, n_tasks=3)
        report = app.run(deadline_s=2000, poll_s=5)
        breakdown = report.mean_breakdown()
        assert breakdown["transfer_s"] > 0
        assert breakdown["unzip_s"] > 0
        assert breakdown["execution_s"] > 0
        by_cluster = report.breakdown_by_cluster()
        assert "gdx" in by_cluster
        assert by_cluster["gdx"]["tasks"] == 3

    def test_shared_dataset_only_on_computing_hosts(self, env):
        """The affinity-scheduled dataset must not land on idle hosts."""
        topo, runtime, app = self._build(env, n_workers=6, n_tasks=2)
        app.run(deadline_s=2000, poll_s=5)
        dataset = app.shared_data["dataset"]
        holders = [a for a in runtime.agents.values()
                   if a.host in topo.worker_hosts and a.has_content(dataset.uid)]
        executing_hosts = {r.host_name for r in app.records}
        assert {a.host.name for a in holders} == executing_hosts
        assert len(holders) < 6

    def test_cleanup_deletes_collector_and_obsoletes_dependents(self, env, drive):
        topo, runtime, app = self._build(env, n_workers=3, n_tasks=3)
        app.run(deadline_s=2000, poll_s=5)
        drive(env, app.cleanup())
        env.run(until=env.now + 30)
        scheduler = runtime.data_scheduler
        assert scheduler.entry(app.collector_data.uid) is None
        # Every datum with a lifetime relative to the Collector is obsolete and
        # has been dropped from the worker caches.
        for agent in runtime.agents.values():
            if agent.host is topo.service_host:
                continue
            for data in agent.local_data():
                assert agent.attribute_of(data).relative_lifetime != app.collector_name

    def test_worker_crash_reschedules_fault_tolerant_task(self, env):
        topo, runtime, app = self._build(env, n_workers=3, n_tasks=1,
                                         reference_compute_s=200.0)
        env.process(app._master_program())
        env.run(until=40)
        # Find the worker that got the (single) task input and crash it
        # before the computation finishes.
        task_uid = next(iter(app._tasks_by_input_uid))
        owner_names = runtime.data_scheduler.owners_of(task_uid)
        worker_owners = [n for n in owner_names if n != topo.service_host.name]
        assert worker_owners
        victim = runtime.network.hosts[worker_owners[0]]
        runtime.crash_host(victim)
        env.run(until=1200)
        assert app.results_collected >= 1
        survivor = [r.host_name for r in app.records if r.completed_at is not None]
        assert victim.name not in survivor


class TestBlastApplication:
    def test_parameters_and_builder_validation(self, env):
        topo, runtime = small_runtime(env, n_workers=2)
        with pytest.raises(ValueError):
            build_blast_application(runtime, topo.service_host, n_tasks=0)

    def test_blast_defaults_follow_the_paper(self):
        params = BlastParameters()
        assert params.application_mb == pytest.approx(4.45)
        assert params.genebase_mb == pytest.approx(2744.0)
        assert params.genebase_mb / 1024.0 == pytest.approx(2.68, rel=0.01)

    def test_small_blast_run_completes(self, env):
        topo, runtime = small_runtime(env, n_workers=3, sync_period_s=5.0)
        params = BlastParameters(genebase_mb=64, execution_reference_s=30,
                                 unzip_reference_s=5)
        app = build_blast_application(runtime, topo.service_host, n_tasks=3,
                                      transfer_protocol="bittorrent",
                                      parameters=params)
        app.register_workers()
        report = app.run(deadline_s=3000, poll_s=5)
        assert report.results_collected == 3
        assert report.tasks_executed == 3
        breakdown = report.mean_breakdown()
        assert breakdown["unzip_s"] > 0

    def test_readiness_poll_enters_no_function(self, env):
        """A worker polls for the shared inputs once per simulated second.
        Only the waiting ``_execute`` frame itself is resumed per poll; no
        function of the application or the agent is entered.  (A generator
        of the runtime is resumed by its own events, not by the poll.)"""
        topo, runtime = small_runtime(env, n_workers=10, sync_period_s=30.0,
                                      monitor_period_s=10.0,
                                      heartbeat_period_s=15.0,
                                      max_data_schedule=2)
        params = BlastParameters(genebase_mb=1024, unzip_reference_s=1,
                                 execution_reference_s=1)
        app = build_blast_application(runtime, topo.service_host, n_tasks=10,
                                      transfer_protocol="ftp",
                                      parameters=params)
        app.register_workers()
        files = {master_worker.__file__, core_runtime.__file__}
        entered = Counter()

        def tally(code):
            if code.co_filename in files and (
                    not code.co_flags & inspect.CO_GENERATOR
                    or code.co_name == "<genexpr>"):
                entered[code.co_name, code.co_firstlineno] += 1
            return True

        report, _ = count_calls(
            lambda: app.run(deadline_s=3000, poll_s=30.0), tally)
        assert report.results_collected == 10
        polls = sum(round(record.shared_wait_s) for record in app.records)
        assert polls > 500
        assert {name: n for name, n in entered.items() if n >= polls} == {}

    def test_blast_attribute_wiring(self, env):
        """The application's attributes follow Listing 3 of the paper."""
        topo, runtime = small_runtime(env, n_workers=2)
        app = build_blast_application(runtime, topo.service_host, n_tasks=2,
                                      transfer_protocol="bittorrent")
        genebase_attr = app._shared_attribute(app.shared_inputs[1])
        assert genebase_attr.affinity == "Sequence"
        assert genebase_attr.protocol == "bittorrent"
        assert genebase_attr.relative_lifetime == "Collector"
        application_attr = app._shared_attribute(app.shared_inputs[0])
        assert application_attr.replica == -1
        task_attr = app._task_attribute()
        assert task_attr.fault_tolerance
        assert task_attr.protocol == "http"
        result_attr = app._result_attribute()
        assert result_attr.affinity == "Collector"

    def test_grid5000_blast_split_across_clusters(self, env):
        topo = grid5000_testbed(env, total_nodes=8)
        registry = default_registry(env, topo.network, bittorrent_mode="fluid")
        runtime = BitDewEnvironment(topo, registry=registry, sync_period_s=5.0,
                                    max_data_schedule=4)
        params = BlastParameters(genebase_mb=32, execution_reference_s=20,
                                 unzip_reference_s=2)
        app = build_blast_application(runtime, topo.service_host, n_tasks=8,
                                      transfer_protocol="bittorrent",
                                      parameters=params)
        app.register_workers()
        report = app.run(deadline_s=4000, poll_s=10)
        assert report.results_collected == 8
        clusters = set(report.breakdown_by_cluster())
        assert len(clusters) >= 2
