"""The service fabric: shard ring, routers, facades, detector fixes, failover."""

import random

import pytest

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.runtime import BitDewEnvironment
from repro.net.rpc import RpcError
from repro.net.topology import cluster_topology
from repro.services.fabric import ServiceFabric
from repro.services.heartbeat import FailureDetector
from repro.services.rebalance import RebalanceCoordinator
from repro.services.router import FabricRouter, ShardRing, StaticRouter
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent

from tests.chaos import ChaosHarness


def _make_data(i, size_mb=0.01):
    content = FileContent.from_seed(f"fab-test-{i:04d}", size_mb)
    return Data.from_content(content), content


class TestShardRing:
    def test_mapping_is_deterministic_and_in_range(self):
        ring = ShardRing(4, label="dc")
        keys = [f"key-{i}" for i in range(500)]
        first = [ring.shard_for(k) for k in keys]
        second = [ring.shard_for(k) for k in keys]
        assert first == second
        assert all(0 <= s < 4 for s in first)

    def test_single_shard_maps_everything_to_zero(self):
        ring = ShardRing(1)
        assert {ring.shard_for(f"k{i}") for i in range(50)} == {0}

    def test_partition_agrees_with_shard_for(self):
        ring = ShardRing(3, label="ds")
        keys = {f"uid-{i}" for i in range(200)}
        parts = ring.partition(keys)
        assert set().union(*parts.values()) == keys
        assert sum(len(v) for v in parts.values()) == len(keys)
        for shard, members in parts.items():
            assert all(ring.shard_for(k) == shard for k in members)

    def test_virtual_nodes_keep_shards_reasonably_balanced(self):
        ring = ShardRing(4)
        counts = [0, 0, 0, 0]
        for i in range(2000):
            counts[ring.shard_for(f"load-{i}")] += 1
        # With 16 vnodes per shard no shard should own a degenerate slice.
        assert min(counts) >= 2000 * 0.05
        assert max(counts) <= 2000 * 0.60

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRing(0)
        with pytest.raises(ValueError):
            ShardRing(2, vnodes=0)


class _ReferenceDetector:
    """The seed implementation's linear-scan sweep, for equivalence checks."""

    def __init__(self, env, timeout_s):
        self.env = env
        self.timeout_s = timeout_s
        self.hosts = {}

    def heartbeat(self, name):
        entry = self.hosts.get(name)
        if entry is None:
            self.hosts[name] = {"last": self.env.now, "alive": True}
            return
        entry["last"] = self.env.now
        if not entry["alive"]:
            entry["alive"] = True

    def sweep(self):
        now = self.env.now
        newly_dead = []
        for name, entry in self.hosts.items():
            if entry["alive"] and now - entry["last"] > self.timeout_s:
                entry["alive"] = False
                newly_dead.append(name)
        return newly_dead


class TestFailureDetectorExpiryHeap:
    def test_sweep_equivalent_to_linear_scan_under_random_schedule(self):
        env = Environment()
        detector = FailureDetector(env, heartbeat_period_s=1.0,
                                   timeout_multiplier=3.0)
        reference = _ReferenceDetector(env, detector.timeout_s)
        rng = random.Random(1234)
        names = [f"h{i}" for i in range(30)]

        def driver():
            for _step in range(120):
                for name in names:
                    if rng.random() < 0.35:
                        detector.heartbeat(name)
                        reference.heartbeat(name)
                yield env.timeout(0.4)
                assert detector.sweep() == reference.sweep()
                for name in names:
                    assert detector.is_alive(name) == \
                        reference.hosts.get(name, {}).get("alive", False)

        env.process(driver())
        env.run(until=env.timeout(120 * 0.4 + 1.0))

    def test_revival_rearms_the_heap(self):
        env = Environment()
        detector = FailureDetector(env, heartbeat_period_s=1.0,
                                   timeout_multiplier=2.0)
        recovered = []
        detector.on_recovery(recovered.append)

        def driver():
            detector.heartbeat("a")
            yield env.timeout(3.0)
            assert detector.sweep() == ["a"]
            detector.heartbeat("a")           # revival
            assert recovered == ["a"]
            assert detector.is_alive("a")
            yield env.timeout(3.0)
            assert detector.sweep() == ["a"]  # dies again via the new row
        env.process(driver())
        env.run(until=env.timeout(10.0))

    def test_forget_invalidates_pending_heap_rows(self):
        env = Environment()
        detector = FailureDetector(env, heartbeat_period_s=1.0,
                                   timeout_multiplier=2.0)

        def driver():
            detector.heartbeat("a")
            detector.heartbeat("b")
            detector.forget("a")
            yield env.timeout(5.0)
            assert detector.sweep() == ["b"]   # no ghost declaration for "a"
            # Re-tracking "a" after forget starts a fresh incarnation.
            detector.heartbeat("a")
            assert detector.is_alive("a")
        env.process(driver())
        env.run(until=env.timeout(10.0))

    def test_dead_declaration_order_is_tracking_order(self):
        env = Environment()
        detector = FailureDetector(env, heartbeat_period_s=1.0,
                                   timeout_multiplier=2.0)
        dead = []
        detector.on_failure(dead.append)

        def driver():
            # Track in a specific order; all expire in the same sweep.
            for name in ("z", "m", "a"):
                detector.heartbeat(name)
            yield env.timeout(5.0)
            detector.sweep()
            assert dead == ["z", "m", "a"]
        env.process(driver())
        env.run(until=env.timeout(10.0))


class TestFailureDetectorStopStartLeak:
    def test_stop_start_leaves_a_single_sweep_loop(self):
        """stop() then start() while the old loop is mid-timeout must not
        leave two concurrent sweep loops (the old loop used to wake, see
        _running=True again and keep sweeping alongside the new loop)."""
        env = Environment()
        detector = FailureDetector(env, heartbeat_period_s=2.0,
                                   timeout_multiplier=3.0,
                                   sweep_period_s=1.0)

        def driver():
            detector.start()
            yield env.timeout(2.5)
            detector.stop()
            detector.start()      # old loop still pending on its timeout
            yield env.timeout(17.5)
            detector.stop()
        env.process(driver())
        env.run(until=env.timeout(25.0))
        # Single-loop rate: one sweep per period over ~20s (+1 trailing
        # sweep after each stop); the leak would give roughly double.
        assert detector.sweeps <= 23
        assert detector.sweeps >= 18

    def test_start_is_idempotent(self):
        env = Environment()
        detector = FailureDetector(env, sweep_period_s=1.0)

        def driver():
            detector.start()
            detector.start()
            detector.start()
            yield env.timeout(10.0)
            detector.stop()
        env.process(driver())
        env.run(until=env.timeout(15.0))
        assert detector.sweeps <= 12


def _fabric_env(n_workers=6, shards=2, service_hosts=2, replicas=2, **kwargs):
    env = Environment()
    topo = cluster_topology(env, n_workers=n_workers,
                            n_service_hosts=service_hosts,
                            server_link_mbps=1000.0, node_link_mbps=1000.0)
    runtime = BitDewEnvironment(
        topo, shards=shards, service_hosts=service_hosts,
        service_replicas=replicas, sync_period_s=1.0,
        heartbeat_period_s=1.0, **kwargs)
    return env, topo, runtime


class TestServiceFabricConstruction:
    def test_default_deployment_stays_classic(self):
        env = Environment()
        topo = cluster_topology(env, n_workers=2)
        runtime = BitDewEnvironment(topo)
        assert runtime.fabric is None
        assert isinstance(runtime.router, StaticRouter)

    def test_fabric_deployment_is_selected_by_spec(self):
        env, _topo, runtime = _fabric_env()
        assert runtime.fabric is not None
        assert isinstance(runtime.router, FabricRouter)
        assert runtime.container is runtime.fabric
        assert runtime.fabric.shards == 2
        assert len(runtime.fabric.hosts) == 2

    def test_validations(self):
        env = Environment()
        topo = cluster_topology(env, n_workers=2, n_service_hosts=2)
        with pytest.raises(ValueError):
            BitDewEnvironment(topo, service_hosts=3)       # only 2 available
        with pytest.raises(ValueError):
            BitDewEnvironment(topo, service_hosts=2, service_replicas=3)
        volatile = topo.worker_hosts[0]
        with pytest.raises(ValueError):
            ServiceFabric(env, [volatile], topo.network)

    def test_replica_placement_spreads_over_hosts(self):
        env, _topo, runtime = _fabric_env(shards=4, service_hosts=4,
                                          replicas=2)
        fabric = runtime.fabric
        for service in ("dc", "ds"):
            for shard in range(4):
                endpoints = fabric.shard_endpoints(service, shard)
                hosts = [e.host.name for e in endpoints]
                assert len(hosts) == 2
                assert len(set(hosts)) == 2          # distinct hosts
                assert endpoints[0].shard == f"{service}-{shard}"
        # Primaries rotate round-robin, so no host owns every shard.
        primaries = {fabric.shard_endpoints("dc", s)[0].host.name
                     for s in range(4)}
        assert len(primaries) == 4


class TestShardedFacades:
    def test_catalog_facade_routes_and_aggregates(self):
        env, _topo, runtime = _fabric_env()
        catalog = runtime.data_catalog
        repo = runtime.container.data_repository
        uids = []
        for i in range(12):
            data, content = _make_data(i)
            locator = repo.store_now(data, content)
            catalog.add_locator_now(locator)
            catalog.register_data_now(data)
            uids.append(data.uid)
        assert catalog.data_count == 12
        assert len(catalog.all_data_now()) == 12
        for uid in uids:
            assert catalog.get_data_now(uid) is not None
            locators = catalog.locators_for_now(uid)
            assert len(locators) == 1 and locators[0].data_uid == uid
        # Data really is spread over both shards (not all on one).
        per_shard = [shard.data_count for shard in catalog.shards]
        assert sum(per_shard) == 12 and all(c > 0 for c in per_shard)

    def test_scheduler_facade_routes_by_uid(self):
        env, _topo, runtime = _fabric_env()
        scheduler = runtime.data_scheduler
        attr = Attribute(name="t", replica=1)
        datas = [_make_data(i)[0] for i in range(10)]
        for data in datas:
            scheduler.schedule(data, attr)
        assert scheduler.managed_count == 10
        ring = runtime.fabric.ds_ring
        for data in datas:
            shard = ring.shard_for(data.uid)
            assert scheduler.shards[shard].entry(data.uid) is not None
            assert scheduler.entry(data.uid) is not None
        assert scheduler.unschedule(datas[0].uid)
        assert scheduler.managed_count == 9
        scheduler.pin(datas[1], "w1")
        assert "w1" in scheduler.owners_of(datas[1].uid)


class TestFabricRuntimeEndToEnd:
    def test_sharded_storm_places_and_downloads_everything(self):
        env, _topo, runtime = _fabric_env(n_workers=8, shards=3,
                                          service_hosts=3, replicas=1)
        scheduler = runtime.data_scheduler
        catalog = runtime.data_catalog
        repo = runtime.container.data_repository
        attr = Attribute(name="grid", replica=2, protocol="http")
        datas = []
        for i in range(30):
            data, content = _make_data(i)
            locator = repo.store_now(data, content)
            catalog.add_locator_now(locator)
            scheduler.schedule(data, attr)
            datas.append(data)
        runtime.attach_all(auto_sync=False)
        for _round in range(3):
            done = runtime.kick_sync()
            env.run(until=done)
        for data in datas:
            assert len(scheduler.owners_of(data.uid)) >= 2
        downloaded = sum(
            1 for agent in runtime.agents.values()
            for uid in agent.cached_uids() if agent.has_content(uid))
        assert downloaded == 60                     # 30 data × replica 2
        # Every shard took part in the synchronisation storm.
        assert all(s.sync_count > 0 for s in scheduler.shards)

    def test_unscheduled_data_is_deleted_through_scatter_merge(self):
        env, _topo, runtime = _fabric_env(n_workers=4, shards=2,
                                          service_hosts=2, replicas=1)
        scheduler = runtime.data_scheduler
        catalog = runtime.data_catalog
        repo = runtime.container.data_repository
        attr = Attribute(name="grid", replica=-1, protocol="http")
        datas = []
        for i in range(6):
            data, content = _make_data(i)
            locator = repo.store_now(data, content)
            catalog.add_locator_now(locator)
            scheduler.schedule(data, attr)
            datas.append(data)
        runtime.attach_all(auto_sync=False)
        done = runtime.kick_sync()
        env.run(until=done)
        agent = next(iter(runtime.agents.values()))
        assert all(agent.has_content(d.uid) for d in datas)
        # Drop half of Θ; the next sync's merged to_delete purges them.
        for data in datas[:3]:
            scheduler.unschedule(data.uid)
        done = runtime.kick_sync()
        env.run(until=done)
        assert all(not agent.has_local(d.uid) for d in datas[:3])
        assert all(agent.has_content(d.uid) for d in datas[3:])


class TestClientApisUnderFabric:
    def test_active_data_api_routes_through_the_fabric(self):
        """The fabric is a deployment spec, not a different API: the
        ActiveData surface (schedule/pin/unschedule/owners_of) and
        BitDew.delete must route by data uid like everything else."""
        env, _topo, runtime = _fabric_env(n_workers=2)
        agent = runtime.attach(_topo.worker_hosts[0], auto_sync=False)
        data, _content = _make_data(0)
        attr = Attribute(name="api", replica=1)
        outcome = {}

        def script():
            yield from agent.active_data.schedule(data, attr)
            outcome["scheduled"] = runtime.data_scheduler.entry(data.uid)
            yield from agent.active_data.pin(data)
            outcome["owners"] = yield from agent.active_data.owners_of(data)
            removed = yield from agent.active_data.unschedule(data)
            outcome["removed"] = removed
        env.process(script())
        env.run(until=env.timeout(5.0))

        assert outcome["scheduled"] is not None
        assert agent.host.name in outcome["owners"]
        assert outcome["removed"] is True
        assert runtime.data_scheduler.entry(data.uid) is None

    def test_delete_data_frees_the_repository_copy(self):
        """``dr`` is the unsharded group: delete_data reaches it through the
        fabric router and the permanent copy's disk is given back."""
        env, topo, runtime = _fabric_env(n_workers=1)
        master = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        content = FileContent.from_seed("doomed", 5)
        seen = {}

        def script():
            data = yield from master.bitdew.create_data("doomed",
                                                        content=content)
            yield from master.bitdew.put(data, content)
            seen["stored_mb"] = runtime.data_repository.used_mb
            yield from master.bitdew.delete_data(data)
            return data
        process = env.process(script())
        data = env.run(until=process)

        assert seen["stored_mb"] == 5.0
        assert runtime.data_catalog.get_data_now(data.uid) is None
        assert not runtime.data_repository.has(data.uid)
        assert runtime.data_repository.used_mb == 0.0

    def test_search_data_matches_the_classic_container(self):
        """The paper's searchData under a fabric: find_by_name fans out to
        every shard and merges; the answer is the classic container's."""
        # Explicit uids: the shard spread must not depend on how many
        # AUIDs earlier tests drew.
        datas = [Data(name=f"solo-{i}", uid=f"solo-uid-{i}")
                 for i in range(12)]
        twins = [Data(name="twin", uid=f"twin-uid-{i}") for i in range(12)]

        def answers(runtime, worker):
            for data in datas + twins:
                runtime.data_catalog.register_data_now(data)
            agent = runtime.attach(worker, auto_sync=False)
            out = {}

            def script():
                for data in datas:
                    out[data.name] = yield from agent.bitdew.search_data(
                        data.name)
                out["twin"] = yield from agent.invoke(
                    "dc", "find_by_name", "twin")
            runtime.env.run(until=runtime.env.process(script()))
            return out

        env, topo, runtime = _fabric_env(n_workers=1, shards=3,
                                         service_hosts=3, replicas=1)
        sharded = answers(runtime, topo.worker_hosts[0])
        classic_env = Environment()
        classic_topo = cluster_topology(classic_env, n_workers=1)
        classic = answers(BitDewEnvironment(classic_topo),
                          classic_topo.worker_hosts[0])

        # Every shard homes some of the searched data, so every branch of
        # the fan-out contributed a hit.
        ring = runtime.fabric.dc_ring
        assert {ring.shard_for(d.uid) for d in datas} == {0, 1, 2}
        assert {ring.shard_for(d.uid) for d in twins} == {0, 1, 2}
        for data in datas:
            assert sharded[data.name] == classic[data.name] == data
        # Row order is shard order on the fabric, insertion order classic.
        assert sorted(sharded["twin"], key=lambda d: d.uid) \
            == sorted(classic["twin"], key=lambda d: d.uid) \
            == sorted(twins, key=lambda d: d.uid)

    def test_scatter_dedups_dual_homed_datum_mid_split(self):
        """While a split copies, a moved datum sits on its old and its new
        shard; find_by_name reads both and must report it exactly once."""
        env, topo, runtime = _fabric_env(n_workers=1, replicas=1)
        fabric = runtime.fabric
        datas = [Data(name=f"mig-{i}", uid=f"mig-uid-{i}") for i in range(24)]
        for data in datas:
            runtime.data_catalog.register_data_now(data)
        agent = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        harness = ChaosHarness(runtime)
        coordinator = RebalanceCoordinator(
            fabric, runtime.router, on_phase=harness.observe_phases())

        def homes(uid):
            return [index for index, shard in enumerate(fabric.catalog_shards)
                    if shard.get_data_now(uid) is not None]

        answers = []    # (phase at issue, dual-homed throughout, exact?)

        def searcher():
            while not coordinator.history:
                for data in datas:
                    phase = harness.phases[-1][0] if harness.phases else None
                    before = homes(data.uid)
                    rows = yield from agent.invoke("dc", "find_by_name",
                                                   data.name)
                    dual = len(before) == 2 and homes(data.uid) == before
                    answers.append((phase, dual,
                                    [row.uid for row in rows] == [data.uid]))
        env.process(searcher())
        env.run(until=env.process(coordinator.split()))

        assert fabric.shards == 3
        assert all(exact for _phase, _dual, exact in answers)
        # The scatter really did read two copies, and did so mid-copy.
        assert any(dual and phase == "copy" for phase, dual, _e in answers)
        harness.assert_ok()

    def test_fabric_stop_start_leaves_single_heartbeat_loops(self):
        """stop()+start() must not leave duplicate per-host heartbeat loops
        (same epoch guard as the failure detector's sweep loop)."""
        env, _topo, runtime = _fabric_env(n_workers=1)
        fabric = runtime.fabric
        beats = []
        original = fabric.host_detector.heartbeat
        fabric.host_detector.heartbeat = lambda name: (
            beats.append((env.now, name)), original(name))[1]

        def script():
            yield env.timeout(3.5)
            fabric.stop()
            fabric.start()      # old loops still pending on their timeouts
            yield env.timeout(6.5)
            fabric.stop()
        env.process(script())
        env.run(until=env.timeout(15.0))
        # One beat per host per period (~10 periods over 10 s, small slack);
        # leaked duplicate loops would roughly double this.
        per_host = len(beats) / len(fabric.hosts)
        assert per_host <= 13


class TestHeartbeatDrivenFailover:
    def test_router_reroutes_after_detection_and_routes_back(self):
        env, _topo, runtime = _fabric_env(n_workers=2)
        fabric = runtime.fabric
        router = runtime.router
        primary = fabric.hosts[0]
        timeout_s = fabric.host_detector.timeout_s

        # Find a shard whose primary replica lives on the primary host.
        target = None
        for shard in range(fabric.shards):
            if fabric.shard_endpoints("ds", shard)[0].host is primary:
                target = shard
                break
        assert target is not None

        log = {}

        def script():
            yield env.timeout(5.2)       # heartbeats seeded
            assert router._live_endpoint("ds", target).host is primary
            runtime.crash_service_host(primary)
            # Before detection the router still believes the primary alive.
            assert router._live_endpoint("ds", target).host is primary
            yield env.timeout(timeout_s + 2 * fabric.host_detector.sweep_period_s)
            rerouted = router._live_endpoint("ds", target)
            log["rerouted_host"] = rerouted.host.name
            log["reroutes"] = router.reroutes
            runtime.recover_service_host(primary)
            yield env.timeout(2 * fabric.host_detector.heartbeat_period_s)
            log["after_recovery"] = router._live_endpoint("ds", target).host.name
        env.process(script())
        env.run(until=env.timeout(30.0))

        assert log["rerouted_host"] != primary.name
        assert log["reroutes"] >= 1
        assert log["after_recovery"] == primary.name

    def test_all_replicas_dead_raises_labelled_rpc_error(self):
        env, _topo, runtime = _fabric_env(n_workers=2)
        fabric = runtime.fabric

        def script():
            yield env.timeout(2.2)
            for host in fabric.hosts:
                host.fail()
            yield env.timeout(fabric.host_detector.timeout_s + 1.0)
            with pytest.raises(RpcError) as err:
                runtime.router._live_endpoint("ds", 0)
            assert "no live replica" in str(err.value)
            assert "ds-0" in str(err.value)
        env.process(script())
        env.run(until=env.timeout(30.0))

    def test_client_sync_survives_service_host_crash(self):
        """End-to-end: a worker's periodic sync blocks through the outage
        and resumes on the replica within one heartbeat timeout."""
        env, _topo, runtime = _fabric_env(n_workers=3, shards=2,
                                          service_hosts=2, replicas=2,
                                          timeout_multiplier=12.0)
        fabric = runtime.fabric
        primary = fabric.hosts[0]
        agents = runtime.attach_all(auto_sync=False)
        ok_times = []

        def client(agent):
            while env.now < 25.0:
                try:
                    yield from agent.sync_once()
                    ok_times.append(env.now)
                except RpcError:
                    pass
                yield env.timeout(1.0)

        def crash():
            yield env.timeout(8.3)
            runtime.crash_service_host(primary)
        for agent in agents:
            env.process(client(agent))
        env.process(crash())
        env.run(until=env.timeout(30.0))

        after = [t for t in ok_times if t > 8.3]
        assert after, "no client ever resumed after the crash"
        # First post-crash success within one host-detector timeout.
        assert min(after) - 8.3 <= fabric.host_detector.timeout_s
        lost = sum(a.channel.lost_requests for a in agents)
        assert lost == 0
