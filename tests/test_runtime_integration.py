"""Integration tests: the full BitDew runtime (APIs + services + network)."""

import pytest

from repro.core.attributes import Attribute
from repro.core.data import Data
from repro.core.events import ActiveDataEventHandler, DataEventType
from repro.core.exceptions import BitDewError, DataNotFoundError
from repro.core.runtime import BitDewEnvironment
from repro.net.rpc import ChannelKind
from repro.net.topology import cluster_topology
from repro.sim.kernel import Environment
from repro.storage.filesystem import FileContent
from repro.transfer.oob import TransferState


def build_runtime(env, n_workers=4, **kwargs):
    topo = cluster_topology(env, n_workers=n_workers)
    kwargs.setdefault("sync_period_s", 1.0)
    kwargs.setdefault("monitor_period_s", 0.2)
    runtime = BitDewEnvironment(topo, **kwargs)
    return topo, runtime


class TestBitDewApi:
    def test_create_put_get_roundtrip(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=2)
        master = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        other = runtime.attach(topo.worker_hosts[1], auto_sync=False)
        content = FileContent.from_seed("dataset", 8)

        def master_program():
            data = yield from master.bitdew.create_data("dataset", content=content)
            yield from master.bitdew.put(data, content)
            return data

        data = drive(env, master_program())
        assert runtime.data_catalog.get_data_now(data.uid) is not None
        assert runtime.data_repository.has(data.uid)

        def other_program():
            found = yield from other.bitdew.search_data("dataset")
            fetched = yield from other.bitdew.get(found)
            return found, fetched

        found, fetched = drive(env, other_program())
        assert found.uid == data.uid
        assert fetched.verify(content)
        assert other.has_content(data.uid)

    def test_search_missing_raises(self, env):
        topo, runtime = build_runtime(env, n_workers=1)
        agent = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        process = env.process(agent.bitdew.search_data("nothing"))
        with pytest.raises(DataNotFoundError):
            env.run(until=process)

    def test_get_unreachable_data_raises(self, env):
        topo, runtime = build_runtime(env, n_workers=1)
        agent = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        orphan = Data(name="orphan", size_mb=1, checksum="abc")

        def program():
            yield from agent.invoke("dc", "register_data", orphan)
            yield from agent.bitdew.get(orphan)

        process = env.process(program())
        with pytest.raises(DataNotFoundError):
            env.run(until=process)

    def test_non_blocking_get_tracked_by_transfer_manager(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=2)
        master = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        other = runtime.attach(topo.worker_hosts[1], auto_sync=False)
        content = FileContent.from_seed("dataset", 16)

        def publish():
            data = yield from master.bitdew.create_data("dataset", content=content)
            yield from master.bitdew.put(data, content)
            return data

        data = drive(env, publish())

        def consume():
            yield from other.bitdew.get(data, blocking=False)
            state = yield from other.transfer_manager.wait_for(data)
            return state

        state = drive(env, consume())
        assert state is TransferState.COMPLETE
        assert other.has_content(data.uid)
        assert other.transfer_manager.completed == 1

    def test_delete_data_removes_everywhere(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=1)
        master = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        content = FileContent.from_seed("dataset", 2)

        def program():
            data = yield from master.bitdew.create_data("dataset", content=content)
            yield from master.bitdew.put(data, content)
            yield from master.active_data.schedule(data, Attribute(name="a"))
            yield from master.bitdew.delete_data(data)
            return data

        data = drive(env, program())
        assert runtime.data_catalog.get_data_now(data.uid) is None
        assert runtime.data_scheduler.entry(data.uid) is None
        assert not master.has_local(data.uid)
        # The repository's permanent copy goes too, and its disk with it.
        assert not runtime.data_repository.has(data.uid)
        assert runtime.data_repository.used_mb == 0.0

    def test_publish_search_key_value_through_dht(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=2)
        a = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        b = runtime.attach(topo.worker_hosts[1], auto_sync=False)

        def program():
            yield from a.bitdew.publish("checkpoint-sig", "0xdeadbeef")
            values = yield from b.bitdew.search("checkpoint-sig")
            return values

        assert drive(env, program()) == {"0xdeadbeef"}

    def test_create_attribute_from_string_and_dict(self, env):
        topo, runtime = build_runtime(env, n_workers=1)
        agent = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        attr1 = agent.bitdew.create_attribute("attr x = {replica = 3, oob = ftp}")
        assert attr1.replica == 3 and attr1.protocol == "ftp"
        attr2 = agent.bitdew.create_attribute({"name": "y", "replica": 2})
        assert attr2.replica == 2
        attr3 = agent.active_data.create_attribute(attr2)
        assert attr3 is attr2


class CopyCounter(ActiveDataEventHandler):
    def __init__(self):
        self.copies = []
        self.deletes = []

    def on_data_copy_event(self, data, attribute):
        self.copies.append(data.name)

    def on_data_delete_event(self, data, attribute):
        self.deletes.append(data.name)


class TestSchedulingIntegration:
    def test_replicate_to_all_reaches_every_worker(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=4)
        master = runtime.attach(topo.service_host, auto_sync=False)
        content = FileContent.from_seed("blob", 10)

        def publish():
            data = yield from master.bitdew.create_data("blob", content=content)
            yield from master.bitdew.put(data, content)
            attr = Attribute(name="everywhere", replica=-1, protocol="ftp")
            yield from master.active_data.schedule(data, attr)
            return data

        data = drive(env, publish())
        agents = runtime.attach_all()
        handlers = {}
        for agent in agents:
            handler = CopyCounter()
            handlers[agent.host.name] = handler
            agent.active_data.add_callback(handler)
        runtime.run(until=60)
        for agent in agents:
            assert agent.has_content(data.uid), agent.host.name
            assert handlers[agent.host.name].copies == ["blob"]
        assert len(runtime.data_scheduler.owners_of(data.uid)) == 4
        # Every worker published its replica in the distributed catalog.
        assert runtime.ddc.owners(data.uid) == {a.host.name for a in agents}

    def test_replica_count_respected(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=5)
        master = runtime.attach(topo.service_host, auto_sync=False)
        content = FileContent.from_seed("blob", 4)

        def publish():
            data = yield from master.bitdew.create_data("blob", content=content)
            yield from master.bitdew.put(data, content)
            yield from master.active_data.schedule(
                data, Attribute(name="twice", replica=2, protocol="http"))
            return data

        data = drive(env, publish())
        workers = runtime.attach_all()
        runtime.run(until=60)
        holders = [a for a in workers if a.has_content(data.uid)]
        assert len(holders) == 2
        assert len(runtime.data_scheduler.owners_of(data.uid)) == 2

    def test_lifetime_expiry_triggers_delete_events(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=2)
        master = runtime.attach(topo.service_host, auto_sync=False)
        content = FileContent.from_seed("ephemeral", 2)

        def publish():
            data = yield from master.bitdew.create_data("ephemeral", content=content)
            yield from master.bitdew.put(data, content)
            yield from master.active_data.schedule(
                data, Attribute(name="short", replica=-1, protocol="http",
                                absolute_lifetime=15.0))
            return data

        data = drive(env, publish())
        agents = runtime.attach_all()
        handlers = {}
        for agent in agents:
            handler = CopyCounter()
            handlers[agent.host.name] = handler
            agent.active_data.add_callback(handler)
        runtime.run(until=60)
        for agent in agents:
            assert not agent.has_local(data.uid)
            assert handlers[agent.host.name].deletes == ["ephemeral"]

    def test_fault_tolerant_replica_repair_end_to_end(self, env, drive):
        topo, runtime = build_runtime(env, n_workers=4, heartbeat_period_s=1.0)
        master = runtime.attach(topo.service_host, auto_sync=False)
        content = FileContent.from_seed("precious", 4)

        def publish():
            data = yield from master.bitdew.create_data("precious", content=content)
            yield from master.bitdew.put(data, content)
            yield from master.active_data.schedule(
                data, Attribute(name="ft", replica=2, fault_tolerance=True,
                                protocol="http"))
            return data

        data = drive(env, publish())
        workers = runtime.attach_all()
        runtime.run(until=30)
        holders = [a for a in workers if a.has_content(data.uid)]
        assert len(holders) == 2
        victim = holders[0]
        runtime.crash_host(victim.host)
        runtime.run(until=env.now + 40)
        live_holders = [a for a in workers
                        if a.host.online and a.has_content(data.uid)]
        assert len(live_holders) == 2
        assert victim.host.name not in {a.host.name for a in live_holders}

    def test_attach_detach_and_agent_lookup(self, env):
        topo, runtime = build_runtime(env, n_workers=2)
        agent = runtime.attach(topo.worker_hosts[0])
        assert runtime.agent(topo.worker_hosts[0]) is agent
        assert runtime.agent(topo.worker_hosts[0].name) is agent
        # Re-attaching an online host returns the same agent.
        assert runtime.attach(topo.worker_hosts[0]) is agent
        runtime.detach(topo.worker_hosts[0])
        with pytest.raises(BitDewError):
            runtime.agent(topo.worker_hosts[0].name)

    def test_local_channel_for_service_host_agent(self, env):
        topo, runtime = build_runtime(env, n_workers=1)
        service_agent = runtime.attach(topo.service_host, auto_sync=False)
        worker_agent = runtime.attach(topo.worker_hosts[0], auto_sync=False)
        assert service_agent.channel.kind is ChannelKind.LOCAL
        assert worker_agent.channel.kind is ChannelKind.RMI_REMOTE
